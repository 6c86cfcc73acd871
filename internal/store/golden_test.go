package store

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// goldenPath is a container written from goldenInputs. It pins the
// on-disk bytes of every section, the embedded sample, cube and
// min/max streams included; it is never regenerated.
var goldenPath = filepath.Join("testdata", "golden.aqps")

// goldenInputs rebuilds the table and handle behind goldenPath: an int,
// a float (with NaN, ±Inf and -0) and a string column; one handle with a
// stratified sample and its subsample, SUM and COUNT cubes over two
// dimensions, and two min/max indexes.
func goldenInputs(t testing.TB) (*engine.Table, Prep) {
	t.Helper()
	const n = 300
	r := stats.NewRNG(31)
	ks := make([]int64, n)
	vs := make([]float64, n)
	ss := make([]string, n)
	pool := []string{"ash", "birch", "cedar", "elm"}
	for i := range ks {
		ks[i] = int64(r.Intn(60)) - 10
		vs[i] = r.Float64()*200 - 100
		ss[i] = pool[r.Intn(len(pool))]
	}
	vs[7], vs[9], vs[50], vs[123] = math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1)
	tbl := engine.MustNewTable("golden",
		engine.NewIntColumn("k", ks),
		engine.NewFloatColumn("v", vs),
		engine.NewStringColumn("s", ss),
	)
	smp, err := sample.NewStratified(tbl, []string{"s"}, 0.2, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	dims := []string{"k", "s"}
	points := [][]float64{{0, 20, 40}, {1, 2}}
	sumCube, err := cube.Build(tbl, cube.Template{Agg: "v", Dims: dims}, points)
	if err != nil {
		t.Fatal(err)
	}
	countCube, err := cube.Build(tbl, cube.Template{Dims: dims}, points)
	if err != nil {
		t.Fatal(err)
	}
	var mms []*cube.MinMaxIndex
	for _, c := range [][2]string{{"v", "k"}, {"k", "s"}} {
		mm, err := cube.BuildMinMax(tbl, c[0], c[1])
		if err != nil {
			t.Fatal(err)
		}
		mms = append(mms, mm)
	}
	return tbl, Prep{Name: "golden", Sample: smp, Sub: smp.Subsample(0.5, 33),
		Cube: sumCube, CountCube: countCube, MinMax: mms, Confidence: 0.9}
}

// TestGoldenContainer: Write reproduces the fixture byte for byte, and
// Open returns the fixture's table and every prep field equal to the
// inputs, floats compared by their bits.
func TestGoldenContainer(t *testing.T) {
	tbl, in := goldenInputs(t)
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(writeTemp(t, tbl, []Prep{in}))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		at := 0
		for at < min(len(got), len(want)) && got[at] == want[at] {
			at++
		}
		t.Errorf("Write: %d bytes, fixture %d; first difference at offset %d", len(got), len(want), at)
	}

	s := openTemp(t, goldenPath, Options{})
	if got := s.Table().NumRows(); got != tbl.NumRows() {
		t.Fatalf("NumRows = %d, want %d", got, tbl.NumRows())
	}
	for _, c := range tbl.Columns {
		for row := 0; row < tbl.NumRows(); row++ {
			if g, w := s.Table().MustColumn(c.Name).StringAt(row), c.StringAt(row); g != w {
				t.Fatalf("StringAt(%s, %d) = %q, want %q", c.Name, row, g, w)
			}
		}
	}
	preps := s.Preps()
	if len(preps) != 1 {
		t.Fatalf("Preps = %d, want 1", len(preps))
	}
	out := preps[0]
	if out.Name != in.Name || out.Confidence != in.Confidence {
		t.Errorf("name/confidence = %q/%v, want %q/%v", out.Name, out.Confidence, in.Name, in.Confidence)
	}
	if !sameSample(out.Sample, in.Sample) {
		t.Error("sample differs from the input")
	}
	if !sameSample(out.Sub, in.Sub) {
		t.Error("subsample differs from the input")
	}
	if !sameBits(out.Cube, in.Cube) || !sameBits(out.CountCube, in.CountCube) {
		t.Error("cubes differ from the inputs")
	}
	if !sameBits(out.MinMax, in.MinMax) {
		t.Error("min/max indexes differ from the inputs")
	}
}

// sameSample compares two samples field by field, the sample table by
// its columns' data (not the engine's derived caches).
func sameSample(a, b *sample.Sample) bool {
	if a == nil || b == nil {
		return a == b
	}
	sa, sb := *a, *b
	sa.Table, sb.Table = nil, nil
	if !sameBits(sa, sb) || a.Table.Name != b.Table.Name || len(a.Table.Columns) != len(b.Table.Columns) {
		return false
	}
	for i, ca := range a.Table.Columns {
		cb := b.Table.Columns[i]
		if ca.Name != cb.Name || ca.Type != cb.Type || !sameBits(ca.Ints, cb.Ints) ||
			!sameBits(ca.Floats, cb.Floats) || !sameBits(ca.Codes, cb.Codes) || !sameBits(ca.Dict, cb.Dict) {
			return false
		}
	}
	return true
}

// sameBits reports whether a and b are deeply equal, unexported fields
// included, comparing floats by their bits (so NaN equals itself and -0
// differs from 0) and a nil slice equal to an empty one.
func sameBits(a, b any) bool { return bitsEqual(reflect.ValueOf(a), reflect.ValueOf(b)) }

func bitsEqual(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return bitsEqual(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	}
	panic("sameBits: unsupported kind " + a.Kind().String())
}
