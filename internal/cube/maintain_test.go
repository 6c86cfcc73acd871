package cube

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

func TestInsertMatchesRebuild(t *testing.T) {
	tbl := randomTable(2, 200, 10, 16)
	tmpl := Template{Agg: "a", Dims: dims(2)}
	points := [][]float64{{3, 6, 10}, {5, 10}}
	c, err := Build(tbl, tmpl, points)
	if err != nil {
		t.Fatal(err)
	}
	// Insert 30 new rows incrementally, then rebuild from an extended
	// table and compare cells.
	r := stats.NewRNG(17)
	newA := append([]float64(nil), tbl.MustColumn("a").Floats...)
	newC := append([]int64(nil), tbl.MustColumn(dimName(0)).Ints...)
	newD := append([]int64(nil), tbl.MustColumn(dimName(1)).Ints...)
	for i := 0; i < 30; i++ {
		v := math.Floor(r.Float64()*100) / 10
		o1 := int64(r.Intn(10) + 1)
		o2 := int64(r.Intn(10) + 1)
		if err := c.Insert([]float64{float64(o1), float64(o2)}, v); err != nil {
			t.Fatal(err)
		}
		newA = append(newA, v)
		newC = append(newC, o1)
		newD = append(newD, o2)
	}
	tbl2 := engine.MustNewTable("t2",
		engine.NewFloatColumn("a", newA),
		engine.NewIntColumn(dimName(0), newC),
		engine.NewIntColumn(dimName(1), newD),
	)
	c2, err := Build(tbl2, tmpl, points)
	if err != nil {
		t.Fatal(err)
	}
	if c.SourceRows != c2.SourceRows {
		t.Errorf("SourceRows %d != %d", c.SourceRows, c2.SourceRows)
	}
	for i := range c.Cells {
		if math.Abs(c.Cells[i]-c2.Cells[i]) > 1e-9 {
			t.Fatalf("cell %d: %v != %v", i, c.Cells[i], c2.Cells[i])
		}
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := randomTable(1, 50, 10, 18)
	c, _ := Build(tbl, Template{Agg: "a", Dims: dims(1)}, [][]float64{{5, 10}})
	if err := c.Insert([]float64{1, 2}, 1); err == nil {
		t.Error("wrong ordinal count accepted")
	}
	if err := c.Insert([]float64{99}, 1); err == nil {
		t.Error("out-of-domain ordinal accepted")
	}
}

func TestCubeBinaryRoundTrip(t *testing.T) {
	tbl := randomTable(3, 300, 8, 19)
	c, err := Build(tbl, Template{Agg: "a", Dims: dims(3)}, [][]float64{{4, 8}, {2, 5, 8}, {8}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Template.Agg != c.Template.Agg || len(got.Template.Dims) != 3 {
		t.Error("template lost")
	}
	if got.SourceRows != c.SourceRows {
		t.Error("source rows lost")
	}
	for i := range c.Cells {
		if got.Cells[i] != c.Cells[i] {
			t.Fatalf("cell %d differs", i)
		}
	}
	// Strides must be usable after deserialization.
	lo := []int{-1, 0, -1}
	hi := []int{1, 2, 0}
	if got.RangeSum(lo, hi) != c.RangeSum(lo, hi) {
		t.Error("RangeSum differs after round trip")
	}
}

func TestCubeBinaryCorruption(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Error("bad magic accepted")
	}
	tbl := randomTable(1, 50, 10, 20)
	c, _ := Build(tbl, Template{Agg: "a", Dims: dims(1)}, [][]float64{{5, 10}})
	var buf bytes.Buffer
	if err := c.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(b[:len(b)-5])); err == nil {
		t.Error("truncated cube accepted")
	}
}

// TestBinaryRefusesOversizedCounts: cube and min/max streams whose
// counts claim far more entries than follow fail at EOF instead of
// sizing their slices from the count first, and a cube shape whose cell
// count overflows int is refused rather than wrapping to a small one.
func TestBinaryRefusesOversizedCounts(t *testing.T) {
	// stream writes magic and version, then body, then a few spare bytes.
	stream := func(mg [4]byte, body func(w *bufio.Writer)) []byte {
		var b bytes.Buffer
		w := bufio.NewWriter(&b)
		w.Write(mg[:])
		wuv(w, 1)
		body(w)
		w.Write(make([]byte, 16))
		w.Flush()
		return b.Bytes()
	}
	cubeDims := func(w *bufio.Writer) {
		wstr(w, "a")
		wuv(w, 1<<40)
	}
	cubePoints := func(w *bufio.Writer) {
		wstr(w, "a")
		wuv(w, 1)
		wstr(w, "x")
		wuv(w, 0) // source rows
		wuv(w, 1<<40)
	}
	// 64 dimensions of two points each: 2^64 cells, which wraps to 0.
	cubeWide := func(w *bufio.Writer) {
		wstr(w, "a")
		wuv(w, 64)
		for i := 0; i < 64; i++ {
			wstr(w, fmt.Sprint("d", i))
		}
		wuv(w, 0)
		for i := 0; i < 64; i++ {
			wuv(w, 2)
			wf64(w, 0)
			wf64(w, 1)
		}
		wuv(w, 0) // cells
	}
	minMaxEntries := func(w *bufio.Writer) {
		wstr(w, "d")
		wstr(w, "a")
		wuv(w, 1<<32)
	}
	readCube := func(b []byte) error {
		_, err := ReadBinary(bytes.NewReader(b))
		return err
	}
	readMinMax := func(b []byte) error {
		_, err := ReadMinMax(bytes.NewReader(b))
		return err
	}
	for _, tc := range []struct {
		name string
		in   []byte
		read func([]byte) error
	}{
		{"cube dims", stream(cubeMagic, cubeDims), readCube},
		{"cube points", stream(cubeMagic, cubePoints), readCube},
		{"cube shape overflow", stream(cubeMagic, cubeWide), readCube},
		{"minmax entries", stream(minMaxMagic, minMaxEntries), readMinMax},
	} {
		if err := tc.read(tc.in); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
