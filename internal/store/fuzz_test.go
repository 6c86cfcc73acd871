package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
)

// reseal recomputes, in place, the meta and prep checksums over the
// extents the footer names and then the footer's own checksum, so a
// mutated container reaches the parsers instead of stopping at a CRC.
// An extent outside the file keeps its stale CRC; Open refuses it on
// bounds before checking one.
func reseal(b []byte) {
	if len(b) < headerSize+footerSize {
		return
	}
	fo := len(b) - footerSize
	ftr := b[fo:]
	for _, at := range []int{0, 20} { // meta extent, prep extent
		off := binary.LittleEndian.Uint64(ftr[at:])
		n := binary.LittleEndian.Uint64(ftr[at+8:])
		if off <= uint64(fo) && n <= uint64(fo)-off {
			binary.LittleEndian.PutUint32(ftr[at+16:], checksum(b[off:off+n]))
		}
	}
	binary.LittleEndian.PutUint32(ftr[40:], checksum(ftr[:40]))
}

// assemble builds a container from a data region (header included) and
// hand-made meta and prep sections, behind a valid footer.
func assemble(data, meta, prep []byte) []byte {
	b := append(append(append([]byte(nil), data...), meta...), prep...)
	var ftr [footerSize]byte
	binary.LittleEndian.PutUint64(ftr[0:], uint64(len(data)))
	binary.LittleEndian.PutUint64(ftr[8:], uint64(len(meta)))
	binary.LittleEndian.PutUint64(ftr[20:], uint64(len(data)+len(meta)))
	binary.LittleEndian.PutUint64(ftr[28:], uint64(len(prep)))
	copy(ftr[44:], storeMagic[:])
	b = append(b, ftr[:]...)
	reseal(b)
	return b
}

func writeBytes(t testing.TB, b []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c.aqps")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestOpenRefusesOversizedCounts is the regression suite for counts read
// from CRC-valid meta and prep sections: each claims far more elements
// than the section holds, and each once sized an allocation before any
// check (the sample counts reached 2^40 elements; the process died with
// an out-of-memory fatal error that recover cannot catch).
func TestOpenRefusesOversizedCounts(t *testing.T) {
	tbl := testTable(t, "oc", 200, 14)
	raw, err := os.ReadFile(writeTemp(t, tbl, nil))
	if err != nil {
		t.Fatal(err)
	}
	fo := len(raw) - footerSize
	metaOff := binary.LittleEndian.Uint64(raw[fo:])
	metaLen := binary.LittleEndian.Uint64(raw[fo+8:])
	data, meta := raw[:metaOff], raw[metaOff:metaOff+metaLen]
	const huge = uint64(1) << 40

	// prepWith is one handle whose sample blob starts kind, source rows,
	// then whatever counts tail writes.
	prepWith := func(tail ...uint64) []byte {
		var blob bytes.Buffer
		blob.WriteByte(byte(sample.Uniform))
		puv(&blob, 100)
		for _, v := range tail {
			puv(&blob, v)
		}
		blob.Write(make([]byte, 16)) // a few bytes for the elements to start in
		var p bytes.Buffer
		puv(&p, 1)
		pstr(&p, "p")
		pf64(&p, 0.95)
		p.WriteByte(1)
		puv(&p, uint64(blob.Len()))
		p.Write(blob.Bytes())
		return p.Bytes()
	}
	// metaWith is a one-column table: name "t", rows, column "c" of type
	// typ, then whatever tail writes.
	metaWith := func(rows uint64, typ engine.ColType, tail ...uint64) []byte {
		var m bytes.Buffer
		pstr(&m, "t")
		puv(&m, rows)
		puv(&m, 1)
		pstr(&m, "c")
		m.WriteByte(byte(typ))
		for _, v := range tail {
			puv(&m, v)
		}
		return m.Bytes()
	}

	header := data[:headerSize] // a hand-made meta indexes no blocks
	for _, tc := range []struct {
		name             string
		data, meta, prep []byte
		want             string
	}{
		{"sample-invp", data, meta, prepWith(huge), "count 1099511627776"},
		{"sample-strata", data, meta, prepWith(0, huge), "count 1099511627776"},
		{"sample-stratumof", data, meta, prepWith(0, 0, huge), "count 1099511627776"},
		{"meta-dict", header, metaWith(0, engine.String, 1<<31), nil, "count 2147483648"},
		{"meta-rows", header, metaWith(1<<60, engine.Float64, 1<<48), nil, "rows need more blocks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mustOpenErr(t, writeBytes(t, assemble(tc.data, tc.meta, tc.prep)), tc.want)
		})
	}
}

// FuzzOpenStore feeds mutated containers to Open — the bytes `-data`
// accepts. Seeds are the test fixtures (int columns in both encodings, a
// float and a string column) with and without a persisted prep (a
// stratified sample and subsample, SUM and COUNT cubes, a min/max
// index). Every input is resealed first so mutations reach the parsers.
// Open must return an error, or a store on which a full-table SUM and
// COUNT over every column answers or errors, and so does every handle
// answering SUM, COUNT, AVG, a GROUP BY and a MIN/MAX through the
// processor DB.OpenStore would build from it; nothing may panic.
func FuzzOpenStore(f *testing.F) {
	// Small on purpose: the fuzzer minimizes every new-coverage input a
	// byte at a time, so seed size is fuzzing time.
	tbl := testTable(f, "fz", 100, 21)
	smp, err := sample.NewStratified(tbl, []string{"cat"}, 0.2, 3, 22)
	if err != nil {
		f.Fatal(err)
	}
	tmpl := cube.Template{Agg: "val", Dims: []string{"key"}}
	sumCube, err := cube.Build(tbl, tmpl, [][]float64{{10, 50}})
	if err != nil {
		f.Fatal(err)
	}
	countCube, err := cube.Build(tbl, cube.Template{Dims: tmpl.Dims}, [][]float64{{10, 50}})
	if err != nil {
		f.Fatal(err)
	}
	mm, err := cube.BuildMinMax(tbl, "val", "key")
	if err != nil {
		f.Fatal(err)
	}
	prep := Prep{Name: "h", Sample: smp, Sub: smp.Subsample(0.5, 23), Cube: sumCube, CountCube: countCube,
		MinMax: []*cube.MinMaxIndex{mm}, Confidence: 0.95}
	for _, preps := range [][]Prep{nil, {prep}} {
		raw, err := os.ReadFile(writeTemp(f, tbl, preps))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		b := append([]byte(nil), in...)
		reseal(b)
		s, err := Open(writeBytes(t, b), Options{})
		if err != nil {
			return
		}
		defer s.Close()
		ctx := context.Background()
		tb := s.Table()
		_, _ = tb.Execute(ctx, engine.Query{Func: engine.Count})
		for _, c := range tb.Columns {
			// An answer or an error are both fine here; a panic fails.
			_, _ = tb.Execute(ctx, engine.Query{Func: engine.Sum, Col: c.Name})
			_, _ = tb.Execute(ctx, engine.Query{Func: engine.Count,
				Ranges: []engine.Range{{Col: c.Name, Lo: -math.MaxFloat64, Hi: math.MaxFloat64}}})
		}
		answerPreps(s)
	})
}

// answerPreps builds a core.Processor from each of s's preps exactly as
// DB.OpenStore does and answers SUM, COUNT, AVG, a GROUP BY and a
// MIN/MAX over the columns the prep's cube and first min/max index
// name. An answer or an error are both fine; the caller fails on a
// panic.
func answerPreps(s *Store) {
	ctx := context.Background()
	for _, sp := range s.Preps() {
		proc := &core.Processor{
			Sample:     sp.Sample,
			Sub:        sp.Sub,
			Cube:       sp.Cube,
			CountCube:  sp.CountCube,
			MinMax:     sp.MinMax,
			Confidence: sp.Confidence,
		}
		agg, dim := "val", "key"
		if c := sp.Cube; c != nil && len(c.Template.Dims) > 0 {
			agg, dim = c.Template.Agg, c.Template.Dims[0]
		}
		ranges := []engine.Range{{Col: dim, Lo: 10, Hi: 40}}
		for _, f := range []engine.AggFunc{engine.Sum, engine.Count, engine.Avg} {
			_, _ = proc.Answer(engine.Query{Func: f, Col: agg, Ranges: ranges})
		}
		_, _ = proc.AnswerGroups(ctx, engine.Query{Func: engine.Sum, Col: agg, Ranges: ranges, GroupBy: []string{"cat"}})
		if len(sp.MinMax) > 0 {
			m := sp.MinMax[0]
			_, _ = proc.Answer(engine.Query{Func: engine.Max, Col: m.Agg,
				Ranges: []engine.Range{{Col: m.Dim, Lo: 10, Hi: 40}}})
		}
	}
}
