package store

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
)

// Tests of the three streams the prep section embeds: a sample's table
// (AQPT), a BP-cube (AQPC) and a min/max index (AQPM).

func tableStream(t *testing.T, tbl *engine.Table) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := encodeTable(&b, tbl); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func readTable(b []byte) (*engine.Table, error) { return decodeTable(&byteReader{data: b}) }

func TestBinaryRoundTrip(t *testing.T) {
	tbl := testTable(t, "rt", 500, 41)
	got, err := readTable(tableStream(t, tbl))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tbl.Name || got.NumRows() != tbl.NumRows() || got.NumCols() != tbl.NumCols() {
		t.Fatalf("table %q %dx%d, want %q %dx%d",
			got.Name, got.NumRows(), got.NumCols(), tbl.Name, tbl.NumRows(), tbl.NumCols())
	}
	for j, wc := range tbl.Columns {
		gc := got.Columns[j]
		if gc.Name != wc.Name || gc.Type != wc.Type {
			t.Fatalf("column %d is %q %v, want %q %v", j, gc.Name, gc.Type, wc.Name, wc.Type)
		}
		for i := 0; i < tbl.NumRows(); i++ {
			if g, w := gc.StringAt(i), wc.StringAt(i); g != w {
				t.Errorf("col %q row %d: %q != %q", wc.Name, i, g, w)
			}
		}
	}
}

func TestBinaryRoundTripSpecialFloats(t *testing.T) {
	tbl := engine.MustNewTable("f", engine.NewFloatColumn("v",
		[]float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, -1e300}))
	got, err := readTable(tableStream(t, tbl))
	if err != nil {
		t.Fatal(err)
	}
	if want, have := tbl.MustColumn("v").Floats, got.MustColumn("v").Floats; !sameBits(have, want) {
		t.Errorf("floats %v, want %v bit for bit", have, want)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := readTable([]byte("XXXXjunk")); err == nil {
		t.Error("bad magic accepted")
	}
	b := tableStream(t, testTable(t, "bv", 10, 42))
	b[4] = streamVersion + 1
	if _, err := readTable(b); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	b := tableStream(t, testTable(t, "tr", 100, 43))
	if _, err := readTable(b[:len(b)/2]); err == nil {
		t.Error("truncated stream accepted")
	}
}

// TestBinaryDictionaryCodeRange: a string column's codes must index its
// dictionary.
func TestBinaryDictionaryCodeRange(t *testing.T) {
	tbl := engine.MustNewTable("d", engine.NewStringColumn("s", []string{"a", "b", "a"}))
	b := tableStream(t, tbl)
	b[len(b)-4] = 2 // the last row's code, past the two-entry dictionary
	if _, err := readTable(b); err == nil || !bytes.Contains([]byte(err.Error()), []byte("out of range")) {
		t.Errorf("code outside the dictionary: err = %v", err)
	}
}

func cubeStream(c *cube.BPCube) []byte {
	var b bytes.Buffer
	encodeCube(&b, c)
	return b.Bytes()
}

func readCube(b []byte) (*cube.BPCube, error) { return decodeCube(&byteReader{data: b}) }

func TestCubeBinaryRoundTrip(t *testing.T) {
	tbl := testTable(t, "cb", 300, 44)
	c, err := cube.Build(tbl, cube.Template{Agg: "val", Dims: []string{"key", "rnd", "cat"}},
		[][]float64{{20, 60}, {-500000, 0, 500000}, {2}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := readCube(cubeStream(c))
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(got, c) {
		t.Error("cube differs after the round trip")
	}
	// Strides must be usable after deserialization.
	lo, hi := []int{-1, 0, -1}, []int{1, 2, 0}
	if got.RangeSum(lo, hi) != c.RangeSum(lo, hi) {
		t.Error("RangeSum differs after round trip")
	}
}

func TestCubeBinaryCorruption(t *testing.T) {
	c, err := cube.Build(testTable(t, "cc", 50, 45), cube.Template{Agg: "val", Dims: []string{"key"}}, [][]float64{{5, 10}})
	if err != nil {
		t.Fatal(err)
	}
	b := cubeStream(c)
	if _, err := readCube(b[:len(b)-5]); err == nil {
		t.Error("truncated cube accepted")
	}
	bad := bytes.Clone(b)
	bad[3] = 'X' // present, length, reserved, then the magic
	if _, err := readCube(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// One cell fewer than the shape implies, the blob length adjusted.
	short := &cube.BPCube{Template: c.Template, Points: c.Points, Cells: c.Cells[:len(c.Cells)-1]}
	if _, err := readCube(cubeStream(short)); err == nil {
		t.Error("cells disagreeing with the shape accepted")
	}
}

// TestMinMaxBinaryCorruption: a min/max stream must carry its magic and
// ascending ordinals.
func TestMinMaxBinaryCorruption(t *testing.T) {
	mm, err := cube.BuildMinMax(testTable(t, "mc", 50, 46), "val", "key")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	encodeMinMax(&b, mm)
	bad := bytes.Clone(b.Bytes())
	bad[0] = 'X'
	if _, err := decodeMinMax(&byteReader{data: bad}); err == nil {
		t.Error("bad magic accepted")
	}
	// Overwrite the first ordinal with the last, so the first exceeds the
	// second.
	ords, _ := mm.Pairs()
	unsorted := bytes.Clone(b.Bytes())
	first := len(unsorted) - 16*len(ords)
	copy(unsorted[first:first+8], unsorted[first+8*(len(ords)-1):])
	if _, err := decodeMinMax(&byteReader{data: unsorted}); err == nil {
		t.Error("unsorted ordinals accepted")
	}
}

// oversizedStream writes magic and version, then body, then a few spare
// bytes: a stream whose counts claim far more entries than follow.
func oversizedStream(mg [4]byte, body func(b *bytes.Buffer)) *bytes.Buffer {
	var b bytes.Buffer
	b.Write(mg[:])
	puv(&b, streamVersion)
	body(&b)
	b.Write(make([]byte, 16))
	return &b
}

// TestBinaryRefusesOversizedCounts: table streams whose counts claim far
// more entries than follow fail before sizing a slice from the count
// (2^40 rows once asked for 8 TiB).
func TestBinaryRefusesOversizedCounts(t *testing.T) {
	table := func(nrows uint64, typ engine.ColType, tail ...uint64) func(*bytes.Buffer) {
		return func(b *bytes.Buffer) {
			pstr(b, "t")
			puv(b, 1) // one column
			puv(b, nrows)
			pstr(b, "c")
			b.WriteByte(byte(typ))
			for _, v := range tail {
				puv(b, v)
			}
		}
	}
	for _, tc := range []struct {
		name string
		in   *bytes.Buffer
	}{
		{"int rows", oversizedStream(tableMagic, table(1<<40, engine.Int64))},
		{"float rows", oversizedStream(tableMagic, table(1<<40, engine.Float64))},
		{"rows past MaxInt", oversizedStream(tableMagic, table(math.MaxUint64, engine.Int64))},
		{"dictionary", oversizedStream(tableMagic, table(1, engine.String, 1<<40))},
		{"codes", oversizedStream(tableMagic, table(1<<40, engine.String, 1, 0))}, // dictionary {""}, then codes
	} {
		if _, err := readTable(tc.in.Bytes()); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestCubeBinaryRefusesOversizedCounts: cube and min/max streams whose
// counts claim far more entries than follow fail before sizing a slice
// from the count, and a cube shape whose cell count overflows int is
// refused rather than wrapping to a small one.
func TestCubeBinaryRefusesOversizedCounts(t *testing.T) {
	cubeDims := func(b *bytes.Buffer) {
		pstr(b, "a")
		puv(b, 1<<40)
	}
	cubePoints := func(b *bytes.Buffer) {
		pstr(b, "a")
		puv(b, 1)
		pstr(b, "x")
		puv(b, 0) // source rows
		puv(b, 1<<40)
	}
	// 64 dimensions of two points each: 2^64 cells, which wraps to 0.
	cubeWide := func(b *bytes.Buffer) {
		pstr(b, "a")
		puv(b, 64)
		for i := 0; i < 64; i++ {
			pstr(b, fmt.Sprint("d", i))
		}
		puv(b, 0)
		for i := 0; i < 64; i++ {
			puv(b, 2)
			pf64(b, 0)
			pf64(b, 1)
		}
		puv(b, 0) // cells
	}
	minMaxEntries := func(b *bytes.Buffer) {
		pstr(b, "d")
		pstr(b, "a")
		puv(b, 1<<32)
	}
	// A cube stream sits behind a presence byte, its blob length and the
	// reserved byte.
	cubeErr := func(s *bytes.Buffer) error {
		var b bytes.Buffer
		b.WriteByte(1)
		prefixed(&b, func(blob *bytes.Buffer) {
			blob.WriteByte(0)
			blob.Write(s.Bytes())
		})
		_, err := readCube(b.Bytes())
		return err
	}
	minMaxErr := func(b *bytes.Buffer) error {
		_, err := decodeMinMax(&byteReader{data: b.Bytes()})
		return err
	}
	for _, tc := range []struct {
		name string
		in   *bytes.Buffer
		read func(*bytes.Buffer) error
	}{
		{"cube dims", oversizedStream(cubeMagic, cubeDims), cubeErr},
		{"cube points", oversizedStream(cubeMagic, cubePoints), cubeErr},
		{"cube shape overflow", oversizedStream(cubeMagic, cubeWide), cubeErr},
		{"minmax entries", oversizedStream(minMaxMagic, minMaxEntries), minMaxErr},
	} {
		if err := tc.read(tc.in); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
