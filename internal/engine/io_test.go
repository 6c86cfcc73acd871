package engine

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	tbl := sampleTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, tbl, got)
}

func TestBinaryRoundTripSpecialFloats(t *testing.T) {
	tbl := MustNewTable("f", NewFloatColumn("v",
		[]float64{0, -0, math.Inf(1), math.Inf(-1), math.NaN(), 1e-300, -1e300}))
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tbl.MustColumn("v").Floats
	have := got.MustColumn("v").Floats
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(have[i]) {
			t.Errorf("row %d: %v != %v", i, want[i], have[i])
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(context.Background(), strings.NewReader("XXXXjunk")); err == nil {
		t.Error("bad magic accepted")
	}
}

func TestBinaryTruncated(t *testing.T) {
	tbl := sampleTable(t)
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadBinary(context.Background(), bytes.NewReader(b[:len(b)/2])); err == nil {
		t.Error("truncated stream accepted")
	}
}

// TestBinaryRefusesOversizedCounts: a stream whose row or dictionary
// count claims far more values than follow fails at EOF instead of
// sizing its slices from the count first (2^40 rows asked for 8 TiB).
func TestBinaryRefusesOversizedCounts(t *testing.T) {
	stream := func(nrows uint64, typ ColType, tail ...uint64) []byte {
		var b bytes.Buffer
		w := bufio.NewWriter(&b)
		w.Write(magic[:])
		writeUvarint(w, formatVersion)
		writeString(w, "t")
		writeUvarint(w, 1) // one column
		writeUvarint(w, nrows)
		writeString(w, "c")
		w.WriteByte(byte(typ))
		for _, v := range tail {
			writeUvarint(w, v)
		}
		w.Write(make([]byte, 16))
		w.Flush()
		return b.Bytes()
	}
	for _, tc := range []struct {
		name string
		in   []byte
	}{
		{"int rows", stream(1<<40, Int64)},
		{"float rows", stream(1<<40, Float64)},
		{"rows past MaxInt", stream(math.MaxUint64, Int64)},
		{"dictionary", stream(1, String, 1<<40)},
		{"codes", stream(1<<40, String, 1, 0)}, // dictionary {""}, then codes
	} {
		if _, err := ReadBinary(context.Background(), bytes.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	// Fractional floats so type inference recovers Float64 (integral floats
	// legitimately round-trip as Int64).
	tbl := MustNewTable("sales",
		NewIntColumn("id", []int64{1, 2, 3}),
		NewFloatColumn("amount", []float64{10.5, 20.25, 30.125}),
		NewStringColumn("region", []string{"west", "east", "west"}),
	)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(context.Background(), "sales", &buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, tbl, got)
}

func TestCSVTypeInference(t *testing.T) {
	in := "i,f,s\n1,1.5,hello\n2,2.5,world\n"
	tbl, err := ReadCSV(context.Background(), "t", strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := tbl.Schema()
	if s.Types[0] != Int64 || s.Types[1] != Float64 || s.Types[2] != String {
		t.Errorf("inferred types = %v", s.Types)
	}
}

func TestCSVEmptyFails(t *testing.T) {
	if _, err := ReadCSV(context.Background(), "t", strings.NewReader("")); err == nil {
		t.Error("empty CSV accepted")
	}
}

func TestCSVHeaderOnly(t *testing.T) {
	tbl, err := ReadCSV(context.Background(), "t", strings.NewReader("a,b\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 0 || tbl.NumCols() != 2 {
		t.Errorf("shape = %dx%d", tbl.NumRows(), tbl.NumCols())
	}
}

// bigIOTable spans many ioBatchRows batches so a pre-canceled context
// must be observed mid-load, not just at the end.
func bigIOTable(rows int) *Table {
	ints := make([]int64, rows)
	floats := make([]float64, rows)
	strs := make([]string, rows)
	for i := range ints {
		ints[i] = int64(i)
		floats[i] = float64(i) + 0.5
		strs[i] = [3]string{"red", "green", "blue"}[i%3]
	}
	return MustNewTable("big",
		NewIntColumn("i", ints),
		NewFloatColumn("f", floats),
		NewStringColumn("s", strs),
	)
}

func TestBinaryContextCanceled(t *testing.T) {
	tbl := bigIOTable(3 * ioBatchRows)
	var buf bytes.Buffer
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReadBinary(ctx, &buf); !errors.Is(err, context.Canceled) {
		t.Errorf("ReadBinaryContext with canceled ctx: err = %v, want context.Canceled", err)
	}

	// A background context must load the whole thing unchanged.
	buf.Reset()
	if err := tbl.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	assertTablesEqual(t, tbl, got)
}

func TestCSVContextCanceled(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("i,f\n")
	for i := 0; i < 3*ioBatchRows; i++ {
		fmt.Fprintf(&sb, "%d,%d.5\n", i, i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ReadCSV(ctx, "t", strings.NewReader(sb.String())); !errors.Is(err, context.Canceled) {
		t.Errorf("ReadCSVContext with canceled ctx: err = %v, want context.Canceled", err)
	}
	tbl, err := ReadCSV(context.Background(), "t", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3*ioBatchRows {
		t.Errorf("rows = %d, want %d", tbl.NumRows(), 3*ioBatchRows)
	}
}

func assertTablesEqual(t *testing.T, want, got *Table) {
	t.Helper()
	if got.Name != want.Name {
		t.Errorf("name %q != %q", got.Name, want.Name)
	}
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("shape %dx%d != %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for j, wc := range want.Columns {
		gc := got.Columns[j]
		if gc.Name != wc.Name || gc.Type != wc.Type {
			t.Fatalf("column %d schema mismatch", j)
		}
		for i := 0; i < want.NumRows(); i++ {
			if gc.StringAt(i) != wc.StringAt(i) {
				t.Errorf("col %q row %d: %q != %q", wc.Name, i, gc.StringAt(i), wc.StringAt(i))
			}
		}
	}
}
