package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
)

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
