package main

import (
	"context"
	"path/filepath"
	"testing"

	"aqppp/internal/dataset"
	"aqppp/internal/engine"
	"aqppp/internal/store"
)

// TestConvertReadsAQPT: -convert is the one reader left for the retired
// AQPT table format. testdata/legacy.tbl, written the way the old
// -format binary wrote it from the 500-row TPCD-Skew table at seed 3,
// converts to a container that answers like the source table; -format
// binary itself is now an unknown format.
func TestConvertReadsAQPT(t *testing.T) {
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: 500, Seed: 3})
	dir := t.TempDir()
	in, out := filepath.Join("testdata", "legacy.tbl"), filepath.Join(dir, "new.aqps")
	if code := runConvert([]string{in, out}); code != 0 {
		t.Fatalf("runConvert = %d, want 0", code)
	}
	s, err := store.Open(out, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	q := engine.Query{Func: engine.Sum, Col: "l_extendedprice",
		Ranges: []engine.Range{{Col: "l_quantity", Lo: 10, Hi: 40}}}
	want, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Table().Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value {
		t.Errorf("converted table answers %v, source %v", got.Value, want.Value)
	}

	if code := write(tbl, "binary", filepath.Join(dir, "x.tbl")); code != 2 {
		t.Errorf(`write(-format binary) = %d, want 2 (unknown format)`, code)
	}
	if code := write(tbl, "store", ""); code != 2 {
		t.Errorf(`write(-format store, no -out) = %d, want 2`, code)
	}
}
