package main

import (
	"context"
	"errors"
	"path/filepath"
	"testing"

	"aqppp"
	"aqppp/internal/dataset"
	"aqppp/internal/store"
)

// TestExitCode pins the taxonomy→exit-code contract scripts rely on:
// 2 means fix the statement, 3 means raise the budget or retry, 1 means
// something unexpected broke.
func TestExitCode(t *testing.T) {
	mk := func(k aqppp.ErrorKind) error {
		return &aqppp.Error{Kind: k, Op: "test", Err: errors.New("boom")}
	}
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{mk(aqppp.ErrParse), 2},
		{mk(aqppp.ErrUnsupported), 2},
		{mk(aqppp.ErrUnknownTable), 2},
		{mk(aqppp.ErrBudgetExceeded), 3},
		{mk(aqppp.ErrCanceled), 3},
		{mk(aqppp.ErrInternal), 1},
		{errors.New("untyped"), 1},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestLoadTableFromStore: -data serves the shell from a container the
// way aqppp-serve -data does — the table is backend-served, registered
// under its stored name, and scans to the resident table's answer — and
// it is exclusive with the resident sources.
func TestLoadTableFromStore(t *testing.T) {
	src := dataset.TPCDSkew(dataset.TPCDConfig{Rows: 10000, Seed: 3})
	path := filepath.Join(t.TempDir(), "lineitem.aqps")
	if err := store.Write(path, src, nil); err != nil {
		t.Fatal(err)
	}
	db := aqppp.NewDB()
	defer db.CloseStores()
	tbl, err := loadTable(db, path, "", "", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Backed() || tbl.Name != src.Name {
		t.Fatalf("loaded table %q backed=%v, want store-served %q", tbl.Name, tbl.Backed(), src.Name)
	}
	const stmt = "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity BETWEEN 10 AND 40"
	got, err := db.Exact(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	ref := aqppp.NewDB()
	if err := ref.Register(src); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Exact(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != want.Value {
		t.Errorf("-data answers %v, resident %v", got.Value, want.Value)
	}
	if _, err := loadTable(aqppp.NewDB(), path, "", "tpcd", 100, 1); err == nil {
		t.Error("-data together with -demo accepted")
	}
}
