package aqppp

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// TestStoreRestartExactAndApprox is the acceptance criterion end to end:
// SaveStore, a fresh DB, OpenStore, and every answer — exact and approx —
// must be identical with no rebuild. The approx CI is computed
// analytically from the persisted sample, so Value, HalfWidth, and
// Confidence are all bit-identical.
func TestStoreRestartExactAndApprox(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(30000, 21)); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.05, CellBudget: 25, Seed: 7, WithMinMax: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		"SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 300",
		"SELECT AVG(v) FROM demo WHERE k BETWEEN 120 AND 480",
		"SELECT COUNT(*) FROM demo WHERE k BETWEEN 10 AND 490",
		"SELECT MIN(v) FROM demo WHERE k BETWEEN 50 AND 300",
	}
	exactBefore := make([]engine.Result, len(stmts))
	approxBefore := make([]Result, len(stmts))
	for i, s := range stmts {
		if exactBefore[i], err = db.Exact(context.Background(), s); err != nil {
			t.Fatal(err)
		}
		if approxBefore[i], err = prep.Query(context.Background(), s); err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join(t.TempDir(), "demo.aqps")
	if err := db.SaveStore(path, "demo", NamedPrep{Name: "h", Prep: prep}); err != nil {
		t.Fatal(err)
	}

	// A fresh process: new DB, only the container.
	db2 := NewDB()
	defer db2.CloseStores()
	preps, err := db2.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(preps) != 1 || preps[0].Name != "h" {
		t.Fatalf("OpenStore preps = %+v, want one named %q", preps, "h")
	}
	s, ok := db2.StoreFor("demo")
	if !ok {
		t.Fatal("StoreFor lost the open store")
	}
	// No rebuild and no data reads: opening is metadata-only.
	if m := s.CacheStats().Misses; m != 0 {
		t.Fatalf("OpenStore faulted %d blocks; restart must not scan data", m)
	}

	for i, stmt := range stmts {
		got, err := db2.Exact(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if !reflect.DeepEqual(got, exactBefore[i]) {
			t.Errorf("%s: exact drifted across restart: %+v != %+v", stmt, got, exactBefore[i])
		}
		ga, err := preps[0].Prep.Query(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s (approx): %v", stmt, err)
		}
		w := approxBefore[i]
		if !stats.ExactEqual(ga.Value, w.Value) || !stats.ExactEqual(ga.HalfWidth, w.HalfWidth) ||
			ga.Confidence != w.Confidence || ga.UsedPrecomputed != w.UsedPrecomputed {
			t.Errorf("%s: approx drifted across restart:\n got %+v\nwant %+v", stmt, ga, w)
		}
	}

	st := preps[0].Prep.Stats()
	if st.SampleRows == 0 {
		t.Error("restored prep reports no sample rows")
	}
}

// TestStoreRestartRandomized fuzzes the persistence path: random tables,
// random range queries, exact answers bit-identical disk vs memory.
func TestStoreRestartRandomized(t *testing.T) {
	r := stats.NewRNG(77)
	for trial := 0; trial < 3; trial++ {
		db := NewDB()
		n := 5000 + r.Intn(20000)
		if err := db.Register(demoTable(n, r.Uint64())); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "f.aqps")
		if err := db.SaveStore(path, "demo"); err != nil {
			t.Fatal(err)
		}
		db2 := NewDB()
		preps, err := db2.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(preps) != 0 {
			t.Fatalf("prep-free container returned %d preps", len(preps))
		}
		for q := 0; q < 10; q++ {
			lo := r.Intn(400)
			hi := lo + 1 + r.Intn(500-lo)
			for _, tmpl := range []string{
				"SELECT SUM(v) FROM demo WHERE k BETWEEN %d AND %d",
				"SELECT COUNT(*) FROM demo WHERE k BETWEEN %d AND %d",
				"SELECT AVG(v) FROM demo WHERE k BETWEEN %d AND %d",
			} {
				stmt := fmt.Sprintf(tmpl, lo, hi)
				want, err := db.Exact(context.Background(), stmt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := db2.Exact(context.Background(), stmt)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("trial %d %s: disk %+v != memory %+v", trial, stmt, got, want)
				}
			}
		}
		if err := db2.CloseStores(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveStoreValidation pins the refusal surface: unknown tables,
// preps over the wrong table, and store-backed tables are all rejected
// with exec-typed errors.
func TestSaveStoreValidation(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(5000, 31)); err != nil {
		t.Fatal(err)
	}
	other := demoTable(1000, 32)
	other.Name = "other"
	if err := db.Register(other); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.1, CellBudget: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := db.SaveStore(filepath.Join(dir, "x.aqps"), "missing"); err == nil {
		t.Error("unknown table accepted")
	}
	err = db.SaveStore(filepath.Join(dir, "x.aqps"), "other", NamedPrep{Prep: prep})
	if err == nil || !strings.Contains(err.Error(), "not") {
		t.Errorf("cross-table prep: %v, want table-mismatch error", err)
	}
	// A table served from a store cannot be re-saved.
	path := filepath.Join(dir, "demo.aqps")
	if err := db.SaveStore(path, "demo", NamedPrep{Name: "h", Prep: prep}); err != nil {
		t.Fatal(err)
	}
	db2 := NewDB()
	defer db2.CloseStores()
	if _, err := db2.OpenStore(path); err != nil {
		t.Fatal(err)
	}
	if err := db2.SaveStore(filepath.Join(dir, "again.aqps"), "demo"); err == nil {
		t.Error("re-saving a store-backed table accepted")
	}
}

// TestStoreDropAndSnapshots pins the registry wiring: StoreSnapshots
// reports sorted per-table state, and CloseStores closes and forgets
// every store.
func TestStoreDropAndSnapshots(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"beta", "alpha"} {
		db := NewDB()
		tbl := demoTable(3000, 41)
		tbl.Name = name
		if err := db.Register(tbl); err != nil {
			t.Fatal(err)
		}
		if err := db.SaveStore(filepath.Join(dir, name+".aqps"), name); err != nil {
			t.Fatal(err)
		}
	}
	db := NewDB()
	for _, name := range []string{"beta", "alpha"} {
		if _, err := db.OpenStore(filepath.Join(dir, name+".aqps")); err != nil {
			t.Fatal(err)
		}
	}
	snaps := db.StoreSnapshots()
	if len(snaps) != 2 || snaps[0].Table != "alpha" || snaps[1].Table != "beta" {
		t.Fatalf("StoreSnapshots = %+v, want alpha then beta", snaps)
	}
	if snaps[0].Rows != 3000 || snaps[0].FileBytes == 0 {
		t.Errorf("snapshot content = %+v", snaps[0])
	}
	if err := db.CloseStores(); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.StoreFor("alpha"); ok {
		t.Error("CloseStores left a store registered")
	}
	if got := db.StoreSnapshots(); len(got) != 0 {
		t.Errorf("after CloseStores: %+v", got)
	}
}
