package aqppp

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/dataset"
)

func TestQueryBootstrap(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(20000, 22)); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.05, CellBudget: 20, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	stmt := "SELECT SUM(v) FROM demo WHERE k BETWEEN 40 AND 350"
	closed, err := prep.Query(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := prep.QueryBootstrap(context.Background(), stmt, 200)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(boot.Value-closed.Value) > 1e-6*math.Abs(closed.Value)+1e-9 {
		t.Errorf("bootstrap point %v != closed %v", boot.Value, closed.Value)
	}
	if _, err := prep.QueryBootstrap(context.Background(), "SELECT AVG(v) FROM demo", 10); err == nil {
		t.Error("AVG accepted by QueryBootstrap")
	}
}

// TestBootstrapSumOfAnotherColumn is the CLI session
//
//	aqppp-cli -demo tpcd -rows 120000 -dims l_quantity,l_discount \
//	    -agg l_extendedprice -k 2000 -seed 7 -max-rel-error 2
//
// answering SUM(l_quantity), a column the cube does not aggregate, on
// the contract's bootstrap rung. The bootstrap used to anchor it on the
// SUM(l_extendedprice) cube and answered 359,563,951.80 ± 0 against a
// truth of 316,831.
func TestBootstrapSumOfAnotherColumn(t *testing.T) {
	ctx := context.Background()
	tbl, err := dataset.Load(ctx, "", "tpcd", 120000, 7)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(ctx, PrepareOptions{
		Table: "lineitem", Aggregate: "l_extendedprice", Dimensions: []string{"l_quantity", "l_discount"},
		SampleRate: 0.01, CellBudget: 2000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	stmt := "SELECT SUM(l_quantity) FROM lineitem WHERE l_quantity BETWEEN 44 AND 46"
	truth, err := db.Exact(ctx, stmt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.QueryWithContract(ctx, stmt, Contract{MaxRelError: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "bootstrap" {
		t.Fatalf("strategy %q, want the bootstrap rung the repro reached", res.Strategy)
	}
	boot, err := prep.QueryBootstrap(ctx, stmt, 200)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []Result{res.Result, boot} {
		if r.HalfWidth <= 0 || math.Abs(r.Value-truth.Value) > 0.25*truth.Value {
			t.Errorf("SUM(l_quantity) = %v ± %v, truth %v", r.Value, r.HalfWidth, truth.Value)
		}
	}
}

func TestPrepareWithMinMax(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(10000, 27)); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.1, CellBudget: 10, Seed: 28, WithMinMax: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	stmt := "SELECT MAX(v) FROM demo WHERE k BETWEEN 50 AND 300"
	truth, _ := db.Exact(context.Background(), stmt)
	res, err := prep.Query(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != truth.Value {
		t.Errorf("MAX = %v, want %v", res.Value, truth.Value)
	}
	if res.HalfWidth != 0 {
		t.Error("exact MAX has nonzero interval")
	}
}
