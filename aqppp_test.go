package aqppp

import (
	"context"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

func demoTable(n int, seed uint64) *engine.Table {
	r := stats.NewRNG(seed)
	k := make([]int64, n)
	v := make([]float64, n)
	g := make([]string, n)
	for i := 0; i < n; i++ {
		k[i] = int64(r.Intn(500) + 1)
		v[i] = 50 + 0.2*float64(k[i]) + 8*r.NormFloat64()
		if i%5 == 0 {
			g[i] = "gold"
		} else {
			g[i] = "silver"
		}
	}
	return engine.MustNewTable("demo",
		engine.NewIntColumn("k", k),
		engine.NewFloatColumn("v", v),
		engine.NewStringColumn("tier", g),
	)
}

// TestRegisterAndDrop pins registration: a name registers once, and
// the registration is permanent (the DB has no Drop).
func TestRegisterAndDrop(t *testing.T) {
	db := NewDB()
	tbl := demoTable(100, 1)
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	if err := db.Register(tbl); err == nil {
		t.Error("duplicate registration accepted")
	}
	if _, err := db.Table("demo"); err != nil {
		t.Error(err)
	}
	names := db.TableNames()
	if len(names) != 1 || names[0] != "demo" {
		t.Errorf("TableNames = %v", names)
	}
	if _, err := db.Table("missing"); ErrorKindOf(err) != ErrUnknownTable {
		t.Errorf("unregistered table: err = %v, want kind %v", err, ErrUnknownTable)
	}
}

func TestExact(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(1000, 2)); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exact(context.Background(), "SELECT COUNT(*) FROM demo")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 1000 {
		t.Errorf("COUNT = %v", res.Value)
	}
	if _, err := db.Exact(context.Background(), "SELECT COUNT(*) FROM missing"); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := db.Exact(context.Background(), "garbage"); err == nil {
		t.Error("garbage SQL accepted")
	}
}

func TestPrepareAndQuery(t *testing.T) {
	db := NewDB()
	tbl := demoTable(30000, 3)
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.05, CellBudget: 25, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	stmt := "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 300"
	res, err := prep.Query(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := db.Exact(context.Background(), stmt)
	if rel := math.Abs(res.Value-truth.Value) / truth.Value; rel > 0.05 {
		t.Errorf("approximate answer off by %v", rel)
	}
	if res.Confidence != 0.95 {
		t.Errorf("confidence = %v", res.Confidence)
	}
	st := prep.Stats()
	if st.SampleRows != 1500 || st.CubeCells < 20 {
		t.Errorf("stats = %+v", st)
	}
	if prep.Sample() == nil || prep.Processor() == nil {
		t.Error("accessors returned nil")
	}
}

func TestQueryGroupBy(t *testing.T) {
	db := NewDB()
	tbl := demoTable(30000, 4)
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k", "tier"},
		SampleRate: 0.05, CellBudget: 60, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Query(context.Background(), "SELECT SUM(v) FROM demo WHERE k BETWEEN 1 AND 400 GROUP BY tier")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %+v", res.Groups)
	}
	truthRes, _ := db.Exact(context.Background(), "SELECT SUM(v) FROM demo WHERE k BETWEEN 1 AND 400 GROUP BY tier")
	truth := map[string]float64{}
	for _, g := range truthRes.Groups {
		truth[g.Key] = g.Value
	}
	for _, g := range res.Groups {
		want := truth[g.Key]
		if rel := math.Abs(g.Value-want) / want; rel > 0.1 {
			t.Errorf("group %q off by %v", g.Key, rel)
		}
	}
}

func TestQueryWrongTable(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(5000, 5)); err != nil {
		t.Fatal(err)
	}
	other := demoTable(100, 6)
	other.Name = "other" // second registered table
	if err := db.Register(other); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.1, CellBudget: 10, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Query(context.Background(), "SELECT SUM(v) FROM other"); err == nil {
		t.Error("cross-table query accepted")
	}
}

func TestPrepareValidation(t *testing.T) {
	db := NewDB()
	if _, err := db.Prepare(context.Background(), PrepareOptions{Table: "nope"}); err == nil {
		t.Error("missing table accepted")
	}
	if err := db.Register(demoTable(100, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare(context.Background(), PrepareOptions{Table: "demo", Aggregate: "nope", Dimensions: []string{"k"}}); err == nil {
		t.Error("bad aggregate accepted")
	}
}

func TestLoadCSV(t *testing.T) {
	db := NewDB()
	csv := "k,v\n1,10.5\n2,20.5\n3,30.5\n"
	tbl, err := db.LoadCSV(context.Background(), "csvt", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Errorf("rows = %d", tbl.NumRows())
	}
	res, err := db.Exact(context.Background(), "SELECT SUM(v) FROM csvt")
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != 61.5 {
		t.Errorf("SUM = %v", res.Value)
	}
}

func TestUsedPrecomputedFlag(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(30000, 9)); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.05, CellBudget: 20, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A wide query spanning many blocks should use the cube.
	res, err := prep.Query(context.Background(), "SELECT SUM(v) FROM demo WHERE k BETWEEN 20 AND 450")
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedPrecomputed {
		t.Error("wide query did not use precomputation")
	}
	if res.Pre == "" {
		t.Error("Pre description empty")
	}
}

func TestForeignKeyJoinEndToEnd(t *testing.T) {
	// Footnote 2: AQP++ over a star schema — denormalize the FK join,
	// then prepare a template mixing fact and dimension attributes.
	r := stats.NewRNG(40)
	const suppliers = 40
	sid := make([]int64, suppliers)
	rating := make([]int64, suppliers)
	for i := range sid {
		sid[i] = int64(i + 1)
		rating[i] = int64(r.Intn(5) + 1)
	}
	dim := engine.MustNewTable("supplier",
		engine.NewIntColumn("s_id", sid),
		engine.NewIntColumn("rating", rating),
	)
	n := 20000
	fk := make([]int64, n)
	amount := make([]float64, n)
	for i := 0; i < n; i++ {
		fk[i] = int64(r.Intn(suppliers) + 1)
		amount[i] = 20 + 4*r.NormFloat64()
	}
	fact := engine.MustNewTable("orders",
		engine.NewIntColumn("o_supp", fk),
		engine.NewFloatColumn("amount", amount),
	)
	joined, err := engine.HashJoinFK(fact, "o_supp", dim, "s_id")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	if err := db.Register(joined); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: joined.Name, Aggregate: "amount",
		Dimensions: []string{"o_supp", "supplier.rating"},
		SampleRate: 0.05, CellBudget: 50, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Func: engine.Sum, Col: "amount", Ranges: []engine.Range{
		{Col: "o_supp", Lo: 5, Hi: 35},
		{Col: "supplier.rating", Lo: 3, Hi: 5},
	}}
	truth, err := joined.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.QueryStruct(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Value-truth.Value) / truth.Value; rel > 0.1 {
		t.Errorf("star-schema answer off by %v", rel)
	}
	// Dotted identifiers also flow through SQL.
	stmt := "SELECT SUM(amount) FROM " + joined.Name +
		" WHERE o_supp BETWEEN 5 AND 35 AND supplier.rating BETWEEN 3 AND 5"
	sqlRes, err := prep.Query(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if sqlRes.Value != res.Value {
		t.Errorf("SQL path %v != struct path %v", sqlRes.Value, res.Value)
	}
}

// TestPublicSurface pins the exported method sets of the two root
// types, so an X / XContext / XWithBudget sibling cannot grow back
// unnoticed: every operation that reaches the executor or a reader
// exists once, takes ctx first, and gets its Budget from the DB default
// or from WithBudget(ctx, b). A new method means editing this list —
// and answering why an existing one could not take the new case.
func TestPublicSurface(t *testing.T) {
	golden := map[reflect.Type][]string{
		reflect.TypeOf(&DB{}): {
			// The operations.
			"Exact", "LoadCSV", "OpenStore", "Prepare", "RunExactPlan",
			// Planning and the default budget.
			"PlanExact", "SetDefaultBudget",
			// Registry, store and stats accessors.
			"CloseStores", "DistPrepared", "LookupTable", "LookupTarget",
			"Register", "RegisterDistributed", "RegisterSharded", "SaveStore",
			"ShardSnapshots", "Sharded", "StoreFor", "StoreSnapshots", "Table", "TableNames",
			// Deprecated one-line forward to Prepare: the frozen
			// benchmark/trace.go calls it; goes with a benchmark PR.
			"PrepareContext",
		},
		reflect.TypeOf(&Prepared{}): {
			// The operations.
			"Query", "QueryBootstrap", "QueryProgressive", "QueryStruct", "QueryWithContract",
			"RunContractPlan", "RunPlan",
			// Planning.
			"PlanBootstrap", "PlanContract", "PlanQuery",
			// Accessors.
			"Confidence", "Processor", "Sample", "ShardedProcessor", "Stats", "TableName",
			// Deprecated one-line forward to QueryProgressive: the frozen
			// benchmark/trace.go calls it; goes with a benchmark PR.
			"QueryProgressiveBudget",
		},
	}
	for typ, want := range golden {
		sort.Strings(want)
		got := make([]string, typ.NumMethod())
		for i := range got {
			got[i] = typ.Method(i).Name
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v exports\n  %v\nwant\n  %v", typ, got, want)
		}
	}
}
