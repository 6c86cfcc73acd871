package aqppp

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/exec"
	"aqppp/internal/stats"
)

func shardOpts(n int) ShardOptions {
	return ShardOptions{Column: "k", Shards: n}
}

func TestRegisterShardedEndToEnd(t *testing.T) {
	tbl := demoTable(4000, 31)
	plain := NewDB()
	if err := plain.Register(tbl); err != nil {
		t.Fatal(err)
	}
	db := NewDB()
	if err := db.RegisterSharded(tbl, shardOpts(4)); err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterSharded(tbl, shardOpts(2)); err == nil {
		t.Error("duplicate sharded registration did not fail")
	}

	// Exact answers agree with the unsharded DB (float measure: up to
	// reassociation; COUNT: bit-exact).
	sumStmt := "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400"
	want, err := plain.Exact(context.Background(), sumStmt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Exact(context.Background(), sumStmt)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ApproxEqual(got.Value, want.Value, 1e-12) {
		t.Errorf("sharded SUM %v vs unsharded %v", got.Value, want.Value)
	}
	cntStmt := "SELECT COUNT(*) FROM demo WHERE k BETWEEN 10 AND 400"
	wantC, _ := plain.Exact(context.Background(), cntStmt)
	gotC, err := db.Exact(context.Background(), cntStmt)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ExactEqual(gotC.Value, wantC.Value) {
		t.Errorf("sharded COUNT %v != unsharded %v", gotC.Value, wantC.Value)
	}

	// Plans over the sharded table run on the layout. A name keeps its
	// layout for the life of the DB, so the cache key needs none: it is
	// the unsharded DB's key.
	p, err := db.PlanExact(sumStmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Target.(exec.Sharded); !ok {
		t.Fatalf("sharded plan runs on %T, want exec.Sharded", p.Target)
	}
	pp, err := plain.PlanExact(sumStmt)
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheKey() != pp.CacheKey() {
		t.Errorf("sharded cache key %q, unsharded %q", p.CacheKey(), pp.CacheKey())
	}

	// Approximate path: Prepare builds per-shard processors.
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 50, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prep.Processor() != nil || prep.Sample() != nil {
		t.Error("sharded preparation leaked a single-processor view")
	}
	if prep.ShardedProcessor() == nil {
		t.Fatal("sharded preparation has no per-shard state")
	}
	res, err := prep.Query(context.Background(), sumStmt)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Value-want.Value) / math.Abs(want.Value); rel > 0.1 {
		t.Errorf("approx answer off truth by %v", rel)
	}
	if res.HalfWidth <= 0 || res.Confidence != 0.95 {
		t.Errorf("approx interval = ±%v @ %v", res.HalfWidth, res.Confidence)
	}
	gres, err := prep.Query(context.Background(), "SELECT AVG(v) FROM demo GROUP BY tier")
	if err != nil {
		t.Fatal(err)
	}
	if len(gres.Groups) != 2 {
		t.Errorf("%d group answers, want 2", len(gres.Groups))
	}

	// Bootstrap path.
	bres, err := prep.QueryBootstrap(context.Background(), sumStmt, 100)
	if err != nil {
		t.Fatal(err)
	}
	if bres.HalfWidth <= 0 {
		t.Errorf("bootstrap half-width = %v", bres.HalfWidth)
	}

	// Stats aggregate across shards.
	st := prep.Stats()
	if st.SampleRows == 0 || st.CubeCells == 0 {
		t.Errorf("sharded stats = %+v", st)
	}

	// The observability surface sees the layout and the scans above.
	snaps := db.ShardSnapshots()
	if len(snaps) != 1 || snaps[0].Table != "demo" || len(snaps[0].Shards) != 4 {
		t.Fatalf("snapshots = %+v", snaps)
	}
	var scans uint64
	for _, sh := range snaps[0].Shards {
		scans += sh.Scans
	}
	if scans == 0 {
		t.Error("no shard scans recorded")
	}
	if db.Sharded("demo") == nil || db.Sharded("nope") != nil {
		t.Error("Sharded lookup wrong")
	}
}

// TestShardChurnRace registers fresh sharded tables against concurrent
// Prepare/Query/Exact callers on a fixed sharded table under -race: no
// data race and no failure, and the fixed table stays sharded.
func TestShardChurnRace(t *testing.T) {
	db := NewDB()
	if err := db.RegisterSharded(demoTable(800, 33), shardOpts(3)); err != nil {
		t.Fatal(err)
	}
	raceRegistry(t, db, 25, func(i int) error {
		tbl := demoTable(200, uint64(200+i))
		tbl.Name = raceName(i)
		return db.RegisterSharded(tbl, shardOpts(1+i%4))
	})
	if db.Sharded("demo") == nil || db.Sharded(raceName(0)) == nil {
		t.Error("table not sharded after the race")
	}
}
