package aqppp

import (
	"context"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

	// Plans over the sharded table carry the layout, and it folds into
	// the cache key; the unsharded DB's key stays layout-free.
	p, err := db.PlanExact(sumStmt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Target.(exec.Sharded); !ok {
		t.Fatalf("sharded plan runs on %T, want exec.Sharded", p.Target)
	}
	if !strings.Contains(p.CacheKey(), "shards=range:k:4") {
		t.Errorf("cache key %q does not carry the layout", p.CacheKey())
	}
	pp, err := plain.PlanExact(sumStmt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(pp.CacheKey(), "shards=") {
		t.Errorf("unsharded cache key %q mentions shards", pp.CacheKey())
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

func TestReshardInvalidates(t *testing.T) {
	tbl := demoTable(3000, 32)
	db := NewDB()
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	gen0 := db.Generation("demo")
	prep, err := db.Prepare(context.Background(), racePrepareOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Query(context.Background(), raceStmt); err != nil {
		t.Fatal(err)
	}

	// Reshard: generation bumps, the old preparation is poisoned, plans
	// switch to the new layout.
	if err := db.Reshard("demo", shardOpts(3)); err != nil {
		t.Fatal(err)
	}
	if g := db.Generation("demo"); g != gen0+1 {
		t.Errorf("generation after reshard = %d, want %d", g, gen0+1)
	}
	if _, err := prep.Query(context.Background(), raceStmt); ErrorKindOf(err) != ErrUnknownTable {
		t.Errorf("stale prep after reshard: %v", err)
	}
	p, err := db.PlanExact(raceStmt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.CacheKey(), "shards=range:k:3") {
		t.Errorf("post-reshard cache key %q", p.CacheKey())
	}

	// Re-reshard to a different count: key changes again, fresh preps
	// keep working.
	if err := db.Reshard("demo", shardOpts(5)); err != nil {
		t.Fatal(err)
	}
	p2, err := db.PlanExact(raceStmt)
	if err != nil {
		t.Fatal(err)
	}
	if p.CacheKey() == p2.CacheKey() {
		t.Error("cache key did not change across layouts")
	}
	fresh, err := db.Prepare(context.Background(), racePrepareOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Query(context.Background(), raceStmt); err != nil {
		t.Fatal(err)
	}

	// Drop clears the layout too.
	db.Drop("demo")
	if db.Sharded("demo") != nil {
		t.Error("layout survived Drop")
	}
	if err := db.Reshard("demo", shardOpts(2)); ErrorKindOf(err) != ErrUnknownTable {
		t.Errorf("reshard of dropped table: %v", err)
	}
}

// TestShardChurnRace churns RegisterSharded/Drop/Reshard against
// concurrent sharded queries and preparations under -race: layout
// changes must behave exactly like Drop-churn — no data race, and every
// failure is the duplicate-registration complaint or carries the
// unknown-table kind.
func TestShardChurnRace(t *testing.T) {
	db := NewDB()
	tbl := demoTable(800, 33)
	const rounds = 25

	var wg sync.WaitGroup
	var stop atomic.Bool
	okErr := func(op string, err error) {
		if err == nil {
			return
		}
		if strings.Contains(err.Error(), "already registered") {
			return
		}
		if k := ErrorKindOf(err); k != ErrUnknownTable {
			t.Errorf("%s: kind %v for %v; want unknown-table", op, k, err)
		}
	}

	// Churner: register sharded, flip the layout, drop, repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			okErr("register", db.RegisterSharded(tbl, shardOpts(2+i%3)))
			okErr("reshard", db.Reshard("demo", shardOpts(1+i%4)))
			time.Sleep(time.Millisecond)
			db.Drop("demo")
		}
		okErr("register", db.RegisterSharded(tbl, shardOpts(3)))
		stop.Store(true)
	}()

	// Preparers: build per-shard state and query it mid-churn.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				prep, err := db.Prepare(context.Background(), racePrepareOptions())
				if err != nil {
					okErr("prepare", err)
					continue
				}
				_, err = prep.Query(context.Background(), raceStmt)
				okErr("prepared query", err)
			}
		}()
	}

	// Exact scatter-gather scanners.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				_, err := db.Exact(context.Background(), raceStmt)
				okErr("exact", err)
			}
		}()
	}

	wg.Wait()

	// The registry comes out usable and still sharded.
	if db.Sharded("demo") == nil {
		t.Fatal("table not sharded after churn")
	}
	if _, err := db.Exact(context.Background(), raceStmt); err != nil {
		t.Fatalf("exact after churn: %v", err)
	}
	prep, err := db.Prepare(context.Background(), racePrepareOptions())
	if err != nil {
		t.Fatalf("prepare after churn: %v", err)
	}
	if _, err := prep.Query(context.Background(), raceStmt); err != nil {
		t.Fatalf("query after churn: %v", err)
	}
}
