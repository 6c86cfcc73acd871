// Package dist_test drives the distributed subsystem end to end over
// real loopback listeners: replica servers built from table slices, a
// coordinator dialed against them, and the in-process sharded path as
// the equivalence oracle. It lives outside package dist so it can
// import internal/server (which imports dist).
package dist_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"aqppp"
	"aqppp/internal/dist"
	"aqppp/internal/engine"
	"aqppp/internal/server"
	"aqppp/internal/shard"
	"aqppp/internal/stats"
)

const (
	fleetRows   = 4000
	fleetSeed   = 11
	fleetBudget = 60
	fleetRate   = 0.2
	fleetHandle = "h"
)

// fleetTable mirrors the root demo fixture: an integer key, a
// correlated float measure, and a low-cardinality tier.
func fleetTable(n int, seed uint64) *engine.Table {
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

// startServer runs srv on a loopback listener and returns its base URL.
func startServer(t *testing.T, srv *server.Server) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return "http://" + l.Addr().String()
}

// startReplica slices shard index out of tbl, prepares the slice with
// the per-shard derived seed and split budget (exactly what the
// in-process sharded Prepare does per stratum), and serves it as a
// replica.
func startReplica(t *testing.T, tbl *engine.Table, layout shard.Layout, index int) (string, *server.Server) {
	t.Helper()
	slice, identity, err := dist.SliceTable(tbl, layout, index)
	if err != nil {
		t.Fatal(err)
	}
	db := aqppp.NewDB()
	if err := db.Register(slice); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: slice.Name, Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: fleetRate,
		CellBudget: shard.SplitBudget(fleetBudget, layout.N),
		Seed:       shard.DeriveSeed(fleetSeed, index),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{
		Replica: &server.ReplicaRole{Table: slice.Name, Ident: identity},
	})
	if err := srv.RegisterPrepared(fleetHandle, prep); err != nil {
		t.Fatal(err)
	}
	return startServer(t, srv), srv
}

// startFleet builds an n-replica fleet over tbl and dials it.
func startFleet(t *testing.T, tbl *engine.Table, n int, cfg dist.Config) (*dist.Coordinator, []*server.Server) {
	t.Helper()
	layout := shard.Layout{Strategy: shard.ByRange, Column: "k", N: n}
	urls := make([]string, n)
	srvs := make([]*server.Server, n)
	for i := 0; i < n; i++ {
		urls[i], srvs[i] = startReplica(t, tbl, layout, i)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	coord, err := dist.Dial(ctx, urls, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord, srvs
}

// coordDB registers the fleet behind a DB and resolves its shared
// prepared handle.
func coordDB(t *testing.T, coord *dist.Coordinator) (*aqppp.DB, *aqppp.Prepared) {
	t.Helper()
	db := aqppp.NewDB()
	if err := db.RegisterDistributed(coord.SchemaTable(), coord); err != nil {
		t.Fatal(err)
	}
	hs := coord.Handles()
	if len(hs) != 1 || hs[0].Name != fleetHandle {
		t.Fatalf("fleet handles = %+v, want exactly %q", hs, fleetHandle)
	}
	prep, err := db.DistPrepared(coord.Table(), hs[0].Name, hs[0].Confidence, hs[0].SampleRows)
	if err != nil {
		t.Fatal(err)
	}
	return db, prep
}

// oracle builds the in-process sharded DB the distributed answers must
// match.
func oracle(t *testing.T, tbl *engine.Table, n int) (*aqppp.DB, *aqppp.Prepared) {
	t.Helper()
	db := aqppp.NewDB()
	if err := db.RegisterSharded(tbl, aqppp.ShardOptions{Column: "k", Shards: n}); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: tbl.Name, Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: fleetRate, CellBudget: fleetBudget, Seed: fleetSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, prep
}

// TestDistEquivalence is the randomized acceptance suite: every answer
// the coordinator produces over the network must match the in-process
// sharded oracle — exact answers bit-identically for integer
// aggregates and to 1e-12 for float ones, approximate answers
// CI-identically (value, half-width, and confidence all agree).
func TestDistEquivalence(t *testing.T) {
	tbl := fleetTable(fleetRows, 7)
	coord, _ := startFleet(t, tbl, 2, dist.Config{Timeout: 10 * time.Second})
	ddb, dprep := coordDB(t, coord)
	odb, oprep := oracle(t, tbl, 2)

	r := stats.NewRNG(99)
	aggs := []string{"SUM(v)", "COUNT(*)", "AVG(v)", "MIN(v)", "MAX(v)"}
	for i := 0; i < 24; i++ {
		lo := r.Intn(480) + 1
		hi := lo + r.Intn(500-lo) + 1
		agg := aggs[r.Intn(len(aggs))]
		stmt := fmt.Sprintf("SELECT %s FROM demo WHERE k BETWEEN %d AND %d", agg, lo, hi)
		want, err := odb.Exact(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: oracle: %v", stmt, err)
		}
		got, err := ddb.Exact(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: distributed: %v", stmt, err)
		}
		if strings.HasPrefix(agg, "COUNT") {
			if !stats.ExactEqual(got.Value, want.Value) {
				t.Errorf("%s: distributed %v != oracle %v", stmt, got.Value, want.Value)
			}
		} else if !stats.ApproxEqual(got.Value, want.Value, 1e-12) {
			t.Errorf("%s: distributed %v vs oracle %v", stmt, got.Value, want.Value)
		}
	}

	// Approximate scalars through the shared handle.
	approxAggs := []string{"SUM(v)", "COUNT(*)", "AVG(v)"}
	for i := 0; i < 24; i++ {
		lo := r.Intn(480) + 1
		hi := lo + r.Intn(500-lo) + 1
		agg := approxAggs[r.Intn(len(approxAggs))]
		stmt := fmt.Sprintf("SELECT %s FROM demo WHERE k BETWEEN %d AND %d", agg, lo, hi)
		want, err := oprep.Query(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: oracle approx: %v", stmt, err)
		}
		got, err := dprep.Query(context.Background(), stmt)
		if err != nil {
			t.Fatalf("%s: distributed approx: %v", stmt, err)
		}
		if !stats.ApproxEqual(got.Value, want.Value, 1e-12) ||
			!stats.ApproxEqual(got.HalfWidth, want.HalfWidth, 1e-12) {
			t.Errorf("%s: distributed (%v ± %v) vs oracle (%v ± %v)",
				stmt, got.Value, got.HalfWidth, want.Value, want.HalfWidth)
		}
		if math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
			t.Errorf("%s: confidence %v != %v", stmt, got.Confidence, want.Confidence)
		}
		if got.Partial {
			t.Errorf("%s: healthy fleet answered partial", stmt)
		}
	}

	// Exact and approximate GROUP BY.
	gstmt := "SELECT SUM(v) FROM demo WHERE k BETWEEN 20 AND 470 GROUP BY tier"
	wantG, err := odb.Exact(context.Background(), gstmt)
	if err != nil {
		t.Fatal(err)
	}
	gotG, err := ddb.Exact(context.Background(), gstmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotG.Groups) != len(wantG.Groups) {
		t.Fatalf("exact groups: %d vs %d", len(gotG.Groups), len(wantG.Groups))
	}
	for i := range wantG.Groups {
		if gotG.Groups[i].Key != wantG.Groups[i].Key ||
			!stats.ApproxEqual(gotG.Groups[i].Value, wantG.Groups[i].Value, 1e-12) {
			t.Errorf("exact group %d: %+v vs %+v", i, gotG.Groups[i], wantG.Groups[i])
		}
	}
	wantAG, err := oprep.Query(context.Background(), gstmt)
	if err != nil {
		t.Fatal(err)
	}
	gotAG, err := dprep.Query(context.Background(), gstmt)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotAG.Groups) != len(wantAG.Groups) {
		t.Fatalf("approx groups: %d vs %d", len(gotAG.Groups), len(wantAG.Groups))
	}
	for i := range wantAG.Groups {
		w, g := wantAG.Groups[i], gotAG.Groups[i]
		if g.Key != w.Key || !stats.ApproxEqual(g.Value, w.Value, 1e-12) ||
			!stats.ApproxEqual(g.HalfWidth, w.HalfWidth, 1e-12) {
			t.Errorf("approx group %d: %+v vs %+v", i, g, w)
		}
	}

	// Bootstrap intervals: per-replica streams seeded exactly like the
	// in-process per-shard streams, so the merged CI matches.
	bstmt := "SELECT SUM(v) FROM demo WHERE k BETWEEN 40 AND 460"
	wantB, err := oprep.QueryBootstrap(context.Background(), bstmt, 200)
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := dprep.QueryBootstrap(context.Background(), bstmt, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ApproxEqual(gotB.Value, wantB.Value, 1e-12) ||
		!stats.ApproxEqual(gotB.HalfWidth, wantB.HalfWidth, 1e-12) {
		t.Errorf("bootstrap: distributed (%v ± %v) vs oracle (%v ± %v)",
			gotB.Value, gotB.HalfWidth, wantB.Value, wantB.HalfWidth)
	}
}

// TestDistReplicaLossFailsClosed kills one replica mid-stream: exact
// and approximate queries needing its stratum must fail with the typed
// Unavailable kind, never a silent wrong answer.
func TestDistReplicaLossFailsClosed(t *testing.T) {
	tbl := fleetTable(fleetRows, 7)
	coord, srvs := startFleet(t, tbl, 2, dist.Config{Timeout: 2 * time.Second, Retries: 1, Backoff: 10 * time.Millisecond})
	ddb, dprep := coordDB(t, coord)

	stmt := "SELECT SUM(v) FROM demo" // full range: no shard can be pruned
	if _, err := ddb.Exact(context.Background(), stmt); err != nil {
		t.Fatalf("healthy fleet: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvs[1].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	if _, err := ddb.Exact(context.Background(), stmt); aqppp.ErrorKindOf(err) != aqppp.ErrUnavailable {
		t.Fatalf("exact after replica loss: err = %v, want kind %v", err, aqppp.ErrUnavailable)
	}
	if _, err := dprep.Query(context.Background(), stmt); aqppp.ErrorKindOf(err) != aqppp.ErrUnavailable {
		t.Fatalf("approx after replica loss: err = %v, want kind %v", err, aqppp.ErrUnavailable)
	}
}

// TestDistDegradedApprox opts in to the degraded policy: after a
// replica is lost, approximate queries answer from the surviving
// stratum with a widened interval and Partial set, while exact queries
// still fail closed.
func TestDistDegradedApprox(t *testing.T) {
	tbl := fleetTable(fleetRows, 7)
	coord, srvs := startFleet(t, tbl, 2, dist.Config{
		Timeout: 2 * time.Second, Retries: 0, DegradedApprox: true,
	})
	ddb, dprep := coordDB(t, coord)

	stmt := "SELECT SUM(v) FROM demo"
	healthy, err := dprep.Query(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if healthy.Partial {
		t.Fatal("healthy fleet answered partial")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvs[0].Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	deg, err := dprep.Query(context.Background(), stmt)
	if err != nil {
		t.Fatalf("degraded query failed: %v", err)
	}
	if !deg.Partial {
		t.Error("degraded answer is not marked Partial")
	}
	if deg.HalfWidth <= healthy.HalfWidth {
		t.Errorf("degraded half-width %v not wider than healthy %v", deg.HalfWidth, healthy.HalfWidth)
	}
	// The extrapolated value stays in the right ballpark (the survivors
	// scale up by the lost row mass).
	if deg.Value <= 0 || math.Abs(deg.Value-healthy.Value) > 0.5*math.Abs(healthy.Value) {
		t.Errorf("degraded value %v too far from healthy %v", deg.Value, healthy.Value)
	}
	// Exact never degrades.
	if _, err := ddb.Exact(context.Background(), stmt); aqppp.ErrorKindOf(err) != aqppp.ErrUnavailable {
		t.Fatalf("exact under degraded policy: err = %v, want kind %v", err, aqppp.ErrUnavailable)
	}
	if coord.Snapshot().Degraded == 0 {
		t.Error("degraded counter did not advance")
	}
}

// TestDistributedTableHasOneTarget is the regression test for a silent
// wrong answer: a name registered with RegisterDistributed resolves to
// a zero-row schema table, so Reshard used to partition nothing, stack
// a shard layout on top of the fleet (cache key "…|shards=…|dist=…"),
// and let Prepare build per-shard processors over no rows that answered
// every query 0 ± 0 with no error. A name has exactly one target:
// building anything over a distributed table is ErrUnsupported, and
// the fleet keeps answering.
func TestDistributedTableHasOneTarget(t *testing.T) {
	tbl := fleetTable(fleetRows, 7)
	coord, _ := startFleet(t, tbl, 2, dist.Config{Timeout: 10 * time.Second})
	db, prep := coordDB(t, coord)
	const stmt = "SELECT SUM(v) FROM demo WHERE k BETWEEN 20 AND 470"

	if err := db.Reshard("demo", aqppp.ShardOptions{Column: "k", Shards: 2}); aqppp.ErrorKindOf(err) != aqppp.ErrUnsupported {
		t.Errorf("Reshard over a distributed table: err = %v, want kind %v", err, aqppp.ErrUnsupported)
	}
	_, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: fleetRate, CellBudget: fleetBudget, Seed: fleetSeed,
	})
	if aqppp.ErrorKindOf(err) != aqppp.ErrUnsupported {
		t.Errorf("Prepare over a distributed table: err = %v, want kind %v", err, aqppp.ErrUnsupported)
	}

	p, err := db.PlanExact(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if key := p.CacheKey(); strings.Contains(key, "shards=") || !strings.Contains(key, "dist=") {
		t.Errorf("cache key %q: want the fleet's signature and no shard layout", key)
	}
	want, err := tbl.Execute(context.Background(), p.Query)
	if err != nil {
		t.Fatal(err)
	}
	got, err := db.Exact(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ApproxEqual(got.Value, want.Value, 1e-12) {
		t.Errorf("exact over the fleet = %v, want %v", got.Value, want.Value)
	}
	// The refused Reshard invalidated nothing: the handle still answers,
	// with the truth inside a non-degenerate interval.
	res, err := prep.Query(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if res.HalfWidth == 0 || math.Abs(res.Value-want.Value) > 3*res.HalfWidth {
		t.Errorf("approx over the fleet = %v ± %v, truth %v", res.Value, res.HalfWidth, want.Value)
	}
	// The struct path plans on the same target as the SQL path.
	sres, err := prep.QueryStruct(context.Background(), p.Query)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Value != res.Value || sres.HalfWidth != res.HalfWidth {
		t.Errorf("QueryStruct = %v ± %v, Query = %v ± %v", sres.Value, sres.HalfWidth, res.Value, res.HalfWidth)
	}
}

// fakeReplica serves a valid single-shard handshake but answers
// /v1/partial with the given handler — the knob for failure-injection
// tests.
func fakeReplica(t *testing.T, tbl *engine.Table, partial http.HandlerFunc) *httptest.Server {
	t.Helper()
	layout := shard.Layout{Strategy: shard.ByRange, Column: "k", N: 1}
	slice, identity, err := dist.SliceTable(tbl, layout, 0)
	if err != nil {
		t.Fatal(err)
	}
	hello := dist.HelloFor(slice, identity, []dist.HandleInfo{
		{Name: fleetHandle, Confidence: 0.95, SampleRows: 100},
	})
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shard", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(hello)
	})
	mux.HandleFunc("POST /v1/partial", partial)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func dialOne(t *testing.T, url string, cfg dist.Config) *dist.Coordinator {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	coord, err := dist.Dial(ctx, []string{url}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return coord
}

// TestDistRetryHonorsDeadline checks the coordinator never burns
// budget the caller cannot use: against a replica that always fails,
// a 150ms deadline must cut a 10-retry policy short — the loop stops
// as soon as the next backoff cannot finish in time, and the error is
// the typed Unavailable, not a context blowout discovered late.
func TestDistRetryHonorsDeadline(t *testing.T) {
	tbl := fleetTable(400, 7)
	var attempts atomic.Int64
	ts := fakeReplica(t, tbl, func(w http.ResponseWriter, _ *http.Request) {
		attempts.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, `{"error":{"kind":"internal","message":"boom"}}`)
	})
	coord := dialOne(t, ts.URL, dist.Config{Retries: 10, Backoff: 60 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := coord.Target("").Exact(ctx, engine.Query{Func: engine.Count})
	elapsed := time.Since(start)
	if kind := aqppp.ErrorKindOf(err); kind != aqppp.ErrUnavailable {
		t.Fatalf("err = %v (kind %v), want kind %v", err, kind, aqppp.ErrUnavailable)
	}
	if got := attempts.Load(); got < 1 || got > 3 {
		t.Errorf("replica saw %d attempts; the deadline should cap a 10-retry policy at <= 3", got)
	}
	if elapsed > 400*time.Millisecond {
		t.Errorf("fan-out took %v, should abandon well inside the caller's deadline neighborhood", elapsed)
	}
}

// TestDistRetryAfterPropagation is the 429 contract end to end: a
// replica sheds with Retry-After, and the coordinator's own client
// response must carry the hint (header and retry_after_ms) under kind
// "unavailable"/503 — not flatten it into a bare 500. A shed is also
// never retried.
func TestDistRetryAfterPropagation(t *testing.T) {
	tbl := fleetTable(400, 7)
	var attempts atomic.Int64
	ts := fakeReplica(t, tbl, func(w http.ResponseWriter, _ *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "2")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = io.WriteString(w, `{"error":{"kind":"quota-exceeded","message":"client is hot","retry_after_ms":1500}}`)
	})
	coord := dialOne(t, ts.URL, dist.Config{Retries: 3, Backoff: 5 * time.Millisecond})
	ddb, dprep := coordDB(t, coord)

	srv := server.New(ddb, server.Config{Coordinator: coord})
	if err := srv.RegisterPrepared(fleetHandle, dprep); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"sql":"SELECT COUNT(*) FROM demo"}`))
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)

	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q", got, "2")
	}
	var body struct {
		Error struct {
			Kind         string `json:"kind"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		} `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Error.Kind != "unavailable" {
		t.Errorf("kind = %q, want %q", body.Error.Kind, "unavailable")
	}
	if body.Error.RetryAfterMS != 1500 {
		t.Errorf("retry_after_ms = %d, want 1500", body.Error.RetryAfterMS)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("replica saw %d attempts; a shed must not be retried", got)
	}
}

// TestDistRefusesMisshapenPartials: a replica whose 200 response does
// not answer the request it was sent (another mode or shard, a scalar
// exact partial with no scalar, a GROUP BY exact partial carrying one,
// an exact partial over a negative row count, a GROUP BY partial naming
// one key twice) fails the query with kind Internal; no merged number
// comes back.
func TestDistRefusesMisshapenPartials(t *testing.T) {
	tbl := fleetTable(400, 7)
	scalar := &dist.WirePartial{N: 5, SumBits: math.Float64bits(250)}
	negative := &dist.WirePartial{N: -5, SumBits: math.Float64bits(250)}
	answer := dist.WireAnswer{ValueBits: math.Float64bits(250), Confidence: 0.95, SampleRows: 5, PrePhi: true}
	scalarQ := engine.Query{Func: engine.Count}
	groupQ := engine.Query{Func: engine.Sum, Col: "v", GroupBy: []string{"tier"}}
	for _, tc := range []struct {
		name   string
		q      engine.Query
		approx bool // ask for approximate groups instead of an exact answer
		lie    func(*dist.PartialResponse)
	}{
		{"wrong mode", scalarQ, false, func(pr *dist.PartialResponse) { pr.Mode, pr.Scalar = dist.ModeApprox, scalar }},
		{"wrong shard", scalarQ, false, func(pr *dist.PartialResponse) { pr.Shard, pr.Scalar = 1, scalar }},
		{"scalar without scalar", scalarQ, false, func(*dist.PartialResponse) {}},
		{"group by with scalar", groupQ, false, func(pr *dist.PartialResponse) {
			pr.Scalar = scalar
			pr.Groups = []dist.WireGroupPartial{{Key: "gold", Partial: *scalar}}
		}},
		{"negative scalar rows", scalarQ, false, func(pr *dist.PartialResponse) { pr.Scalar = negative }},
		{"negative group rows", groupQ, false, func(pr *dist.PartialResponse) {
			pr.Groups = []dist.WireGroupPartial{{Key: "gold", Partial: *scalar}, {Key: "silver", Partial: *negative}}
		}},
		{"repeated group key", groupQ, false, func(pr *dist.PartialResponse) {
			pr.Groups = []dist.WireGroupPartial{{Key: "gold", Partial: *scalar}, {Key: "gold", Partial: *scalar}}
		}},
		{"repeated answer group key", groupQ, true, func(pr *dist.PartialResponse) {
			pr.AnswerGroups = []dist.WireGroupAnswer{{Key: "gold", Answer: answer}, {Key: "gold", Answer: answer}}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := fakeReplica(t, tbl, func(w http.ResponseWriter, r *http.Request) {
				var preq dist.PartialRequest
				if err := json.NewDecoder(r.Body).Decode(&preq); err != nil {
					t.Error(err)
				}
				pr := dist.PartialResponse{V: dist.WireVersion, Shard: 0, Mode: preq.Mode}
				tc.lie(&pr)
				w.Header().Set("Content-Type", "application/json")
				_ = json.NewEncoder(w).Encode(pr)
			})
			coord := dialOne(t, ts.URL, dist.Config{Retries: 2, Backoff: time.Millisecond})
			var err error
			var returned bool
			if tc.approx {
				groups, _, gerr := coord.Target(fleetHandle).ApproxGroups(context.Background(), tc.q)
				err, returned = gerr, len(groups) != 0
			} else {
				res, eerr := coord.Target("").Exact(context.Background(), tc.q)
				err, returned = eerr, res.Value != 0 || len(res.Groups) != 0
			}
			if err == nil || aqppp.ErrorKindOf(err) != aqppp.ErrInternal {
				t.Fatalf("err = %v (kind %v), want kind %v", err, aqppp.ErrorKindOf(err), aqppp.ErrInternal)
			}
			if returned {
				t.Error("refused partial still returned an answer")
			}
		})
	}
}

// TestDistRequestIDPropagates follows one id across processes: the id
// the coordinator's server minted for the client's request arrives as
// X-Request-Id on every partial it causes — first attempt, hedge and
// retry alike.
func TestDistRequestIDPropagates(t *testing.T) {
	tbl := fleetTable(400, 7)
	var mu sync.Mutex
	var seen []string
	ts := fakeReplica(t, tbl, func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get("X-Request-Id"))
		mu.Unlock()
		time.Sleep(50 * time.Millisecond) // long enough for the hedge to launch
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, `{"error":{"kind":"internal","message":"boom"}}`)
	})
	coord := dialOne(t, ts.URL, dist.Config{Retries: 1, Backoff: time.Millisecond, Hedge: 2 * time.Millisecond})
	ddb, _ := coordDB(t, coord)

	srv := server.New(ddb, server.Config{Coordinator: coord})
	req := httptest.NewRequest(http.MethodPost, "/v1/query",
		strings.NewReader(`{"sql":"SELECT COUNT(*) FROM demo"}`))
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (body %s)", w.Code, w.Body.String())
	}
	id := w.Header().Get("X-Request-Id")
	if id == "" {
		t.Fatal("coordinator response carries no X-Request-Id")
	}
	rp := coord.Snapshot().Replicas[0]
	if rp.Retries < 1 || rp.Hedges < 1 {
		t.Fatalf("replica saw %d retries and %d hedges; the test needs both", rp.Retries, rp.Hedges)
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(len(seen)) != rp.Requests || len(seen) < 3 {
		t.Errorf("replica handled %d partials, coordinator counted %d attempts (want >= 3)", len(seen), rp.Requests)
	}
	for i, got := range seen {
		if got != id {
			t.Errorf("partial %d carried X-Request-Id %q, want the coordinator request's %q", i, got, id)
		}
	}
}

// TestDistStatuszAndMetrics checks the coordinator's observability
// surface: /statusz renders the fleet topology and /metrics the
// per-replica counter families.
func TestDistStatuszAndMetrics(t *testing.T) {
	tbl := fleetTable(fleetRows, 7)
	coord, _ := startFleet(t, tbl, 2, dist.Config{Timeout: 10 * time.Second})
	ddb, dprep := coordDB(t, coord)
	if _, err := dprep.Query(context.Background(), "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 490"); err != nil {
		t.Fatal(err)
	}

	srv := server.New(ddb, server.Config{Coordinator: coord})
	url := startServer(t, srv)
	get := func(path string) string {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = resp.Body.Close() }()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(data)
	}

	statusz := get("/statusz")
	var sz struct {
		Dist *dist.Snapshot `json:"dist"`
	}
	if err := json.Unmarshal([]byte(statusz), &sz); err != nil {
		t.Fatal(err)
	}
	if sz.Dist == nil {
		t.Fatal("/statusz has no dist section")
	}
	if sz.Dist.TopoGen == 0 || len(sz.Dist.Replicas) != 2 {
		t.Errorf("dist snapshot: topo gen %d, %d replicas", sz.Dist.TopoGen, len(sz.Dist.Replicas))
	}
	for _, rp := range sz.Dist.Replicas {
		if !rp.Healthy {
			t.Errorf("replica %d unhealthy in statusz", rp.Index)
		}
	}
	if sz.Dist.Replicas[0].Requests == 0 && sz.Dist.Replicas[1].Requests == 0 {
		t.Error("no replica recorded any request")
	}

	metrics := get("/metrics")
	for _, family := range []string{
		"aqppp_dist_topology_generation",
		"aqppp_replica_requests_total",
		"aqppp_replica_healthy",
		"aqppp_replica_request_duration_seconds_bucket",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestDistQuotaLease drives the token-lease protocol against a real
// authority: leases batch, cached tokens serve without round trips,
// exhaustion denies with a retry hint, and a dead authority fails
// open.
func TestDistQuotaLease(t *testing.T) {
	adb := aqppp.NewDB()
	if err := adb.Register(fleetTable(100, 7)); err != nil {
		t.Fatal(err)
	}
	authority := server.New(adb, server.Config{QuotaRate: 1, QuotaBurst: 3})
	url := startServer(t, authority)

	ql := dist.NewQuotaLease(url, 2, nil)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		ok, _, failedOpen := ql.Allow(ctx, "client-a")
		if !ok || failedOpen {
			t.Fatalf("allow %d: ok=%v failedOpen=%v", i, ok, failedOpen)
		}
	}
	ok, retryAfter, failedOpen := ql.Allow(ctx, "client-a")
	if ok || failedOpen {
		t.Fatalf("over-quota allow: ok=%v failedOpen=%v", ok, failedOpen)
	}
	if retryAfter <= 0 {
		t.Error("denial carried no retry hint")
	}
	snap := ql.Snapshot()
	if snap.LeaseCalls < 2 {
		t.Errorf("lease calls = %d, want >= 2 (3 tokens in batches of 2)", snap.LeaseCalls)
	}
	if snap.Denied == 0 {
		t.Error("denied counter did not advance")
	}

	// A second client has its own bucket.
	if ok, _, _ := ql.Allow(ctx, "client-b"); !ok {
		t.Error("client-b denied by client-a's exhaustion")
	}

	// Authority unreachable: quota is load protection, not correctness —
	// the replica fails open rather than turning an authority outage
	// into a fleet-wide denial of service.
	dead := dist.NewQuotaLease("http://127.0.0.1:1", 2, &http.Client{Timeout: time.Second})
	ok, _, failedOpen = dead.Allow(ctx, "client-a")
	if !ok || !failedOpen {
		t.Errorf("dead authority: ok=%v failedOpen=%v, want fail-open", ok, failedOpen)
	}
	if dead.Snapshot().FailOpen == 0 {
		t.Error("fail-open counter did not advance")
	}
}

// closeCounter is a transport that counts response bodies handed out
// and Close calls received. next produces the response (nil delegates
// to the default transport, so real servers can sit behind it).
type closeCounter struct {
	next           func(*http.Request) (*http.Response, error)
	bodies, closes atomic.Int64
}

type countedBody struct {
	io.ReadCloser
	closes *atomic.Int64
}

func (b countedBody) Close() error {
	b.closes.Add(1)
	return b.ReadCloser.Close()
}

func (c *closeCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	next := c.next
	if next == nil {
		next = http.DefaultTransport.RoundTrip
	}
	resp, err := next(req)
	if err != nil {
		return nil, err
	}
	c.bodies.Add(1)
	resp.Body = countedBody{ReadCloser: resp.Body, closes: &c.closes}
	return resp, nil
}

// canned is a closeCounter.next that answers every request with the
// given status and body, no listener involved.
func canned(status int, body io.Reader) func(*http.Request) (*http.Response, error) {
	return func(*http.Request) (*http.Response, error) {
		return &http.Response{StatusCode: status, Header: http.Header{}, Body: io.NopCloser(body)}, nil
	}
}

// TestRoundTripClosesBodyOnce pins the one place the module closes a
// response body: every exit of dist's round-trip helper — transport
// error, read error, oversized body, non-200, 200 — closes the body
// exactly once or never had one, and all three callers (handshake,
// partial, quota lease) go through it.
func TestRoundTripClosesBodyOnce(t *testing.T) {
	granted := `{"v":1,"granted":1}`
	cases := []struct {
		name       string
		next       func(*http.Request) (*http.Response, error)
		wantBodies int64
		wantOpen   bool // the lease failed and Allow failed open
	}{
		{"transport error", func(*http.Request) (*http.Response, error) { return nil, io.ErrUnexpectedEOF }, 0, true},
		{"read error", canned(http.StatusOK, io.MultiReader(strings.NewReader(`{"v":`), iotest.ErrReader(io.ErrUnexpectedEOF))), 1, true},
		{"oversized body", canned(http.StatusOK, strings.NewReader(`{"v":1,"granted":1,"pad":"`+strings.Repeat("x", 1<<16)+`"}`)), 1, true},
		{"non-200", canned(http.StatusInternalServerError, strings.NewReader(`boom`)), 1, true},
		{"200", canned(http.StatusOK, strings.NewReader(granted)), 1, false},
	}
	for _, tc := range cases {
		cc := &closeCounter{next: tc.next}
		ql := dist.NewQuotaLease("http://authority.invalid", 1, &http.Client{Transport: cc})
		ok, _, failedOpen := ql.Allow(context.Background(), "c")
		if !ok || failedOpen != tc.wantOpen {
			t.Errorf("%s: ok=%v failedOpen=%v, want ok with failedOpen=%v", tc.name, ok, failedOpen, tc.wantOpen)
		}
		if b, c := cc.bodies.Load(), cc.closes.Load(); b != tc.wantBodies || c != b {
			t.Errorf("%s: %d bodies handed out, %d closes; want %d and %d", tc.name, b, c, tc.wantBodies, tc.wantBodies)
		}
	}

	// The handshake and the partial round trip, against a real listener:
	// a 200 handshake, a retryable 500 partial, then a final 400.
	tbl := fleetTable(400, 7)
	var calls atomic.Int64
	ts := fakeReplica(t, tbl, func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) == 1 {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusBadRequest)
		_, _ = io.WriteString(w, `{"error":{"kind":"parse","message":"no"}}`)
	})
	cc := &closeCounter{}
	coord := dialOne(t, ts.URL, dist.Config{Retries: 1, Backoff: time.Millisecond, Client: &http.Client{Transport: cc}})
	if _, err := coord.Target("").Exact(context.Background(), engine.Query{Func: engine.Count}); aqppp.ErrorKindOf(err) != aqppp.ErrParse {
		t.Fatalf("err = %v, want the replica's parse error after one retry", err)
	}
	if b, c := cc.bodies.Load(), cc.closes.Load(); b != 3 || c != 3 {
		t.Errorf("handshake + 2 partials: %d bodies handed out, %d closes; want 3 and 3", b, c)
	}
}

// TestQuotaLeaseConcurrent is the -race hammer for the lease client's
// token cache (QuotaLease.mu): Allow consumes and refills it from many
// goroutines while Snapshot reads it. No static rule watches that map;
// the race detector does, on the interleavings this test produces.
// Tokens are conserved: every granted token was either spent on an
// admission or is still cached.
func TestQuotaLeaseConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name             string
		granted, clients int
	}{
		{"batch of 1, nothing cached", 1, 2},
		{"batch of 3, one hot client", 3, 1},
		{"batch of 5, several clients", 5, 4},
	} {
		body, err := json.Marshal(dist.LeaseResponse{V: dist.WireVersion, Granted: tc.granted})
		if err != nil {
			t.Fatal(err)
		}
		cc := &closeCounter{next: func(*http.Request) (*http.Response, error) {
			return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(strings.NewReader(string(body)))}, nil
		}}
		ql := dist.NewQuotaLease("http://authority.invalid", tc.granted, &http.Client{Transport: cc})
		const workers, rounds = 6, 50
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					if ok, _, failedOpen := ql.Allow(context.Background(), fmt.Sprintf("c%d", (w+i)%tc.clients)); !ok || failedOpen {
						t.Errorf("%s: ok=%v failedOpen=%v against an authority that always grants", tc.name, ok, failedOpen)
					}
					if snap := ql.Snapshot(); snap.CachedClients > tc.clients {
						t.Errorf("%s: %d cached clients, only %d exist", tc.name, snap.CachedClients, tc.clients)
					}
				}
			}(w)
		}
		wg.Wait()
		snap := ql.Snapshot()
		if got, want := int(snap.LeaseCalls)*tc.granted, workers*rounds+snap.CachedTokens; got != want {
			t.Errorf("%s: %d tokens granted, %d spent or cached", tc.name, got, want)
		}
	}
}

// TestWireBitExactness round-trips partials and answers carrying the
// values JSON numbers would mangle: infinities, NaN, and signed zero
// all survive because every float crosses as IEEE-754 bits.
func TestWireBitExactness(t *testing.T) {
	p := engine.Partial{
		N: 3, Sum: math.Inf(1), Sum2: math.NaN(), Min: math.Copysign(0, -1), Max: math.Inf(-1),
	}
	raw, err := json.Marshal(dist.ToWirePartial(p))
	if err != nil {
		t.Fatal(err)
	}
	var wp dist.WirePartial
	if err := json.Unmarshal(raw, &wp); err != nil {
		t.Fatal(err)
	}
	got := dist.FromWirePartial(wp)
	if got.N != p.N ||
		math.Float64bits(got.Sum) != math.Float64bits(p.Sum) ||
		math.Float64bits(got.Sum2) != math.Float64bits(p.Sum2) ||
		math.Float64bits(got.Min) != math.Float64bits(p.Min) ||
		math.Float64bits(got.Max) != math.Float64bits(p.Max) {
		t.Errorf("partial round trip: %+v -> %+v", p, got)
	}

	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{
		{Col: "k", Lo: math.Inf(-1), Hi: 41.25},
	}}
	rq, err := dist.FromWireQuery(dist.ToWireQuery(q))
	if err != nil {
		t.Fatal(err)
	}
	if rq.Func != q.Func || rq.Col != q.Col || len(rq.Ranges) != 1 ||
		math.Float64bits(rq.Ranges[0].Lo) != math.Float64bits(q.Ranges[0].Lo) ||
		math.Float64bits(rq.Ranges[0].Hi) != math.Float64bits(q.Ranges[0].Hi) {
		t.Errorf("query round trip: %+v -> %+v", q, rq)
	}
}

// TestReplicaEndpointsGuarded checks the fleet-internal endpoints on a
// non-replica server: both 404 with the "not-a-replica" kind.
func TestReplicaEndpointsGuarded(t *testing.T) {
	db := aqppp.NewDB()
	if err := db.Register(fleetTable(100, 7)); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	for _, probe := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/shard", ""},
		{http.MethodPost, "/v1/partial", `{"v":1,"mode":"exact","table":"demo","query":{"func":"COUNT"}}`},
	} {
		req := httptest.NewRequest(probe.method, probe.path, strings.NewReader(probe.body))
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusNotFound {
			t.Errorf("%s %s on non-replica: status %d, want 404", probe.method, probe.path, w.Code)
		}
		if !strings.Contains(w.Body.String(), "not-a-replica") {
			t.Errorf("%s %s: body %s lacks not-a-replica kind", probe.method, probe.path, w.Body.String())
		}
	}
}
