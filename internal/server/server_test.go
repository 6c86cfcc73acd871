package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aqppp"
	"aqppp/internal/core"
	"aqppp/internal/dist"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// serverDemoTable mirrors the root package's demo fixture: an integer
// key, a correlated float measure, and a low-cardinality tier.
func serverDemoTable(n int, seed uint64) *engine.Table {
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

// newTestDB registers the demo table.
func newTestDB(t *testing.T, rows int) *aqppp.DB {
	t.Helper()
	db := aqppp.NewDB()
	if err := db.Register(serverDemoTable(rows, 7)); err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer runs srv on a loopback listener and returns its base URL.
// Cleanup shuts it down (if the test didn't already) and verifies Serve
// returned cleanly.
func startServer(t *testing.T, srv *Server) string {
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
		_ = srv.Shutdown(ctx) // idempotent enough: second shutdown errors are fine
		if err := <-done; err != nil {
			t.Errorf("Serve returned %v", err)
		}
	})
	return "http://" + l.Addr().String()
}

// burstClient is an http.Client that actually opens one connection per
// concurrent request (the default transport caps idle conns per host).
func burstClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 256,
	}}
}

// postJSON posts body as JSON and returns the status and decoded body.
func postJSON(t *testing.T, c *http.Client, url string, body any) (int, map[string]any, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// Every 200 must carry a body: an empty one is an answer that failed
	// to encode after its header went out.
	var out map[string]any
	if len(data) > 0 || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("bad JSON body %q: %v", data, err)
		}
	}
	return resp.StatusCode, out, resp.Header
}

// errKind digs the error kind out of a decoded error body.
func errKind(body map[string]any) string {
	e, _ := body["error"].(map[string]any)
	k, _ := e["kind"].(string)
	return k
}

// TestServerEndToEnd drives the full handle lifecycle over a real
// listener: prepare, exact query, approx query (closed-form and
// bootstrap), group-by, statusz, and handle deletion.
func TestServerEndToEnd(t *testing.T) {
	db := newTestDB(t, 5000)
	srv := New(db, Config{MaxConcurrent: 4, MaxQueue: 8})
	base := startServer(t, srv)
	c := burstClient()

	// healthz / readyz up.
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := c.Get(base + ep)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}

	// Build a handle over the wire.
	status, body, _ := postJSON(t, c, base+"/v1/prepare", PrepareRequest{
		Name: "h", Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 200, Seed: 11,
	})
	if status != http.StatusOK {
		t.Fatalf("prepare = %d (%v)", status, body)
	}
	if body["name"] != "h" || body["table"] != "demo" {
		t.Errorf("prepare body = %v", body)
	}

	// Exact query matches the library answer.
	stmt := "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400"
	want, err := db.Exact(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	status, body, hdr := postJSON(t, c, base+"/v1/query", QueryRequest{SQL: stmt})
	if status != http.StatusOK {
		t.Fatalf("query = %d (%v)", status, body)
	}
	if got := body["value"].(float64); math.Abs(got-want.Value) > 1e-6*math.Abs(want.Value) {
		t.Errorf("exact value = %v, want %v", got, want.Value)
	}
	if hdr.Get("X-Request-Id") == "" {
		t.Error("response missing X-Request-Id")
	}
	if id, _ := body["request_id"].(string); id == "" {
		t.Error("body missing request_id")
	}

	// Approx through the handle: sane interval around the exact answer.
	status, body, _ = postJSON(t, c, base+"/v1/approx", QueryRequest{Prepared: "h", SQL: stmt})
	if status != http.StatusOK {
		t.Fatalf("approx = %d (%v)", status, body)
	}
	av := body["value"].(float64)
	hw := body["half_width"].(float64)
	if hw < 0 {
		t.Errorf("half_width = %v", hw)
	}
	if math.Abs(av-want.Value) > 10*hw+0.05*math.Abs(want.Value) {
		t.Errorf("approx %v ± %v too far from exact %v", av, hw, want.Value)
	}

	// Bootstrap variant.
	status, body, _ = postJSON(t, c, base+"/v1/approx", QueryRequest{Prepared: "h", SQL: stmt, Resamples: 50})
	if status != http.StatusOK {
		t.Fatalf("bootstrap approx = %d (%v)", status, body)
	}

	// Exact GROUP BY comes back with per-group rows.
	status, body, _ = postJSON(t, c, base+"/v1/query", QueryRequest{SQL: "SELECT COUNT(*) FROM demo GROUP BY tier"})
	if status != http.StatusOK {
		t.Fatalf("group query = %d (%v)", status, body)
	}
	if groups, _ := body["groups"].([]any); len(groups) != 2 {
		t.Errorf("groups = %v", body["groups"])
	}

	// statusz reflects the traffic.
	resp, err := c.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st StatuszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if !st.Ready || st.Draining {
		t.Errorf("statusz ready=%v draining=%v", st.Ready, st.Draining)
	}
	if st.ServedTotal < 5 {
		t.Errorf("served_total = %d, want >= 5", st.ServedTotal)
	}
	if len(st.Prepared) != 1 || st.Prepared[0] != "h" {
		t.Errorf("prepared = %v", st.Prepared)
	}
	if ep, ok := st.Endpoints["/v1/query"]; !ok || ep.Requests < 2 || len(ep.LatencyUS) == 0 {
		t.Errorf("endpoint metrics = %+v", st.Endpoints)
	}

	// Delete the handle; approx now 404s.
	req, err := http.NewRequest(http.MethodDelete, base+"/v1/prepared/h", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete = %d, want 204", resp.StatusCode)
	}
	status, body, _ = postJSON(t, c, base+"/v1/approx", QueryRequest{Prepared: "h", SQL: stmt})
	if status != http.StatusNotFound || errKind(body) != "unknown-prepared" {
		t.Errorf("approx after delete = %d kind %q", status, errKind(body))
	}
}

// TestServerErrorMapping pins the taxonomy→HTTP table with recorder
// requests against the routed handler.
func TestServerErrorMapping(t *testing.T) {
	db := newTestDB(t, 2000)
	prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 2, MaxTimeout: time.Minute})
	if err := srv.RegisterPrepared("h", prep); err != nil {
		t.Fatal(err)
	}

	do := func(method, path string, body any) (int, map[string]any) {
		t.Helper()
		var rd io.Reader
		if s, ok := body.(string); ok {
			rd = bytes.NewReader([]byte(s))
		} else if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rd = bytes.NewReader(raw)
		}
		req := httptest.NewRequest(method, path, rd)
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		var out map[string]any
		if w.Body.Len() > 0 {
			if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
				t.Fatalf("bad body %q: %v", w.Body.String(), err)
			}
		}
		return w.Code, out
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		status int
		kind   string
	}{
		{"malformed-json", "POST", "/v1/query", `{"sql":`, 400, "parse"},
		{"unknown-field", "POST", "/v1/query", `{"nope":1}`, 400, "parse"},
		{"parse", "POST", "/v1/query", QueryRequest{SQL: "SELEC SUM(v) FROM demo"}, 400, "parse"},
		{"unknown-table", "POST", "/v1/query", QueryRequest{SQL: "SELECT SUM(v) FROM nope"}, 404, "unknown-table"},
		{"approx-wrong-table", "POST", "/v1/approx", QueryRequest{Prepared: "h", SQL: "SELECT SUM(v) FROM other"}, 404, "unknown-table"},
		{"unsupported", "POST", "/v1/approx", QueryRequest{Prepared: "h", SQL: "SELECT AVG(v) FROM demo", Resamples: 20}, 422, "unsupported"},
		{"unknown-prepared", "POST", "/v1/approx", QueryRequest{Prepared: "ghost", SQL: "SELECT SUM(v) FROM demo"}, 404, "unknown-prepared"},
		{"missing-prepared", "POST", "/v1/approx", QueryRequest{SQL: "SELECT SUM(v) FROM demo"}, 400, "parse"},
		{"prepare-missing-name", "POST", "/v1/prepare", PrepareRequest{Table: "demo"}, 400, "parse"},
		{"prepare-unknown-table", "POST", "/v1/prepare", PrepareRequest{Name: "x", Table: "nope", Dimensions: []string{"k"}}, 404, "unknown-table"},
		{"delete-unknown", "DELETE", "/v1/prepared/ghost", nil, 404, "unknown-prepared"},
		{"budget-exceeded", "POST", "/v1/approx", QueryRequest{Prepared: "h", SQL: "SELECT SUM(v) FROM demo", Resamples: 2_000_000, TimeoutMS: 40}, 408, "budget-exceeded"},
		// A timeout_ms whose nanosecond form overflows time.Duration is
		// clamped to MaxTimeout, not wrapped into a sub-millisecond bound
		// (which the 5000 resamples would overrun).
		{"timeout-wraps-positive", "POST", "/v1/approx", QueryRequest{Prepared: "h", SQL: "SELECT SUM(v) FROM demo", Resamples: 5000, TimeoutMS: 18446744073710}, 200, ""},
		{"timeout-max-int64", "POST", "/v1/approx", QueryRequest{Prepared: "h", SQL: "SELECT SUM(v) FROM demo", TimeoutMS: math.MaxInt64}, 200, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := do(tc.method, tc.path, tc.body)
			if status != tc.status {
				t.Errorf("status = %d, want %d (body %v)", status, tc.status, body)
			}
			if got := errKind(body); got != tc.kind {
				t.Errorf("kind = %q, want %q", got, tc.kind)
			}
			if e, _ := body["error"].(map[string]any); e != nil {
				if id, _ := e["request_id"].(string); id == "" {
					t.Error("error body missing request_id")
				}
			}
		})
	}

	// Prepare-name conflict: 409 on the second build.
	if code, body := do("POST", "/v1/prepare", PrepareRequest{
		Name: "h", Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 100,
	}); code != http.StatusConflict || errKind(body) != "conflict" {
		t.Errorf("duplicate prepare = %d kind %q", code, errKind(body))
	}
}

// TestServerAdmissionUnderLoad is the acceptance-criteria integration
// test: 64 concurrent clients against a 4-wide gate with a 4-deep
// queue. It proves (a) concurrency never exceeds the configured limit,
// (b) overload is shed with 429 + Retry-After instead of queuing to
// die, and (c) the server state drains back to zero.
func TestServerAdmissionUnderLoad(t *testing.T) {
	const clients = 64
	db := newTestDB(t, 2000)
	srv := New(db, Config{MaxConcurrent: 4, MaxQueue: 4, DefaultTimeout: 10 * time.Second})
	var cur, peak atomic.Int64
	srv.hookGated = func(ctx context.Context) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		// Hold the slot long enough that 64 near-simultaneous arrivals
		// must overflow the 4+4 capacity.
		select {
		case <-time.After(15 * time.Millisecond):
		case <-ctx.Done():
		}
		cur.Add(-1)
	}
	base := startServer(t, srv)
	c := burstClient()

	start := make(chan struct{})
	type outcome struct {
		status     int
		retryAfter string
		kind       string
		latency    time.Duration
	}
	results := make(chan outcome, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			t0 := time.Now()
			// A statement per client: a repeated one is served from the
			// cache, in front of the gate, as soon as its first answer
			// lands, and on a slow runner that left too few arrivals to
			// overflow the gate.
			status, body, hdr := postJSON(t, c, base+"/v1/query", QueryRequest{
				SQL: fmt.Sprintf("SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND %d", 400+i), TimeoutMS: 10_000,
			})
			results <- outcome{
				status:     status,
				retryAfter: hdr.Get("Retry-After"),
				kind:       errKind(body),
				latency:    time.Since(t0),
			}
		}()
	}
	close(start)
	wg.Wait()
	close(results)

	var ok200, shed429, other int
	for r := range results {
		switch r.status {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
			if r.retryAfter == "" {
				t.Error("429 without Retry-After header")
			}
			if r.kind != "overloaded" {
				t.Errorf("429 kind = %q, want overloaded", r.kind)
			}
			// Shed, not queued to die: the response must come back far
			// inside the request's 10s deadline.
			if r.latency > 5*time.Second {
				t.Errorf("shed response took %v; sheds must be immediate", r.latency)
			}
		default:
			other++
			t.Errorf("unexpected status %d (kind %q)", r.status, r.kind)
		}
	}
	if ok200+shed429+other != clients {
		t.Errorf("accounted %d responses, want %d", ok200+shed429+other, clients)
	}
	if ok200 == 0 {
		t.Error("no request succeeded under load")
	}
	if shed429 == 0 {
		t.Error("64 clients against capacity 8 shed nothing; admission control inert")
	}
	if p := peak.Load(); p > 4 {
		t.Errorf("peak gated concurrency %d exceeds limit 4", p)
	}
	if got := srv.Gate().Shed(); got != int64(shed429) {
		t.Errorf("gate shed counter = %d, HTTP 429s = %d", got, shed429)
	}
	waitFor(t, 2*time.Second, func() bool {
		return srv.Gate().InFlight() == 0 && srv.Gate().Queued() == 0
	})
}

// TestServerClientDisconnectCancelsEngine proves a dropped client
// unwinds the engine work: a bootstrap query sized for tens of seconds
// is canceled client-side after ~50ms, and the server's in-flight count
// must return to zero long before the work could have finished.
func TestServerClientDisconnectCancelsEngine(t *testing.T) {
	db := newTestDB(t, 5000)
	prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 100, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 2})
	if err := srv.RegisterPrepared("h", prep); err != nil {
		t.Fatal(err)
	}
	base := startServer(t, srv)
	c := burstClient()

	raw, err := json.Marshal(QueryRequest{
		Prepared: "h", SQL: "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400",
		// ~1000-row sample × 2M resamples ≈ a minute-plus of work if not
		// canceled (kept modest so the upfront replicate-slice allocation
		// doesn't dominate on small machines).
		Resamples: 2_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/approx", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := c.Do(req)
		if err == nil {
			_ = resp.Body.Close()
		}
		errc <- err
	}()
	waitFor(t, 5*time.Second, func() bool { return srv.Gate().InFlight() == 1 })
	time.Sleep(50 * time.Millisecond) // let the resample loop actually start
	cancel()
	if err := <-errc; err == nil {
		t.Error("client Do succeeded despite cancellation")
	}
	// The engine must unwind within one resample — seconds even on a
	// loaded single-core box, not the minute-plus the full schedule
	// would take.
	waitFor(t, 20*time.Second, func() bool { return srv.Gate().InFlight() == 0 })
	waitFor(t, 2*time.Second, func() bool { return srv.status().ErrorKinds["canceled"] >= 1 })
}

// TestServerGracefulDrain: Shutdown flips /readyz to 503 while the
// listener still accepts (DrainPause), completes the in-flight query,
// and leaks no goroutines.
func TestServerGracefulDrain(t *testing.T) {
	baseGoroutines := runtime.NumGoroutine()
	db := newTestDB(t, 2000)
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 2, DrainPause: 400 * time.Millisecond})
	var sawCancel atomic.Bool
	srv.hookGated = func(ctx context.Context) {
		select {
		case <-time.After(300 * time.Millisecond):
		case <-ctx.Done():
			sawCancel.Store(true)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()
	c := burstClient()

	// Readiness up before drain.
	resp, err := c.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain = %d", resp.StatusCode)
	}

	// One slow query in flight.
	type reply struct {
		status int
		err    error
	}
	inFlight := make(chan reply, 1)
	go func() {
		raw, _ := json.Marshal(QueryRequest{SQL: "SELECT SUM(v) FROM demo"})
		resp, err := c.Post(base+"/v1/query", "application/json", bytes.NewReader(raw))
		if err != nil {
			inFlight <- reply{err: err}
			return
		}
		_ = resp.Body.Close()
		inFlight <- reply{status: resp.StatusCode}
	}()
	waitFor(t, 5*time.Second, func() bool { return srv.Gate().InFlight() == 1 })

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// During DrainPause the listener still accepts and readyz is 503.
	waitFor(t, time.Second, func() bool { return !srv.Ready() })
	resp, err = c.Get(base + "/readyz")
	if err != nil {
		t.Fatalf("readyz during drain pause: %v", err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", resp.StatusCode)
	}

	// The in-flight query must complete normally, not be hard-canceled.
	r := <-inFlight
	if r.err != nil || r.status != http.StatusOK {
		t.Errorf("in-flight query during drain: status %d err %v", r.status, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown = %v, want nil (clean drain)", err)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve = %v, want nil", err)
	}
	if sawCancel.Load() {
		t.Error("in-flight query was hard-canceled during a clean drain")
	}

	// No leaked goroutines once drained.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseGoroutines+4 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d live, started with %d", runtime.NumGoroutine(), baseGoroutines)
}

// TestServerDrainDeadlineHardCancels: when in-flight work outlives the
// drain deadline, Shutdown cancels the request contexts (unwinding the
// engine) and closes the connections, returning the deadline error.
func TestServerDrainDeadlineHardCancels(t *testing.T) {
	db := newTestDB(t, 2000)
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 2})
	released := make(chan struct{})
	srv.hookGated = func(ctx context.Context) {
		<-ctx.Done() // hold the slot until hard-canceled
		close(released)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()
	c := burstClient()

	go func() {
		raw, _ := json.Marshal(QueryRequest{SQL: "SELECT SUM(v) FROM demo"})
		resp, err := c.Post(base+"/v1/query", "application/json", bytes.NewReader(raw))
		if err == nil {
			_ = resp.Body.Close()
		}
	}()
	waitFor(t, 5*time.Second, func() bool { return srv.Gate().InFlight() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); err == nil {
		t.Error("Shutdown = nil, want deadline error after hard cancel")
	}
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("hard cancel never reached the gated request")
	}
	if err := <-serveDone; err != nil {
		t.Errorf("Serve = %v, want nil", err)
	}
	waitFor(t, 5*time.Second, func() bool { return srv.Gate().InFlight() == 0 })
}

// TestPartialRunsUnderBudget posts to a replica's /v1/partial directly,
// the way a coordinator (or anyone who can reach the port) does: the
// request's timeout_ms must bound the stratum's work, not just its
// queue wait, and the server's resample cap must hold here as it does
// on /v1/approx.
func TestPartialRunsUnderBudget(t *testing.T) {
	db := newTestDB(t, 5000)
	prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{
		MaxResamples: 3_000_000,
		Replica:      &ReplicaRole{Table: "demo", Ident: dist.ShardIdentity{Count: 1}},
	})
	if err := srv.RegisterPrepared("h", prep); err != nil {
		t.Fatal(err)
	}
	base := startServer(t, srv)
	partial := func(resamples int, timeoutMS int64) (int, string) {
		code, body, _ := postJSON(t, http.DefaultClient, base+"/v1/partial", dist.PartialRequest{
			V: dist.WireVersion, Mode: dist.ModeBootstrap, Table: "demo", Handle: "h",
			Query:     dist.ToWireQuery(engine.Query{Func: engine.Sum, Col: "v"}),
			Resamples: resamples, Seed: 1, TimeoutMS: timeoutMS,
		})
		return code, errKind(body)
	}
	if code, kind := partial(50, 0); code != http.StatusOK {
		t.Fatalf("in-budget partial = %d kind %q", code, kind)
	}
	start := time.Now()
	if code, kind := partial(2_000_000, 40); code != http.StatusRequestTimeout || kind != "budget-exceeded" {
		t.Errorf("over-deadline partial = %d kind %q, want 408 budget-exceeded", code, kind)
	}
	if code, kind := partial(3_000_001, 0); code != http.StatusRequestTimeout || kind != "budget-exceeded" {
		t.Errorf("over-cap partial = %d kind %q, want 408 budget-exceeded", code, kind)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("refusals took %v: the deadline and the cap must stop the resampling", el)
	}
}

// TestPartialScratchCap: the server's scratch cap holds on a replica's
// /v1/partial bootstrap as it does on /v1/approx — charged against the
// handle's sample rows, refused over the cap with the same kind and
// status, run at the cap.
func TestPartialScratchCap(t *testing.T) {
	db := newTestDB(t, 5000)
	prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	need := core.BootstrapScratchBytes(prep.Processor().Sample)
	partial := func(limit int64) (int, string) {
		srv := New(db, Config{
			MaxScratchBytes: limit,
			Replica:         &ReplicaRole{Table: "demo", Ident: dist.ShardIdentity{Count: 1}},
		})
		if err := srv.RegisterPrepared("h", prep); err != nil {
			t.Fatal(err)
		}
		code, body, _ := postJSON(t, http.DefaultClient, startServer(t, srv)+"/v1/partial", dist.PartialRequest{
			V: dist.WireVersion, Mode: dist.ModeBootstrap, Table: "demo", Handle: "h",
			Query:     dist.ToWireQuery(engine.Query{Func: engine.Sum, Col: "v"}),
			Resamples: 20, Seed: 1,
		})
		return code, errKind(body)
	}
	if code, kind := partial(need - 1); code != http.StatusRequestTimeout || kind != "budget-exceeded" {
		t.Errorf("over-cap partial = %d kind %q, want 408 budget-exceeded", code, kind)
	}
	if code, kind := partial(need); code != http.StatusOK {
		t.Errorf("at-cap partial = %d kind %q, want 200", code, kind)
	}
	// /v1/approx refuses the same cap with the same kind and status.
	srv := New(db, Config{MaxScratchBytes: need - 1})
	if err := srv.RegisterPrepared("h", prep); err != nil {
		t.Fatal(err)
	}
	code, body, _ := postJSON(t, http.DefaultClient, startServer(t, srv)+"/v1/approx",
		QueryRequest{Prepared: "h", SQL: "SELECT SUM(v) FROM demo", Resamples: 20})
	if code != http.StatusRequestTimeout || errKind(body) != "budget-exceeded" {
		t.Errorf("over-cap approx = %d kind %q, want 408 budget-exceeded", code, errKind(body))
	}
}

// TestParentRequestID pins the receiving half of cross-process request
// IDs: a caller's X-Request-Id (a coordinator sends its own request's ID
// with every partial) comes back as parent_request_id in the error body
// and as parent=<id> on the access-log line, next to this server's own
// ID; a request without the header has neither.
func TestParentRequestID(t *testing.T) {
	var log bytes.Buffer
	srv := New(newTestDB(t, 100), Config{AccessLog: &log, Replica: &ReplicaRole{Table: "demo"}})
	partial := func(parent string) (ErrorDetail, string) {
		t.Helper()
		log.Reset()
		req := httptest.NewRequest(http.MethodPost, "/v1/partial", bytes.NewReader([]byte(`{"v":0}`)))
		if parent != "" {
			req.Header.Set("X-Request-Id", parent)
		}
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, req)
		var body ErrorBody
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || w.Code != http.StatusBadRequest {
			t.Fatalf("stale-version partial = %d %s (%v), want a 400 error body", w.Code, w.Body.String(), err)
		}
		return body.Error, log.String()
	}

	detail, line := partial("coord-000007")
	if detail.ParentRequestID != "coord-000007" || detail.RequestID == "" || detail.RequestID == detail.ParentRequestID {
		t.Errorf("error body ids = own %q parent %q, want a fresh id and parent coord-000007", detail.RequestID, detail.ParentRequestID)
	}
	if !strings.Contains(line, " "+detail.RequestID+" ") || !strings.HasSuffix(line, " parent=coord-000007\n") {
		t.Errorf("access log line %q lacks the request's own id or its parent", line)
	}
	detail, line = partial("")
	if detail.ParentRequestID != "" || strings.Contains(line, "parent=") {
		t.Errorf("headerless request reports a parent: body %+v, log %q", detail, line)
	}
}
