package server

import (
	"context"
	"net/http"
	"testing"
	"time"

	"aqppp"
)

// aqpppPrepareOptions is the standard preparation for the demo table.
func aqpppPrepareOptions() aqppp.PrepareOptions {
	return aqppp.PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 100, Seed: 3,
	}
}

// TestCacheLRUByteBound pins the size accounting: inserting past
// maxBytes evicts from the least-recently-used tail, and a Get renews
// an entry's position.
func TestCacheLRUByteBound(t *testing.T) {
	resp := QueryResponse{Value: 1}
	one := cacheSizeOf("k0", resp)
	c := NewCache(3*one, 0)
	c.Put("k0", 1, resp)
	c.Put("k1", 1, resp)
	c.Put("k2", 1, resp)
	if st := c.Stats(); st.Entries != 3 || st.Bytes > st.MaxBytes {
		t.Fatalf("after 3 puts: %+v", st)
	}
	// Touch k0 so k1 becomes the LRU victim.
	if _, ok := c.Get("k0", 1); !ok {
		t.Fatal("k0 should hit")
	}
	c.Put("k3", 1, resp)
	if _, ok := c.Get("k1", 1); ok {
		t.Error("k1 should have been evicted as LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := c.Get(k, 1); !ok {
			t.Errorf("%s should have survived", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("bytes %d exceeds bound %d", st.Bytes, st.MaxBytes)
	}

	// A response that can never fit is simply not cached.
	var huge QueryResponse
	for i := 0; i < 1000; i++ {
		huge.Groups = append(huge.Groups, GroupJSON{Key: "group-key-long-enough"})
	}
	c.Put("huge", 1, huge)
	if _, ok := c.Get("huge", 1); ok {
		t.Error("over-sized response should not be cached")
	}
}

// TestCacheTTL verifies age-based expiry counts as an eviction, not an
// invalidation.
func TestCacheTTL(t *testing.T) {
	c := NewCache(1<<20, 10*time.Millisecond)
	c.Put("k", 1, QueryResponse{Value: 1})
	if _, ok := c.Get("k", 1); !ok {
		t.Fatal("fresh entry should hit")
	}
	time.Sleep(25 * time.Millisecond)
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("expired entry should miss")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Invalidations != 0 || st.Entries != 0 {
		t.Errorf("stats after expiry: %+v", st)
	}
}

// TestCacheGenerationInvalidation pins the churn defense: a lookup at a
// newer generation drops the entry and can never serve it.
func TestCacheGenerationInvalidation(t *testing.T) {
	c := NewCache(1<<20, 0)
	c.Put("k", 1, QueryResponse{Value: 1})
	if _, ok := c.Get("k", 2); ok {
		t.Fatal("generation mismatch must miss")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Entries != 0 {
		t.Errorf("stats after invalidation: %+v", st)
	}
	// The old generation cannot resurrect the entry either — it is gone.
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("invalidated entry must stay gone")
	}

	// A Put whose generation was captured before a churn (gen 1) while
	// the current generation is already 2 is stillborn: stored, but the
	// next current-generation lookup kills it.
	c.Put("k", 1, QueryResponse{Value: 1})
	if _, ok := c.Get("k", 2); ok {
		t.Fatal("stillborn entry must never serve")
	}
}

// TestCacheNilSafe verifies a disabled cache (nil receiver) is inert.
func TestCacheNilSafe(t *testing.T) {
	var c *Cache
	c.Put("k", 1, QueryResponse{})
	if _, ok := c.Get("k", 1); ok {
		t.Error("nil cache should never hit")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Errorf("nil cache stats = %+v, want zeros", st)
	}
}

// TestServerCacheHitSkipsGate is the acceptance pin for the tentpole:
// a repeated identical query is served from the cache without passing
// the admission gate — the gate's served counter must not move on the
// hit — and the response says so (cached flag, X-Cache header).
func TestServerCacheHitSkipsGate(t *testing.T) {
	db := newTestDB(t, 3000)
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 4})
	base := startServer(t, srv)
	c := burstClient()

	const stmt = "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400"
	status, body, hdr := postJSON(t, c, base+"/v1/query", QueryRequest{SQL: stmt})
	if status != http.StatusOK {
		t.Fatalf("miss: status %d body %v", status, body)
	}
	if body["cached"] == true || hdr.Get("X-Cache") == "hit" {
		t.Fatal("first request must not be a cache hit")
	}
	servedAfterMiss := srv.Gate().Served()
	want := body["value"]

	// The same statement — modulo surface syntax — hits.
	for _, repeat := range []string{stmt, "select sum(v) from demo where k between 10 and 400"} {
		status, body, hdr = postJSON(t, c, base+"/v1/query", QueryRequest{SQL: repeat})
		if status != http.StatusOK {
			t.Fatalf("repeat %q: status %d body %v", repeat, status, body)
		}
		if body["cached"] != true {
			t.Errorf("repeat %q: cached = %v, want true", repeat, body["cached"])
		}
		if hdr.Get("X-Cache") != "hit" {
			t.Errorf("repeat %q: X-Cache = %q, want hit", repeat, hdr.Get("X-Cache"))
		}
		if body["value"] != want {
			t.Errorf("repeat %q: value = %v, want %v", repeat, body["value"], want)
		}
	}
	if got := srv.Gate().Served(); got != servedAfterMiss {
		t.Errorf("gate served moved %d -> %d on cache hits; hits must not pass the gate", servedAfterMiss, got)
	}
	if st := srv.cache.Stats(); st.Hits < 2 {
		t.Errorf("cache hits = %d, want >= 2", st.Hits)
	}

	// Request IDs stay fresh per request even on hits.
	if body["request_id"] == "" {
		t.Error("cached response lost its request id")
	}
}

// TestServerCacheApproxAndBootstrap verifies approximate answers cache
// alongside their CI half-widths, and that closed-form and bootstrap
// answers for the same SQL occupy distinct entries.
func TestServerCacheApproxAndBootstrap(t *testing.T) {
	db := newTestDB(t, 3000)
	prep, err := db.Prepare(context.Background(), aqpppPrepareOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 4})
	if err := srv.RegisterPrepared("h", prep); err != nil {
		t.Fatal(err)
	}
	base := startServer(t, srv)
	c := burstClient()

	const stmt = "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400"
	ask := func(resamples int) (map[string]any, bool) {
		t.Helper()
		status, body, hdr := postJSON(t, c, base+"/v1/approx",
			QueryRequest{Prepared: "h", SQL: stmt, Resamples: resamples})
		if status != http.StatusOK {
			t.Fatalf("approx (n=%d): status %d body %v", resamples, status, body)
		}
		return body, hdr.Get("X-Cache") == "hit"
	}

	closed, hit := ask(0)
	if hit {
		t.Fatal("first closed-form request must miss")
	}
	if _, ok := closed["half_width"]; !ok {
		t.Fatal("approx answer missing half_width")
	}
	closed2, hit := ask(0)
	if !hit || closed2["cached"] != true {
		t.Error("repeated closed-form request should hit")
	}
	if closed2["half_width"] != closed["half_width"] {
		t.Errorf("cached half_width %v != original %v", closed2["half_width"], closed["half_width"])
	}

	boot, hit := ask(50)
	if hit {
		t.Error("bootstrap request must not hit the closed-form entry")
	}
	if _, ok := boot["half_width"]; !ok {
		t.Fatal("bootstrap answer missing half_width")
	}
	boot2, hit := ask(50)
	if !hit {
		t.Error("repeated bootstrap request should hit")
	}
	if boot2["half_width"] != boot["half_width"] {
		t.Errorf("cached bootstrap half_width %v != original %v", boot2["half_width"], boot["half_width"])
	}
}

// TestServerCacheDropRegisterInvalidates is the acceptance pin for
// invalidation: Drop + re-Register under the same name must never
// yield the old table's cached answer.
func TestServerCacheDropRegisterInvalidates(t *testing.T) {
	db := newTestDB(t, 2000)
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 4})
	base := startServer(t, srv)
	c := burstClient()

	const stmt = "SELECT COUNT(*) FROM demo"
	status, body, _ := postJSON(t, c, base+"/v1/query", QueryRequest{SQL: stmt})
	if status != http.StatusOK {
		t.Fatalf("first query: status %d body %v", status, body)
	}
	if int(body["value"].(float64)) != 2000 {
		t.Fatalf("count = %v, want 2000", body["value"])
	}

	// Churn: drop the table and register a different one under the name.
	db.Drop("demo")
	if err := db.Register(serverDemoTable(500, 9)); err != nil {
		t.Fatal(err)
	}

	status, body, hdr := postJSON(t, c, base+"/v1/query", QueryRequest{SQL: stmt})
	if status != http.StatusOK {
		t.Fatalf("post-churn query: status %d body %v", status, body)
	}
	if body["cached"] == true || hdr.Get("X-Cache") == "hit" {
		t.Error("post-churn query served from cache; generation must have invalidated it")
	}
	if int(body["value"].(float64)) != 500 {
		t.Errorf("post-churn count = %v, want 500 (the new table)", body["value"])
	}
	if st := srv.cache.Stats(); st.Invalidations < 1 {
		t.Errorf("invalidations = %d, want >= 1", st.Invalidations)
	}
}

// TestServerCachePreparedEpoch verifies dropping a handle and building
// a new one under the same name never serves the old handle's cached
// approximations.
func TestServerCachePreparedEpoch(t *testing.T) {
	db := newTestDB(t, 3000)
	prep, err := db.Prepare(context.Background(), aqpppPrepareOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 4})
	if err := srv.RegisterPrepared("h", prep); err != nil {
		t.Fatal(err)
	}
	base := startServer(t, srv)
	c := burstClient()

	const stmt = "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400"
	status, body, _ := postJSON(t, c, base+"/v1/approx", QueryRequest{Prepared: "h", SQL: stmt})
	if status != http.StatusOK {
		t.Fatalf("first approx: status %d body %v", status, body)
	}

	// Rebuild the handle under the same name (a different sample seed, so
	// the answer would genuinely differ).
	if !srv.dropPrepared("h") {
		t.Fatal("dropPrepared failed")
	}
	opts := aqpppPrepareOptions()
	opts.Seed = 99
	prep2, err := db.Prepare(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.RegisterPrepared("h", prep2); err != nil {
		t.Fatal(err)
	}

	status, body, hdr := postJSON(t, c, base+"/v1/approx", QueryRequest{Prepared: "h", SQL: stmt})
	if status != http.StatusOK {
		t.Fatalf("post-rebuild approx: status %d body %v", status, body)
	}
	if body["cached"] == true || hdr.Get("X-Cache") == "hit" {
		t.Error("rebuilt handle served its predecessor's cached answer")
	}
}

// TestServerCacheDisabled verifies negative CacheMaxBytes turns the
// cache off entirely: repeats recompute and pass the gate.
func TestServerCacheDisabled(t *testing.T) {
	db := newTestDB(t, 1000)
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 4, CacheMaxBytes: -1})
	if srv.cache != nil {
		t.Fatal("negative CacheMaxBytes should disable the cache")
	}
	base := startServer(t, srv)
	c := burstClient()
	const stmt = "SELECT COUNT(*) FROM demo"
	for i := 0; i < 2; i++ {
		status, body, hdr := postJSON(t, c, base+"/v1/query", QueryRequest{SQL: stmt})
		if status != http.StatusOK {
			t.Fatalf("query %d: status %d", i, status)
		}
		if body["cached"] == true || hdr.Get("X-Cache") == "hit" {
			t.Error("disabled cache served a hit")
		}
	}
	if got := srv.Gate().Served(); got != 2 {
		t.Errorf("gate served = %d, want 2 (every request gated)", got)
	}
}
