package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// postJSONWithHeader is postJSON with one extra request header (the
// quota tests identify clients via X-Client-Id).
func postJSONWithHeader(t *testing.T, c *http.Client, url string, body any, hk, hv string) (int, map[string]any, http.Header) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(hk, hv)
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if len(data) > 0 {
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("bad JSON body %q: %v", data, err)
		}
	}
	return resp.StatusCode, out, resp.Header
}

// TestQuotaTokenBucket drives one bucket with an injected clock: burst
// admits immediately, an empty bucket sheds with a sane Retry-After
// hint, and refill tracks elapsed time at the configured rate.
func TestQuotaTokenBucket(t *testing.T) {
	q := NewQuota(1, 2, 16) // 1 token/s, burst 2
	now := time.Unix(1000, 0)

	for i := 0; i < 2; i++ {
		if ok, _ := q.Allow("a", now); !ok {
			t.Fatalf("burst request %d should be admitted", i)
		}
	}
	ok, wait := q.Allow("a", now)
	if ok {
		t.Fatal("third immediate request should shed")
	}
	if wait < 500*time.Millisecond || wait > 2*time.Second {
		t.Errorf("retry hint %v outside the ~1s refill window", wait)
	}
	if q.Shed() != 1 {
		t.Errorf("shed = %d, want 1", q.Shed())
	}

	// One second refills one token.
	now = now.Add(time.Second)
	if ok, _ := q.Allow("a", now); !ok {
		t.Error("refilled bucket should admit")
	}
	if ok, _ := q.Allow("a", now); ok {
		t.Error("bucket should be empty again")
	}

	// Refill caps at burst: a long-idle client gets burst, not more.
	now = now.Add(time.Hour)
	admitted := 0
	for i := 0; i < 5; i++ {
		if ok, _ := q.Allow("a", now); ok {
			admitted++
		}
	}
	if admitted != 2 {
		t.Errorf("after long idle: admitted %d, want burst=2", admitted)
	}

	// Buckets are per client: a fresh client is unaffected by the hot one.
	if ok, _ := q.Allow("b", now); !ok {
		t.Error("fresh client should be admitted")
	}
}

// TestQuotaClientEviction pins the bounded-memory behavior: past
// maxClients the least-recently-seen bucket is dropped.
func TestQuotaClientEviction(t *testing.T) {
	q := NewQuota(1, 1, 2)
	now := time.Unix(1000, 0)
	q.Allow("a", now)
	q.Allow("b", now.Add(time.Millisecond))
	q.Allow("c", now.Add(2*time.Millisecond)) // evicts a
	if got := q.Clients(); got != 2 {
		t.Fatalf("clients = %d, want 2", got)
	}
	// a returns with a full bucket (it was forgotten) — admitted even
	// though its old bucket would have been empty.
	if ok, _ := q.Allow("a", now.Add(3*time.Millisecond)); !ok {
		t.Error("evicted client should restart with a full bucket")
	}
	if got := q.Clients(); got != 2 {
		t.Errorf("clients = %d, want 2 after re-insert", got)
	}
}

// TestQuotaConcurrent is the -race hammer for the bucket table
// (Quota.mu): Allow debits it from many goroutines while Shed and
// Clients read it. No static rule watches those fields; the race
// detector does, on the interleavings this test produces. With the
// clock held still nothing refills, so each client is granted exactly
// its burst however the debits interleave.
func TestQuotaConcurrent(t *testing.T) {
	now := time.Unix(1000, 0)
	for _, tc := range []struct {
		name           string
		burst, clients int
	}{
		{"one hot client", 7, 1},
		{"three clients", 7, 3},
		{"burst below the rounds", 3, 2},
	} {
		q := NewQuota(1, tc.burst, 16)
		granted := make([]atomic.Int64, tc.clients)
		var sheds atomic.Int64
		const workers, rounds = 6, 40
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < rounds; i++ {
					c := (w + i) % tc.clients
					if ok, _ := q.Allow(fmt.Sprintf("c%d", c), now); ok {
						granted[c].Add(1)
					} else {
						sheds.Add(1)
					}
					if q.Clients() > tc.clients {
						t.Errorf("%s: %d buckets, only %d clients exist", tc.name, q.Clients(), tc.clients)
					}
				}
			}(w)
		}
		wg.Wait()
		for c := range granted {
			if got := granted[c].Load(); got != int64(tc.burst) {
				t.Errorf("%s: client %d was granted %d tokens, want its burst %d", tc.name, c, got, tc.burst)
			}
		}
		if q.Shed() != sheds.Load() {
			t.Errorf("%s: shed counter %d, %d calls were refused", tc.name, q.Shed(), sheds.Load())
		}
	}
}

// TestQuotaNoLeaseDrain pins that no request drains another client's
// bucket: the server once mounted an unauthenticated token-lease route
// through which any caller could empty a named client's quota and get
// its next query shed with 429. The route is gone (404), and the
// victim's query is answered.
func TestQuotaNoLeaseDrain(t *testing.T) {
	srv := New(newTestDB(t, 1000), Config{QuotaRate: 0.01, QuotaBurst: 5})
	base := startServer(t, srv)
	c := burstClient()

	req, err := http.NewRequest(http.MethodPost, base+"/v1/quota/lease",
		bytes.NewReader([]byte(`{"v":1,"client":"B","want":100}`)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-Id", "A")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("lease request: status %d, want 404", resp.StatusCode)
	}

	status, body, _ := postJSONWithHeader(t, c, base+"/v1/query",
		QueryRequest{SQL: "SELECT COUNT(*) FROM demo"}, "X-Client-Id", "B")
	if status != http.StatusOK {
		t.Errorf("victim's query: status %d kind %q, want 200", status, errKind(body))
	}
}

// TestQuotaNilSafe verifies the disabled path is inert.
func TestQuotaNilSafe(t *testing.T) {
	var q *Quota
	if ok, _ := q.Allow("a", time.Now()); !ok {
		t.Error("nil quota must admit everything")
	}
	if q.Shed() != 0 || q.Clients() != 0 {
		t.Error("nil quota must report zeros")
	}
}

// TestServerQuotaFairness is the acceptance pin for per-client
// fairness: a hot client burning distinct (uncacheable-by-repeat)
// queries is shed with 429 kind "quota-exceeded" while a cold client
// sails through — and the quota sheds are counted apart from the
// gate's capacity sheds.
func TestServerQuotaFairness(t *testing.T) {
	db := newTestDB(t, 1000)
	srv := New(db, Config{
		MaxConcurrent: 4, MaxQueue: 16,
		QuotaRate: 0.5, QuotaBurst: 3,
	})
	base := startServer(t, srv)
	c := burstClient()

	post := func(clientID, sql string) (int, map[string]any, http.Header) {
		t.Helper()
		return postJSONWithHeader(t, c, base+"/v1/query", QueryRequest{SQL: sql}, "X-Client-Id", clientID)
	}

	// The hog sends distinct statements sequentially so neither the
	// cache nor concurrency is in play — only its bucket.
	hogSheds := 0
	var shedBody map[string]any
	var shedHdr http.Header
	for i := 0; i < 6; i++ {
		sql := fmt.Sprintf("SELECT COUNT(*) FROM demo WHERE k BETWEEN %d AND %d", i+1, i+100)
		status, body, hdr := post("hog", sql)
		switch status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			hogSheds++
			shedBody, shedHdr = body, hdr
		default:
			t.Fatalf("hog request %d: unexpected status %d body %v", i, status, body)
		}
	}
	if hogSheds == 0 {
		t.Fatal("hog was never shed; quota is not enforced")
	}
	if kind := errKind(shedBody); kind != "quota-exceeded" {
		t.Errorf("shed kind = %q, want quota-exceeded", kind)
	}
	if shedHdr.Get("Retry-After") == "" {
		t.Error("quota shed missing Retry-After header")
	}
	if ra, _ := shedBody["error"].(map[string]any); ra["retry_after_ms"] == nil {
		t.Error("quota shed missing retry_after_ms in body")
	}

	// A cold client is untouched by the hog's exhaustion.
	status, body, _ := post("cold", "SELECT COUNT(*) FROM demo WHERE k BETWEEN 7 AND 300")
	if status != http.StatusOK {
		t.Fatalf("cold client: status %d body %v (one client's quota must not starve another)", status, body)
	}

	// The taxonomy of sheds: all of the above were quota sheds, none
	// were capacity sheds.
	if got := srv.Gate().Shed(); got != 0 {
		t.Errorf("gate sheds = %d, want 0 (server never hit capacity)", got)
	}
	if got := srv.quota.Shed(); int(got) != hogSheds {
		t.Errorf("quota sheds = %d, want %d", got, hogSheds)
	}
	if got := srv.status().ErrorKinds["quota-exceeded"]; int(got) != hogSheds {
		t.Errorf("quota-exceeded kind count = %d, want %d", got, hogSheds)
	}
}

// TestServerCacheHitBypassesQuota verifies cached answers are free: a
// client over its quota still gets hits (they cost the server nothing
// worth rationing).
func TestServerCacheHitBypassesQuota(t *testing.T) {
	db := newTestDB(t, 1000)
	srv := New(db, Config{
		MaxConcurrent: 2, MaxQueue: 4,
		QuotaRate: 0.001, QuotaBurst: 1, // one miss, then nothing for ~17min
	})
	base := startServer(t, srv)
	c := burstClient()

	const stmt = "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400"
	status, body, _ := postJSONWithHeader(t, c, base+"/v1/query", QueryRequest{SQL: stmt}, "X-Client-Id", "x")
	if status != http.StatusOK {
		t.Fatalf("first (token-consuming) request: status %d body %v", status, body)
	}
	// The bucket is now empty; repeats of the same statement still land
	// because the cache answers before the quota is consulted.
	for i := 0; i < 3; i++ {
		status, body, hdr := postJSONWithHeader(t, c, base+"/v1/query", QueryRequest{SQL: stmt}, "X-Client-Id", "x")
		if status != http.StatusOK {
			t.Fatalf("cached repeat %d: status %d body %v", i, status, body)
		}
		if hdr.Get("X-Cache") != "hit" {
			t.Errorf("repeat %d should be a cache hit", i)
		}
	}
	// But a distinct statement from the same client is over quota.
	status, body, _ = postJSONWithHeader(t, c, base+"/v1/query",
		QueryRequest{SQL: "SELECT COUNT(*) FROM demo"}, "X-Client-Id", "x")
	if status != http.StatusTooManyRequests || errKind(body) != "quota-exceeded" {
		t.Errorf("distinct statement: status %d kind %q, want 429 quota-exceeded", status, errKind(body))
	}
}
