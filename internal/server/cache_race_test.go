package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"aqppp"
	"aqppp/internal/engine"
)

// churnTable builds a table with k = v = 1..rows, so SUM(v) over
// k BETWEEN lo AND hi is (lo+hi)(hi−lo+1)/2 exactly and any reader can
// tell a wrong or misfiled answer arithmetically.
func churnTable(rows int) *engine.Table {
	k := make([]int64, rows)
	v := make([]float64, rows)
	for i := range k {
		k[i] = int64(i + 1)
		v[i] = float64(i + 1)
	}
	return engine.MustNewTable("churn", engine.NewIntColumn("k", k), engine.NewFloatColumn("v", v))
}

// TestServerCacheChurnRace is the -race test for the response cache
// under concurrent hit, miss and eviction traffic on one table: readers
// mix one hot statement with a rotation over more distinct statements
// than the byte bound holds, so entries are put, served and evicted
// concurrently. Correctness bar: no data race, and every answer — hit
// or miss — is its own statement's exact sum.
func TestServerCacheChurnRace(t *testing.T) {
	const (
		rows       = 256
		statements = 16
		readers    = 4
		requests   = 100
	)
	db := aqppp.NewDB()
	if err := db.Register(churnTable(rows)); err != nil {
		t.Fatal(err)
	}
	// 1 KiB holds a few ~250-byte entries, so the rotation keeps evicting.
	srv := New(db, Config{MaxConcurrent: 4, MaxQueue: 32, CacheMaxBytes: 1 << 10})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	bodies := make([][]byte, statements)
	wants := make([]float64, statements)
	for i := range bodies {
		lo, hi := i+1, i+1+8*i
		bodies[i], _ = json.Marshal(QueryRequest{SQL: fmt.Sprintf("SELECT SUM(v) FROM churn WHERE k BETWEEN %d AND %d", lo, hi)})
		wants[i] = float64((lo + hi) * (hi - lo + 1) / 2)
	}

	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := ts.Client()
			for i := 0; i < requests; i++ {
				s := 0 // every other request is the hot statement
				if i%2 == 1 {
					s = (i*7 + w) % statements
				}
				resp, err := c.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(bodies[s]))
				if err != nil {
					t.Errorf("reader post: %v", err)
					return
				}
				data, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil {
					t.Errorf("reader read: %v", err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader status %d: %s", resp.StatusCode, data)
					return
				}
				var qr QueryResponse
				if err := json.Unmarshal(data, &qr); err != nil {
					t.Errorf("reader decode: %v", err)
					return
				}
				if qr.Value != wants[s] {
					t.Errorf("statement %d answered %v (cached=%v), want %v", s, qr.Value, qr.Cached, wants[s])
					return
				}
			}
		}()
	}
	wg.Wait()

	st := srv.cache.Stats()
	if st.Hits == 0 || st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("cache stats = %+v: the race must exercise hits, misses and evictions", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("cache holds %d bytes over its %d bound", st.Bytes, st.MaxBytes)
	}
}
