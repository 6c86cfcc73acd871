package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aqppp"
	"aqppp/internal/dist"
	"aqppp/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current renderer")

// maskSamples replaces every sample value with N, leaving family order,
// HELP/TYPE text, label names, label order and le bounds to compare.
func maskSamples(text string) string {
	var out strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if i := strings.LastIndexByte(line, ' '); i >= 0 && !strings.HasPrefix(line, "#") {
			line = line[:i] + " N\n"
		}
		out.WriteString(line)
	}
	return out.String()
}

// checkGolden compares a masked scrape with testdata/<name>.golden.
func checkGolden(t *testing.T, name, scrape string) {
	t.Helper()
	got := maskSamples(scrape)
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}

// TestMetricsGolden pins the whole scrape — family order, HELP/TYPE
// text, label names and order, bucket le strings — for the three
// single-process deployment shapes; only sample values are masked. The
// golden files were generated by the renderer as it stood before
// /metrics became an encoding of the /statusz snapshot.
func TestMetricsGolden(t *testing.T) {
	c := burstClient()
	as := func(client string) (string, string) { return "X-Client-Id", client }

	t.Run("resident", func(t *testing.T) {
		db := newTestDB(t, 20000)
		prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
			Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
			SampleRate: 0.1, CellBudget: 50, Seed: 11, WithCountCube: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 4, QuotaRate: 0.001, QuotaBurst: 2})
		if err := srv.RegisterPrepared("h", prep); err != nil {
			t.Fatal(err)
		}
		base := startServer(t, srv)

		const stmt = "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 400"
		post := func(path string, body any, client string, want int) {
			t.Helper()
			hk, hv := as(client)
			if status, resp, _ := postJSONWithHeader(t, c, base+path, body, hk, hv); status != want {
				t.Fatalf("%s as %s = %d (%v), want %d", path, client, status, resp, want)
			}
		}
		post("/v1/query", QueryRequest{SQL: stmt}, "a", http.StatusOK) // miss
		post("/v1/query", QueryRequest{SQL: stmt}, "b", http.StatusOK) // hit
		post("/v1/query", QueryRequest{SQL: "SELECT SUM(v) FROM nope"}, "b", http.StatusNotFound)
		post("/v1/query", QueryRequest{SQL: "SELECT COUNT(*) FROM demo"}, "a", http.StatusOK) // a's second token
		post("/v1/query", QueryRequest{SQL: "SELECT MAX(v) FROM demo"}, "a", http.StatusTooManyRequests)
		post("/v1/contract", ContractRequest{Prepared: "h", SQL: stmt, MaxRelError: 0.1}, "c", http.StatusOK)
		post("/v1/contract", ContractRequest{Prepared: "h", SQL: stmt, MaxRelError: 1e-10}, "c", http.StatusUnprocessableEntity)

		raw, err := json.Marshal(ProgressiveRequest{Prepared: "h", SQL: stmt, MaxRelError: 0.2, StepRows: 1500, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/progressive", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(as("d"))
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("progressive = %d, %v", resp.StatusCode, err)
		}
		checkGolden(t, "metrics_resident", scrapeMetrics(t, c, base))
	})

	t.Run("sharded", func(t *testing.T) {
		db := aqppp.NewDB()
		if err := db.RegisterSharded(serverDemoTable(4000, 7), aqppp.ShardOptions{Column: "k", Shards: 2}); err != nil {
			t.Fatal(err)
		}
		base := startServer(t, New(db, Config{}))
		for _, sql := range []string{"SELECT SUM(v) FROM demo", "SELECT SUM(v) FROM demo WHERE k BETWEEN 1 AND 20"} {
			if status, body, _ := postJSON(t, c, base+"/v1/query", QueryRequest{SQL: sql}); status != http.StatusOK {
				t.Fatalf("%s = %d (%v)", sql, status, body)
			}
		}
		checkGolden(t, "metrics_sharded", scrapeMetrics(t, c, base))
	})

	t.Run("store", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "demo.aqps")
		if err := newTestDB(t, 4000).SaveStore(path, "demo"); err != nil {
			t.Fatal(err)
		}
		db := aqppp.NewDB()
		if _, err := db.OpenStore(path); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = db.CloseStores() })
		base := startServer(t, New(db, Config{}))
		if status, body, _ := postJSON(t, c, base+"/v1/query", QueryRequest{SQL: "SELECT SUM(v) FROM demo"}); status != http.StatusOK {
			t.Fatalf("store query = %d (%v)", status, body)
		}
		checkGolden(t, "metrics_store", scrapeMetrics(t, c, base))
	})
}

// TestMetricsGoldenFleet pins the coordinator families, which no
// single-process server emits, by rendering a hand-built snapshot. The
// golden file is a real coordinator's scrape (two replicas) with
// replica URLs normalised.
func TestMetricsGoldenFleet(t *testing.T) {
	var lat stats.LatencyHistogram
	lat.Observe(3 * time.Millisecond)
	st := New(aqppp.NewDB(), Config{}).status()
	st.Dist = &dist.Snapshot{Table: "demo", Replicas: []dist.ReplicaSnapshot{
		{URL: "http://r0", Healthy: true, Requests: 1, Latency: lat.Snapshot()},
		{URL: "http://r1", Index: 1, Healthy: true, Requests: 1, Latency: lat.Snapshot()},
	}}
	checkGolden(t, "metrics_fleet", string(renderMetrics(st)))
}

// TestStatuszClampBucketHasNoUpperBound: the format's last bucket absorbs
// every request from 0.56s up, so /statusz must not claim it ends at 1s —
// a 5s request reports ge_us only, and /metrics counts it under +Inf
// alone.
func TestStatuszClampBucketHasNoUpperBound(t *testing.T) {
	srv := New(aqppp.NewDB(), Config{})
	srv.met.observe("/v1/query", http.StatusOK, 5*time.Second)
	srv.met.observe("/v1/query", http.StatusOK, 3*time.Millisecond)
	st := srv.status()

	raw, err := json.Marshal(st.Endpoints["/v1/query"].LatencyUS)
	if err != nil {
		t.Fatal(err)
	}
	const want = `[{"ge_us":1778.28,"lt_us":3162.28,"count":1},{"ge_us":562341.33,"count":1}]`
	if string(raw) != want {
		t.Errorf("latency_us = %s\nwant         %s", raw, want)
	}
	text := string(renderMetrics(st))
	if v := sampleValue(t, text, `aqppp_http_request_duration_seconds_bucket{endpoint="/v1/query",le="0.5623413251903492"}`); v != 1 {
		t.Errorf("last finite bucket = %v, want 1 (the 5s request is beyond it)", v)
	}
	if v := sampleValue(t, text, `aqppp_http_request_duration_seconds_bucket{endpoint="/v1/query",le="+Inf"}`); v != 2 {
		t.Errorf("+Inf bucket = %v, want 2", v)
	}
	if v := sampleValue(t, text, `aqppp_http_request_duration_seconds_sum{endpoint="/v1/query"}`); v != 5.003 {
		t.Errorf("_sum = %v, want 5.003", v)
	}
}
