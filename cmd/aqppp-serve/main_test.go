package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// The smoke server's traffic shape, named so the assertions below can
// reason about them instead of repeating magic numbers: smokeBurst
// concurrent heavy queries against a smokeConcurrent-slot gate with a
// smokeQueue-seat queue must shed, and a single client gets
// smokeQuotaBurst immediate cache-missing requests before its bucket
// runs dry (refill is smokeQuotaRPS, slow enough that a sequential
// loop cannot sneak extra tokens).
const (
	smokeConcurrent = 1
	smokeQueue      = 1
	smokeBurst      = 8
	smokeQuotaRPS   = 0.2
	smokeQuotaBurst = 2
)

// TestServeBinarySmoke builds the real binary and exercises the serving
// path end to end: startup, exact + approx answers, a cached repeat, a
// shed burst against the capacity gate (429 "overloaded"), a per-client
// quota exhaustion (429 "quota-exceeded" — a different failure than
// capacity), a /metrics scrape, and a clean SIGTERM drain (exit 0). It
// is the scripted smoke in scripts/check.sh; set AQPPP_SERVER_SMOKE=1
// to run it.
func TestServeBinarySmoke(t *testing.T) {
	if os.Getenv("AQPPP_SERVER_SMOKE") == "" {
		t.Skip("set AQPPP_SERVER_SMOKE=1 to run the binary smoke test")
	}

	bin := filepath.Join(t.TempDir(), "aqppp-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// -shards 2 partitions the demo table (range layout on l_orderkey,
	// the first -dims column), so every query below — exact, approx,
	// bootstrap burst — exercises the scatter-gather path end to end.
	cmd := exec.Command(bin,
		"-demo", "tpcd", "-rows", "5000", "-seed", "9",
		"-addr", "127.0.0.1:0", "-shards", "2",
		"-agg", "l_extendedprice", "-dims", "l_orderkey,l_suppkey",
		"-sample-rate", "0.2", "-k", "500",
		"-max-concurrent", fmt.Sprint(smokeConcurrent),
		"-max-queue", fmt.Sprint(smokeQueue),
		"-quota-rps", fmt.Sprint(smokeQuotaRPS),
		"-quota-burst", fmt.Sprint(smokeQuotaBurst),
		"-max-resamples", "0",
		"-drain-timeout", "10s", "-quiet",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}()

	// The first stdout line announces the bound address.
	var addr string
	lines := bufio.NewScanner(stdout)
	deadline := time.After(30 * time.Second)
	got := make(chan string, 1)
	go func() {
		for lines.Scan() {
			line := lines.Text()
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				got <- rest
				return
			}
		}
		got <- ""
	}()
	select {
	case addr = <-got:
	case <-deadline:
		t.Fatal("server never announced its address")
	}
	if addr == "" {
		t.Fatal("no listening line on stdout")
	}
	base := "http://" + addr

	// post sends one JSON request as the named client (the X-Client-Id
	// header is the quota key) and returns status, body, and headers.
	post := func(client, path string, body any) (int, map[string]any, http.Header) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-Id", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out, resp.Header
	}
	kindOf := func(body map[string]any) string {
		e, _ := body["error"].(map[string]any)
		k, _ := e["kind"].(string)
		return k
	}

	type queryReq struct {
		SQL       string `json:"sql,omitempty"`
		Prepared  string `json:"prepared,omitempty"`
		TimeoutMS int64  `json:"timeout_ms,omitempty"`
		Resamples int    `json:"resamples,omitempty"`
	}

	stmt := "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 100 AND 4000"
	if code, body, _ := post("setup-exact", "/v1/query", queryReq{SQL: stmt}); code != http.StatusOK {
		t.Fatalf("exact query = %d (%v)", code, body)
	}
	code, body, _ := post("setup-approx", "/v1/approx", queryReq{Prepared: "default", SQL: stmt})
	if code != http.StatusOK {
		t.Fatalf("approx query = %d (%v)", code, body)
	}
	if _, ok := body["half_width"]; !ok {
		t.Errorf("approx body missing half_width: %v", body)
	}

	// A repeat of the exact statement — from a different client — is a
	// cache hit: marked in the body and header, and free of quota.
	code, body, hdr := post("repeat-reader", "/v1/query", queryReq{SQL: stmt})
	if code != http.StatusOK {
		t.Fatalf("cached repeat = %d (%v)", code, body)
	}
	if body["cached"] != true || hdr.Get("X-Cache") != "hit" {
		t.Errorf("repeat not served from cache: cached=%v X-Cache=%q", body["cached"], hdr.Get("X-Cache"))
	}

	// Capacity burst: smokeBurst concurrent bootstrap queries, each a
	// distinct statement from a distinct client so neither the cache nor
	// any single quota bucket can absorb the load — only the
	// smokeConcurrent-slot gate sheds, and it sheds "overloaded". The
	// overlap is made certain rather than hoped for: a holder request
	// takes the one slot first, the burst starts only once /statusz
	// shows the slot held, and the client cancels the holder only after
	// every request past the queue seat has been answered. The holder's
	// bootstrap (10^6 replicates, about 5 s on a 2-vCPU host) outlasts
	// the burst's arrival by orders of magnitude, and the test checks
	// that the client, not the work, ended it.
	holdCtx, stopHolder := context.WithCancel(context.Background())
	defer stopHolder()
	holderDone := make(chan error, 1)
	go func() {
		holderDone <- func() error {
			raw, err := json.Marshal(queryReq{
				Prepared: "default", Resamples: 1000000,
				SQL: "SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 1 AND 48",
			})
			if err != nil {
				return err
			}
			req, err := http.NewRequestWithContext(holdCtx, http.MethodPost, base+"/v1/approx", bytes.NewReader(raw))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Client-Id", "holder")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			_ = resp.Body.Close()
			return fmt.Errorf("holder answered %d before the burst was done", resp.StatusCode)
		}()
	}()
	held := time.Now().Add(30 * time.Second)
	for {
		sresp, err := http.Get(base + "/statusz")
		if err != nil {
			t.Fatalf("GET /statusz: %v", err)
		}
		var st struct {
			InFlight int64 `json:"in_flight"`
		}
		err = json.NewDecoder(sresp.Body).Decode(&st)
		_ = sresp.Body.Close()
		if err != nil {
			t.Fatalf("decode /statusz: %v", err)
		}
		if st.InFlight == smokeConcurrent {
			break
		}
		if time.Now().After(held) {
			t.Fatal("the holder never took the admission slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	type burstResult struct {
		code int
		kind string
	}
	start := make(chan struct{})
	results := make(chan burstResult, smokeBurst)
	for i := 0; i < smokeBurst; i++ {
		go func(i int) {
			var r burstResult
			defer func() { results <- r }() // sent even when post fails the test
			<-start
			burstStmt := fmt.Sprintf(
				"SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN %d AND 4000", 100+i)
			code, body, _ := post(fmt.Sprintf("burst-%d", i), "/v1/approx", queryReq{
				Prepared: "default", SQL: burstStmt, Resamples: 2000, TimeoutMS: 30000,
			})
			r = burstResult{code, kindOf(body)}
		}(i)
	}
	close(start)
	counts := map[int]int{}
	kinds := map[string]int{}
	for got := 0; got < smokeBurst; got++ {
		if got == smokeBurst-smokeQueue {
			// Only the queued requests still wait, and they wait for
			// the slot the holder keeps.
			stopHolder()
		}
		var r burstResult
		select {
		case r = <-results:
		case <-time.After(15 * time.Second):
			// A gate that queues without bound leaves every burst
			// request waiting: free the slot and let the counts tell.
			stopHolder()
			r = <-results
		}
		counts[r.code]++
		if r.code == http.StatusTooManyRequests {
			kinds[r.kind]++
		}
	}
	if err := <-holderDone; !errors.Is(err, context.Canceled) {
		t.Errorf("holder: %v, want it canceled by the client once the burst was answered", err)
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Errorf("burst of %d against capacity %d+%d shed nothing: %v",
			smokeBurst, smokeConcurrent, smokeQueue, counts)
	}
	if counts[http.StatusOK] == 0 {
		t.Errorf("burst of %d all failed: %v", smokeBurst, counts)
	}
	for code := range counts {
		if code != http.StatusOK && code != http.StatusTooManyRequests {
			t.Errorf("unexpected status %d in burst: %v", code, counts)
		}
	}
	if kinds["overloaded"] == 0 || kinds["quota-exceeded"] != 0 {
		t.Errorf("capacity burst shed kinds = %v, want only overloaded", kinds)
	}

	// Quota exhaustion: one hog sends sequential distinct cheap queries,
	// so the gate (which only sheds under concurrency) never fires — the
	// 429s past the burst allowance are the quota's, and they say so.
	quotaSheds := 0
	for i := 0; i < smokeQuotaBurst+3; i++ {
		hogStmt := fmt.Sprintf("SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN %d AND 500", i+1)
		code, body, hdr := post("hog", "/v1/query", queryReq{SQL: hogStmt})
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			quotaSheds++
			if k := kindOf(body); k != "quota-exceeded" {
				t.Errorf("hog shed kind = %q, want quota-exceeded (distinct from capacity)", k)
			}
			if hdr.Get("Retry-After") == "" {
				t.Error("quota shed missing Retry-After")
			}
		default:
			t.Errorf("hog request %d: status %d (%v)", i, code, body)
		}
	}
	if quotaSheds == 0 {
		t.Errorf("hog was never quota-shed after its burst of %d", smokeQuotaBurst)
	}

	// The scrape surface is up and carries the counters just exercised.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mdata, err := io.ReadAll(mresp.Body)
	_ = mresp.Body.Close()
	if err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d err %v", mresp.StatusCode, err)
	}
	metrics := string(mdata)
	for _, series := range []string{
		"aqppp_cache_hits_total", "aqppp_quota_shed_total",
		"aqppp_gate_shed_total", "aqppp_http_request_duration_seconds_bucket",
		"aqppp_shard_rows", "aqppp_shards_pruned_total",
		"aqppp_shard_scan_duration_seconds_bucket",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	// SIGTERM drains cleanly: exit status 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drain exit: %v (want status 0)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	fmt.Fprintln(os.Stderr, "smoke: burst outcome", counts, "quota sheds", quotaSheds)
}

// syncBuffer is a bytes.Buffer safe for the write-from-copier /
// read-from-test pattern in the restart smoke.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestServeStoreRestartSmoke is the persistence leg of the binary smoke:
// a first server builds a handle and -saves the store container, a second
// server restarts from -data alone, and the answers must line up — the
// exact SUM bit-identically, and the approx point estimate bit-identically
// too, because the estimate is pre(D) + (q̂(S) − prê(S)) over the persisted
// sample and cube (only the bootstrap CI is randomized). The restart must
// be a metadata load: no rebuild, and store cache metrics visible.
func TestServeStoreRestartSmoke(t *testing.T) {
	if os.Getenv("AQPPP_SERVER_SMOKE") == "" {
		t.Skip("set AQPPP_SERVER_SMOKE=1 to run the binary smoke test")
	}

	dir := t.TempDir()
	bin := filepath.Join(dir, "aqppp-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	storePath := filepath.Join(dir, "lineitem.aqps")

	// start launches the binary with args, waits for the address line on
	// stdout, and returns the process + base URL + captured stderr. The
	// buffer is locked because exec's pipe copier writes it from its own
	// goroutine while the test reads.
	start := func(args ...string) (*exec.Cmd, string, *syncBuffer) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		errBuf := &syncBuffer{}
		cmd.Stderr = io.MultiWriter(os.Stderr, errBuf)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		got := make(chan string, 1)
		go func() {
			lines := bufio.NewScanner(stdout)
			for lines.Scan() {
				if rest, ok := strings.CutPrefix(lines.Text(), "listening on "); ok {
					got <- rest
					return
				}
			}
			got <- ""
		}()
		var addr string
		select {
		case addr = <-got:
		case <-time.After(60 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatal("server never announced its address")
		}
		if addr == "" {
			_ = cmd.Process.Kill()
			t.Fatalf("no listening line; stderr:\n%s", errBuf.String())
		}
		return cmd, "http://" + addr, errBuf
	}
	stop := func(cmd *exec.Cmd) {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("drain exit: %v (want status 0)", err)
			}
		case <-time.After(30 * time.Second):
			_ = cmd.Process.Kill()
			t.Fatal("server did not exit after SIGTERM")
		}
	}
	post := func(base, path string, body any) (int, map[string]any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	type queryReq struct {
		SQL      string `json:"sql,omitempty"`
		Prepared string `json:"prepared,omitempty"`
	}
	exactStmt := "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 100 AND 4000"

	// Leg 1: build, answer, save, drain.
	cmd1, base1, _ := start(
		"-demo", "tpcd", "-rows", "5000", "-seed", "9",
		"-addr", "127.0.0.1:0",
		"-agg", "l_extendedprice", "-dims", "l_orderkey,l_suppkey",
		"-sample-rate", "0.2", "-k", "500",
		"-save", storePath,
		"-drain-timeout", "10s", "-quiet",
	)
	code, body := post(base1, "/v1/query", queryReq{SQL: exactStmt})
	if code != http.StatusOK {
		t.Fatalf("exact query = %d (%v)", code, body)
	}
	exactBefore, ok := body["value"].(float64)
	if !ok {
		t.Fatalf("exact body missing value: %v", body)
	}
	code, body = post(base1, "/v1/approx", queryReq{Prepared: "default", SQL: exactStmt})
	if code != http.StatusOK {
		t.Fatalf("approx query = %d (%v)", code, body)
	}
	approxBefore, ok := body["value"].(float64)
	if !ok {
		t.Fatalf("approx body missing value: %v", body)
	}
	stop(cmd1)
	if _, err := os.Stat(storePath); err != nil {
		t.Fatalf("store container not written: %v", err)
	}

	// Leg 2: restart from the container alone. The stderr log must show
	// the handle restored (not rebuilt), and both answers must match.
	cmd2, base2, errBuf := start(
		"-data", storePath, "-addr", "127.0.0.1:0",
		"-drain-timeout", "10s", "-quiet",
	)
	defer func() {
		if cmd2.Process != nil {
			_ = cmd2.Process.Kill()
		}
	}()
	code, body = post(base2, "/v1/query", queryReq{SQL: exactStmt})
	if code != http.StatusOK {
		t.Fatalf("restarted exact query = %d (%v)", code, body)
	}
	if got := body["value"].(float64); got != exactBefore {
		t.Errorf("exact answer drifted across restart: %v != %v", got, exactBefore)
	}
	code, body = post(base2, "/v1/approx", queryReq{Prepared: "default", SQL: exactStmt})
	if code != http.StatusOK {
		t.Fatalf("restarted approx query = %d (%v)", code, body)
	}
	if got := body["value"].(float64); got != approxBefore {
		t.Errorf("approx estimate drifted across restart: %v != %v", got, approxBefore)
	}
	if hw, ok := body["half_width"].(float64); !ok || !(hw > 0) {
		t.Errorf("restarted approx missing positive half_width: %v", body["half_width"])
	}

	// The restart log proves no rebuild happened and the handle survived.
	logs := errBuf.String()
	if !strings.Contains(logs, "no rebuild") {
		t.Errorf("restart log missing open-store line:\n%s", logs)
	}
	if !strings.Contains(logs, `handle "default" restored from store`) {
		t.Errorf("restart log missing restored-handle line:\n%s", logs)
	}
	if strings.Contains(logs, "preparing handle") {
		t.Errorf("restart rebuilt a handle it should have restored:\n%s", logs)
	}

	// Store metrics are exposed once a store-backed table is serving.
	mresp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	mdata, err := io.ReadAll(mresp.Body)
	_ = mresp.Body.Close()
	if err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d err %v", mresp.StatusCode, err)
	}
	for _, series := range []string{
		"aqppp_store_cache_hits_total", "aqppp_store_cache_misses_total",
		"aqppp_store_cache_resident_bytes", "aqppp_store_file_bytes",
	} {
		if !strings.Contains(string(mdata), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	stop(cmd2)
}

// TestServeContractSmoke is the error-contract leg of the binary smoke:
// a feasible contract must answer 200 inside its own stated bound, an
// impossible one must be rejected 422 with the tightest achievable
// error in the body (no scan work spent), /v1/progressive must stream
// well-formed SSE rounds ending in a terminal "done" event, and a
// client that walks away mid-stream must surface as a "canceled" error
// in /metrics alongside the contract counters.
func TestServeContractSmoke(t *testing.T) {
	if os.Getenv("AQPPP_SERVER_SMOKE") == "" {
		t.Skip("set AQPPP_SERVER_SMOKE=1 to run the binary smoke test")
	}

	bin := filepath.Join(t.TempDir(), "aqppp-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin,
		"-demo", "tpcd", "-rows", "5000", "-seed", "9",
		"-addr", "127.0.0.1:0",
		"-agg", "l_extendedprice", "-dims", "l_orderkey,l_suppkey",
		"-sample-rate", "0.2", "-k", "500",
		"-drain-timeout", "10s", "-quiet",
	)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if cmd.Process != nil {
			_ = cmd.Process.Kill()
		}
	}()
	got := make(chan string, 1)
	go func() {
		lines := bufio.NewScanner(stdout)
		for lines.Scan() {
			if rest, ok := strings.CutPrefix(lines.Text(), "listening on "); ok {
				got <- rest
				return
			}
		}
		got <- ""
	}()
	var addr string
	select {
	case addr = <-got:
	case <-time.After(30 * time.Second):
		t.Fatal("server never announced its address")
	}
	if addr == "" {
		t.Fatal("no listening line on stdout")
	}
	base := "http://" + addr

	post := func(path string, body any) (int, map[string]any) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out
	}

	type contractReq struct {
		SQL         string  `json:"sql"`
		Prepared    string  `json:"prepared"`
		MaxRelError float64 `json:"max_rel_error,omitempty"`
		StepRows    int     `json:"step_rows,omitempty"`
		MaxRounds   int     `json:"max_rounds,omitempty"`
	}
	stmt := "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 100 AND 4000"

	// A feasible contract answers within its own bound. COUNT over the
	// Zipf head (keys 1-10 hold ~94% of the rows) is the stable query at
	// this sample rate; the heavy-tailed SUM over the sparse key tail is
	// what the infeasible leg below rejects.
	countStmt := "SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN 1 AND 10"
	code, body := post("/v1/contract", contractReq{Prepared: "default", SQL: countStmt, MaxRelError: 0.2})
	if code != http.StatusOK {
		t.Fatalf("contract = %d (%v)", code, body)
	}
	val, _ := body["value"].(float64)
	hw, _ := body["half_width"].(float64)
	if val == 0 || hw > 0.2*val {
		t.Errorf("contract answer outside its bound: %v ± %v", val, hw)
	}
	if strat, _ := body["strategy"].(string); strat == "" {
		t.Errorf("contract answer carries no strategy: %v", body)
	}

	// An impossible bound is rejected 422 with retry guidance.
	code, body = post("/v1/contract", contractReq{Prepared: "default", SQL: stmt, MaxRelError: 1e-10})
	if code != 422 {
		t.Fatalf("impossible contract = %d (%v), want 422", code, body)
	}
	e, _ := body["error"].(map[string]any)
	if k, _ := e["kind"].(string); k != "contract-infeasible" {
		t.Errorf("rejection kind = %q, want contract-infeasible", k)
	}
	ta, _ := e["tightest_achievable"].(map[string]any)
	if abs, _ := ta["abs"].(float64); abs <= 0 {
		t.Errorf("422 body missing positive tightest_achievable.abs: %v", body)
	}

	// The progressive stream frames as SSE and terminates with "done".
	raw, err := json.Marshal(contractReq{Prepared: "default", SQL: stmt, MaxRelError: 0.2, StepRows: 500})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/progressive", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		_ = resp.Body.Close()
		t.Fatalf("progressive = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("progressive Content-Type = %q, want text/event-stream", ct)
	}
	stream, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(stream)
	if !strings.Contains(text, "event: round\n") {
		t.Errorf("stream has no round events:\n%s", text)
	}
	// The final event must be a well-formed done carrying a stop reason.
	idx := strings.LastIndex(text, "event: done\ndata: ")
	if idx < 0 {
		t.Fatalf("stream has no done event:\n%s", text)
	}
	doneLine := text[idx+len("event: done\ndata: "):]
	doneLine = strings.TrimRight(doneLine, "\n")
	var done map[string]any
	if err := json.Unmarshal([]byte(doneLine), &done); err != nil {
		t.Fatalf("done event is not JSON (%q): %v", doneLine, err)
	}
	if r, _ := done["reason"].(string); r == "" {
		t.Errorf("done event missing reason: %v", done)
	}
	if _, ok := done["value"].(float64); !ok {
		t.Errorf("done event missing value: %v", done)
	}

	// A client that disconnects mid-stream must be counted as canceled.
	raw, err = json.Marshal(contractReq{Prepared: "default", SQL: stmt, StepRows: 64, MaxRounds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(base+"/v1/progressive", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 64)
	if _, err := resp.Body.Read(one); err != nil {
		t.Fatalf("never saw the first streamed byte: %v", err)
	}
	_ = resp.Body.Close() // walk away mid-stream

	deadline := time.Now().Add(10 * time.Second)
	for {
		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatalf("GET /metrics: %v", err)
		}
		mdata, err := io.ReadAll(mresp.Body)
		_ = mresp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		metrics := string(mdata)
		if strings.Contains(metrics, `aqppp_errors_total{kind="canceled"}`) {
			for _, series := range []string{
				"aqppp_contract_met_total", "aqppp_contract_infeasible_total",
				"aqppp_progressive_round_duration_seconds_bucket",
			} {
				if !strings.Contains(metrics, series) {
					t.Errorf("/metrics missing %s", series)
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mid-stream disconnect never surfaced as canceled in /metrics")
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Clean SIGTERM drain.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	go func() { done2 <- cmd.Wait() }()
	select {
	case err := <-done2:
		if err != nil {
			t.Errorf("drain exit: %v (want status 0)", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
}

// TestServeFleetSmoke is the multi-process distributed smoke: two real
// replica processes each owning one range slice of the demo table, a
// coordinator process that dials them and fronts /v1/query, and a
// single -shards 2 process as the oracle. The coordinator's exact and
// approximate answers must be bit-identical to the oracle's (the
// replicas derive the same per-shard prepare seeds and budgets the
// in-process path uses), /statusz must render the fleet, and killing a
// replica must turn full-range queries into typed 503 "unavailable"
// sheds — never silent partial sums. Gated like the other binary
// smokes behind AQPPP_SERVER_SMOKE=1.
func TestServeFleetSmoke(t *testing.T) {
	if os.Getenv("AQPPP_SERVER_SMOKE") == "" {
		t.Skip("set AQPPP_SERVER_SMOKE=1 to run the binary smoke test")
	}

	bin := filepath.Join(t.TempDir(), "aqppp-serve")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	start := func(args ...string) (*exec.Cmd, string) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if cmd.Process != nil {
				_ = cmd.Process.Kill()
				_ = cmd.Wait()
			}
		})
		got := make(chan string, 1)
		go func() {
			lines := bufio.NewScanner(stdout)
			for lines.Scan() {
				if rest, ok := strings.CutPrefix(lines.Text(), "listening on "); ok {
					got <- rest
					return
				}
			}
			got <- ""
		}()
		var addr string
		select {
		case addr = <-got:
		case <-time.After(60 * time.Second):
			t.Fatal("server never announced its address")
		}
		if addr == "" {
			t.Fatal("no listening line on stdout")
		}
		return cmd, "http://" + addr
	}
	stop := func(cmd *exec.Cmd, role string) {
		t.Helper()
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s drain exit: %v (want status 0)", role, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not exit after SIGTERM", role)
		}
	}
	post := func(base, path string, body any) (int, map[string]any, http.Header) {
		t.Helper()
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var out map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&out)
		return resp.StatusCode, out, resp.Header
	}

	// Every data-owning process loads the identical deterministic demo
	// table; the replicas differ only in which slice they keep.
	dataArgs := []string{
		"-demo", "tpcd", "-rows", "5000", "-seed", "9",
		"-agg", "l_extendedprice", "-dims", "l_orderkey,l_suppkey",
		"-sample-rate", "0.2", "-k", "500",
		"-addr", "127.0.0.1:0", "-drain-timeout", "10s", "-quiet",
	}
	rep0, base0 := start(append([]string{"-replica", "0/2"}, dataArgs...)...)
	rep1, base1 := start(append([]string{"-replica", "1/2"}, dataArgs...)...)
	oracleCmd, oracleBase := start(append([]string{"-shards", "2"}, dataArgs...)...)
	coordCmd, coordBase := start(
		"-coordinator", "-peers", base0+","+base1,
		"-replica-timeout", "10s", "-replica-retries", "1",
		"-addr", "127.0.0.1:0", "-drain-timeout", "10s", "-quiet",
	)

	type queryReq struct {
		SQL      string `json:"sql,omitempty"`
		Prepared string `json:"prepared,omitempty"`
	}
	valueOf := func(body map[string]any, key string) float64 {
		t.Helper()
		v, ok := body[key].(float64)
		if !ok {
			t.Fatalf("body missing %s: %v", key, body)
		}
		return v
	}
	kindOf := func(body map[string]any) string {
		e, _ := body["error"].(map[string]any)
		k, _ := e["kind"].(string)
		return k
	}

	// Exact and approximate answers over the network must equal the
	// in-process sharded oracle's bit for bit.
	for _, stmt := range []string{
		"SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 100 AND 4000",
		"SELECT COUNT(*) FROM lineitem WHERE l_orderkey BETWEEN 700 AND 2600",
		"SELECT AVG(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 40 AND 4900",
	} {
		code, want, _ := post(oracleBase, "/v1/query", queryReq{SQL: stmt})
		if code != http.StatusOK {
			t.Fatalf("oracle exact %q = %d (%v)", stmt, code, want)
		}
		code, got, _ := post(coordBase, "/v1/query", queryReq{SQL: stmt})
		if code != http.StatusOK {
			t.Fatalf("coordinator exact %q = %d (%v)", stmt, code, got)
		}
		if gv, wv := valueOf(got, "value"), valueOf(want, "value"); gv != wv {
			t.Errorf("exact %q: coordinator %v != oracle %v", stmt, gv, wv)
		}
	}
	approxStmt := "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 100 AND 4000"
	code, want, _ := post(oracleBase, "/v1/approx", queryReq{Prepared: "default", SQL: approxStmt})
	if code != http.StatusOK {
		t.Fatalf("oracle approx = %d (%v)", code, want)
	}
	code, got, _ := post(coordBase, "/v1/approx", queryReq{Prepared: "default", SQL: approxStmt})
	if code != http.StatusOK {
		t.Fatalf("coordinator approx = %d (%v)", code, got)
	}
	if gv, wv := valueOf(got, "value"), valueOf(want, "value"); gv != wv {
		t.Errorf("approx value: coordinator %v != oracle %v", gv, wv)
	}
	if gh, wh := valueOf(got, "half_width"), valueOf(want, "half_width"); gh != wh {
		t.Errorf("approx half_width: coordinator %v != oracle %v", gh, wh)
	}

	// The coordinator's /statusz renders fleet topology.
	sresp, err := http.Get(coordBase + "/statusz")
	if err != nil {
		t.Fatalf("GET /statusz: %v", err)
	}
	sdata, err := io.ReadAll(sresp.Body)
	_ = sresp.Body.Close()
	if err != nil || sresp.StatusCode != http.StatusOK {
		t.Fatalf("/statusz status %d err %v", sresp.StatusCode, err)
	}
	for _, needle := range []string{`"dist"`, `"topology_generation"`, `"replicas"`} {
		if !strings.Contains(string(sdata), needle) {
			t.Errorf("/statusz missing %s:\n%s", needle, sdata)
		}
	}

	// Kill one replica outright (no drain). A fresh full-range query
	// needs its stratum, so the coordinator must shed 503 "unavailable"
	// rather than return a sum over half the table.
	if err := rep1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_ = rep1.Wait()
	lossStmt := "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 1 AND 5000"
	code, body, _ := post(coordBase, "/v1/query", queryReq{SQL: lossStmt})
	if code != http.StatusServiceUnavailable {
		t.Fatalf("exact after replica kill = %d (%v), want 503", code, body)
	}
	if k := kindOf(body); k != "unavailable" {
		t.Errorf("replica-loss kind = %q, want unavailable", k)
	}

	stop(coordCmd, "coordinator")
	stop(rep0, "replica 0")
	stop(oracleCmd, "oracle")
}
