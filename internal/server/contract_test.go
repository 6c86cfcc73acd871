package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"aqppp"
)

// contractTestServer builds a server with a registered handle "h" over
// the demo table, started on a loopback listener.
func contractTestServer(t *testing.T, rows int) (*aqppp.DB, *Server, string) {
	t.Helper()
	db := newTestDB(t, rows)
	prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.1, CellBudget: 50, Seed: 11, WithCountCube: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{MaxConcurrent: 4, MaxQueue: 8})
	if err := srv.RegisterPrepared("h", prep); err != nil {
		t.Fatal(err)
	}
	return db, srv, startServer(t, srv)
}

// sse is one parsed Server-Sent Event.
type sse struct {
	event string
	data  map[string]any
}

// readSSE parses an event stream body into its events.
func readSSE(t *testing.T, body *bufio.Reader) []sse {
	t.Helper()
	var events []sse
	var cur sse
	for {
		line, err := body.ReadString('\n')
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			raw := strings.TrimPrefix(line, "data: ")
			if err := json.Unmarshal([]byte(raw), &cur.data); err != nil {
				t.Fatalf("bad SSE data %q: %v", raw, err)
			}
		case line == "" && cur.event != "":
			events = append(events, cur)
			cur = sse{}
		}
		if err != nil {
			return events
		}
	}
}

// TestServerContractEndpoint drives /v1/contract end to end: a feasible
// contract answers 200 within the stated bound (realized against the
// exact answer), carries its strategy, repeats from the cache, and
// shows up in statusz and /metrics.
func TestServerContractEndpoint(t *testing.T) {
	db, srv, base := contractTestServer(t, 20000)
	c := burstClient()
	stmt := "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 400"

	status, body, _ := postJSON(t, c, base+"/v1/contract", ContractRequest{
		Prepared: "h", SQL: stmt, MaxRelError: 0.1,
	})
	if status != http.StatusOK {
		t.Fatalf("contract = %d (%v)", status, body)
	}
	val := body["value"].(float64)
	hw := body["half_width"].(float64)
	if hw > 0.1*math.Abs(val) {
		t.Errorf("answer violates its own contract: hw %v at value %v", hw, val)
	}
	if strat, _ := body["strategy"].(string); strat == "" {
		t.Errorf("contract answer carries no strategy (body %v)", body)
	}
	truth, err := db.Exact(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(val-truth.Value) > 0.25*math.Abs(truth.Value) {
		t.Errorf("contract answer %v too far from exact %v", val, truth.Value)
	}

	// Identical contract: served from the cache.
	status, body, _ = postJSON(t, c, base+"/v1/contract", ContractRequest{
		Prepared: "h", SQL: stmt, MaxRelError: 0.1,
	})
	if status != http.StatusOK || body["cached"] != true {
		t.Errorf("repeat contract = %d cached %v, want 200 from cache", status, body["cached"])
	}
	// A tighter contract over the same statement must not hit that entry.
	status, body, _ = postJSON(t, c, base+"/v1/contract", ContractRequest{
		Prepared: "h", SQL: stmt, MaxRelError: 0.05,
	})
	if status != http.StatusOK {
		t.Fatalf("tighter contract = %d (%v)", status, body)
	}
	if body["cached"] == true {
		t.Error("tighter contract served from the looser contract's cache entry")
	}

	cs := orZero(srv.status().Contract)
	if cs.MetTotal < 2 {
		t.Errorf("contract met counter = %d, want >= 2", cs.MetTotal)
	}
	if cs.InfeasibleTotal != 0 {
		t.Errorf("contract infeasible counter = %d, want 0", cs.InfeasibleTotal)
	}

	// statusz exposes the contract block.
	resp, err := c.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var st StatuszResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if st.Contract == nil || st.Contract.MetTotal < 2 {
		t.Errorf("statusz contract block = %+v, want met_total >= 2", st.Contract)
	}

	// /metrics exposes the counters in Prometheus text format.
	resp, err = c.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw := new(bytes.Buffer)
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	text := raw.String()
	for _, want := range []string{
		"aqppp_contract_met_total",
		"aqppp_contract_infeasible_total",
		"aqppp_contract_escalated_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestServerContractInfeasible pins the rejection path: an impossible
// bound answers 422 with kind contract-infeasible and a
// tightest_achievable block the client can retry with.
func TestServerContractInfeasible(t *testing.T) {
	_, srv, base := contractTestServer(t, 10000)
	c := burstClient()

	status, body, _ := postJSON(t, c, base+"/v1/contract", ContractRequest{
		Prepared: "h", SQL: "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 400",
		MaxRelError: 1e-10,
	})
	if status != http.StatusUnprocessableEntity || errKind(body) != "contract-infeasible" {
		t.Fatalf("impossible contract = %d kind %q, want 422 contract-infeasible", status, errKind(body))
	}
	e, _ := body["error"].(map[string]any)
	ta, _ := e["tightest_achievable"].(map[string]any)
	if ta == nil {
		t.Fatalf("422 body missing tightest_achievable: %v", body)
	}
	abs, _ := ta["abs"].(float64)
	if abs <= 0 {
		t.Errorf("tightest_achievable.abs = %v, want positive guidance", abs)
	}
	if infeasible := orZero(srv.status().Contract).InfeasibleTotal; infeasible < 1 {
		t.Errorf("infeasible counter = %d, want >= 1", infeasible)
	}

	// Missing bounds and missing handle are plain 400s, not contract
	// rejections.
	status, body, _ = postJSON(t, c, base+"/v1/contract", ContractRequest{
		Prepared: "h", SQL: "SELECT SUM(v) FROM demo",
	})
	if status != http.StatusBadRequest || errKind(body) != "parse" {
		t.Errorf("boundless contract = %d kind %q, want 400 parse", status, errKind(body))
	}
	status, body, _ = postJSON(t, c, base+"/v1/contract", ContractRequest{
		SQL: "SELECT SUM(v) FROM demo", MaxRelError: 0.1,
	})
	if status != http.StatusBadRequest || errKind(body) != "parse" {
		t.Errorf("handleless contract = %d kind %q, want 400 parse", status, errKind(body))
	}
}

// TestServerProgressiveSSE streams /v1/progressive under a contract and
// checks the SSE framing: Content-Type, at least one "round" event with
// monotonically non-widening half-widths, and a terminal "done" event
// whose reason is contract-met with the bound actually satisfied.
func TestServerProgressiveSSE(t *testing.T) {
	_, srv, base := contractTestServer(t, 20000)
	c := burstClient()

	raw, err := json.Marshal(ProgressiveRequest{
		Prepared: "h", SQL: "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 400",
		MaxRelError: 0.2, StepRows: 1500, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(base+"/v1/progressive", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("progressive = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	events := readSSE(t, bufio.NewReader(resp.Body))
	if len(events) < 2 {
		t.Fatalf("stream produced %d events, want rounds + done", len(events))
	}
	last := events[len(events)-1]
	if last.event != "done" {
		t.Fatalf("terminal event = %q, want done (events %v)", last.event, events)
	}
	prevHW := math.Inf(1)
	rounds := 0
	for _, ev := range events[:len(events)-1] {
		if ev.event != "round" {
			t.Fatalf("mid-stream event = %q, want round", ev.event)
		}
		rounds++
		hw := ev.data["half_width"].(float64)
		if hw > prevHW {
			t.Errorf("round %v widened: hw %v after %v", ev.data["round"], hw, prevHW)
		}
		prevHW = hw
	}
	if last.data["reason"] != "contract-met" || last.data["met"] != true {
		t.Errorf("done = %v, want reason contract-met with met", last.data)
	}
	if got := int(last.data["rounds"].(float64)); got != rounds {
		t.Errorf("done rounds = %d, streamed %d", got, rounds)
	}
	val := last.data["value"].(float64)
	hw := last.data["half_width"].(float64)
	if hw > 0.2*math.Abs(val) {
		t.Errorf("contract-met stream ended outside its bound: hw %v at %v", hw, val)
	}
	if id, _ := last.data["request_id"].(string); id == "" {
		t.Error("done event missing request_id")
	}
	if cs := orZero(srv.status().Contract); cs.MetTotal < 1 || cs.ProgressiveRounds < int64(rounds) {
		t.Errorf("contract metrics after stream: met %d rounds %d, want >= 1 / >= %d", cs.MetTotal, cs.ProgressiveRounds, rounds)
	}
}

// TestServerProgressiveDisconnect tears a client away mid-stream and
// requires the server to unwind: the admission slot frees and the
// canceled counter bumps, same as every other torn-down request.
func TestServerProgressiveDisconnect(t *testing.T) {
	_, srv, base := contractTestServer(t, 20000)
	c := burstClient()

	raw, err := json.Marshal(ProgressiveRequest{
		// No contract and a tiny step: the stream would run many rounds.
		Prepared: "h", SQL: "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 400",
		StepRows: 256, MaxRounds: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/progressive", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one round so the stream is demonstrably underway, then drop.
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("never saw the first round: %v", err)
	}
	cancel()
	_ = resp.Body.Close()

	waitFor(t, 5*time.Second, func() bool { return srv.Gate().InFlight() == 0 })
	waitFor(t, 2*time.Second, func() bool { return srv.status().ErrorKinds["canceled"] >= 1 })
}
