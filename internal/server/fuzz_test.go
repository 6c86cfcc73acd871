package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"aqppp"
	"aqppp/internal/dist"
	"aqppp/internal/engine"
)

// FuzzPartialWire drives a small replica's POST /v1/partial with
// arbitrary bodies. The handler must never panic; a 200 must decode as
// a dist.PartialResponse, and every other status must carry an
// ErrorBody with a kind. The seeds are TestPartialRunsUnderBudget's
// requests plus one of each other mode. Run it with
//
//	go test -run '^$' -fuzz FuzzPartialWire -fuzztime 5m ./internal/server
func FuzzPartialWire(f *testing.F) {
	db := aqppp.NewDB()
	if err := db.Register(serverDemoTable(500, 7)); err != nil {
		f.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 20, Seed: 3,
	})
	if err != nil {
		f.Fatal(err)
	}
	// The caps keep any one fuzzed request small: at most 1,000
	// replicates and a second of wall time.
	srv := New(db, Config{
		MaxResamples: 1000, DefaultTimeout: time.Second, MaxTimeout: time.Second,
		Replica: &ReplicaRole{Table: "demo", Ident: dist.ShardIdentity{Count: 1}},
	})
	if err := srv.RegisterPrepared("h", prep); err != nil {
		f.Fatal(err)
	}
	seed := func(req dist.PartialRequest) {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	sum := dist.ToWireQuery(engine.Query{Func: engine.Sum, Col: "v"})
	for _, r := range []struct {
		resamples int
		timeoutMS int64
	}{{50, 0}, {2_000_000, 40}, {3_000_001, 0}} {
		seed(dist.PartialRequest{V: dist.WireVersion, Mode: dist.ModeBootstrap, Table: "demo", Handle: "h",
			Query: sum, Resamples: r.resamples, Seed: 1, TimeoutMS: r.timeoutMS})
	}
	ranged := dist.ToWireQuery(engine.Query{Func: engine.Avg, Col: "v",
		Ranges: []engine.Range{{Col: "k", Lo: 10, Hi: 300}}})
	grouped := dist.ToWireQuery(engine.Query{Func: engine.Count, GroupBy: []string{"tier"}})
	seed(dist.PartialRequest{V: dist.WireVersion, Mode: dist.ModeExact, Table: "demo", Query: ranged})
	seed(dist.PartialRequest{V: dist.WireVersion, Mode: dist.ModeExact, Table: "demo", Query: grouped})
	seed(dist.PartialRequest{V: dist.WireVersion, Mode: dist.ModeApprox, Table: "demo", Handle: "h", Query: ranged})
	seed(dist.PartialRequest{V: dist.WireVersion, Mode: dist.ModeGroups, Table: "demo", Handle: "h", Query: grouped})
	handler := srv.Handler()

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/partial", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code == http.StatusOK {
			var pr dist.PartialResponse
			if err := json.Unmarshal(w.Body.Bytes(), &pr); err != nil {
				t.Fatalf("200 body does not decode as a partial response: %v: %q", err, w.Body.Bytes())
			}
			return
		}
		var eb ErrorBody
		if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Kind == "" {
			t.Fatalf("status %d body is not an ErrorBody (%v): %q", w.Code, err, w.Body.Bytes())
		}
	})
}
