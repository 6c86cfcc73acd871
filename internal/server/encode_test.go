package server

import (
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"aqppp"
	"aqppp/internal/engine"
)

// infTable is a 2,000-row table whose measure holds one +Inf, at k = 250.
func infTable() *engine.Table {
	const n = 2000
	k := make([]int64, n)
	v := make([]float64, n)
	for i := range k {
		k[i] = int64(i%500 + 1)
		v[i] = float64(i % 37)
	}
	v[249] = math.Inf(1)
	return engine.MustNewTable("inf", engine.NewIntColumn("k", k), engine.NewFloatColumn("v", v))
}

// TestNonFiniteAnswerIsInternalError: JSON cannot carry ±Inf or NaN, so
// an answer holding one must come back as a 500 of kind "internal" that
// names the field — fresh and from the cache alike, each counted by
// kind — never as a 200 whose body failed to encode after the header
// went out.
func TestNonFiniteAnswerIsInternalError(t *testing.T) {
	db := aqppp.NewDB()
	if err := db.Register(infTable()); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{MaxConcurrent: 2, MaxQueue: 4})
	base := startServer(t, srv)
	c := burstClient()
	// A full-rate sample holds the +Inf row, so the approximate answers
	// are not finite either.
	status, body, _ := postJSON(t, c, base+"/v1/prepare", PrepareRequest{
		Name: "h", Table: "inf", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 1, CellBudget: 20, Seed: 3, WithCountCube: true,
	})
	if status != http.StatusOK {
		t.Fatalf("prepare = %d (%v)", status, body)
	}
	for _, c2 := range []struct {
		name, path string
		req        QueryRequest
	}{
		{"exact SUM", "/v1/query", QueryRequest{SQL: "SELECT SUM(v) FROM inf"}},
		{"approx SUM", "/v1/approx", QueryRequest{Prepared: "h", SQL: "SELECT SUM(v) FROM inf WHERE k BETWEEN 100 AND 400"}},
		{"approx AVG", "/v1/approx", QueryRequest{Prepared: "h", SQL: "SELECT AVG(v) FROM inf WHERE k BETWEEN 100 AND 400"}},
	} {
		for _, round := range []string{"fresh", "repeat"} {
			status, body, _ := postJSON(t, c, base+c2.path, c2.req)
			if status != http.StatusInternalServerError || errKind(body) != aqppp.ErrInternal.String() {
				t.Errorf("%s (%s): status %d body %v, want 500 kind %q", c2.name, round, status, body, aqppp.ErrInternal)
				continue
			}
			msg, _ := body["error"].(map[string]any)["message"].(string)
			if !strings.Contains(msg, `"value"`) && !strings.Contains(msg, `"half_width"`) {
				t.Errorf("%s (%s): message %q names no non-finite field", c2.name, round, msg)
			}
		}
	}
	if got := srv.status().ErrorKinds[aqppp.ErrInternal.String()]; got != 6 {
		t.Errorf("internal errors counted = %d, want 6", got)
	}
}

// TestNonFiniteNamesField: the failure message names a nested field by
// its JSON path.
func TestNonFiniteNamesField(t *testing.T) {
	hw := math.NaN()
	resp := QueryResponse{Value: 1, Groups: []GroupJSON{{Key: "a", Value: 2}, {Key: "b", Value: 3, HalfWidth: &hw}}}
	if field, f, ok := nonFinite(reflect.ValueOf(resp), ""); !ok || field != "groups[1].half_width" || !math.IsNaN(f) {
		t.Errorf("nonFinite = %q, %v, %v; want groups[1].half_width, NaN, true", field, f, ok)
	}
	if field, _, ok := nonFinite(reflect.ValueOf(QueryResponse{Value: 1}), ""); ok {
		t.Errorf("finite response reported %q", field)
	}
}
