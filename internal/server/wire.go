// Package server is aqppp's HTTP serving subsystem: a stdlib-only JSON
// API over one *aqppp.DB, fronted by an admission controller (bounded
// concurrency, bounded deadline-aware wait queue, immediate load
// shedding) and closed out by a graceful drain. It is the boundary the
// ROADMAP's "heavy traffic" north star needs: per-request deadlines map
// onto the executor's Budget, client disconnects propagate as context
// cancellation into the engine's per-block cancel checks, and every
// failure maps the unified error taxonomy onto a stable HTTP status
// with a machine-readable JSON body.
//
// Endpoints:
//
//	POST   /v1/query           exact answer over a registered table
//	POST   /v1/approx          approximate answer via a named prepared handle
//	POST   /v1/contract        answer under an a-priori error contract (422 if infeasible)
//	POST   /v1/progressive     SSE stream of refining estimates (online aggregation)
//	POST   /v1/prepare         build and name a prepared handle
//	DELETE /v1/prepared/{name} forget a prepared handle
//	GET    /v1/shard           replica handshake (fleet-internal; see dist.go)
//	POST   /v1/partial         one stratum's distributed partial (fleet-internal)
//	POST   /v1/quota/lease     shared-quota token lease (fleet-internal)
//	GET    /healthz            liveness (always 200 while the process serves)
//	GET    /readyz             readiness (503 once draining)
//	GET    /statusz            uptime, traffic counters, latency histograms
//	GET    /metrics            the same counters in Prometheus text format
//
// In front of the admission gate sit a response cache (LRU by bytes,
// TTL, keyed on the plan and the prepared-handle epoch — see cache.go) and a per-client token-bucket quota (quota.go): a repeated
// query is answered from the cache without consuming gate capacity or
// quota tokens, and a client hammering distinct queries exhausts its
// own bucket (429, kind "quota-exceeded") before it can crowd the
// shared queue.
package server

import (
	"net/http"
	"time"

	"aqppp"
	"aqppp/internal/engine"
)

// statusClientClosedRequest is the non-standard 499 (nginx convention)
// reported when the client's context canceled the query; the client is
// usually gone, but the code keeps access logs and metrics honest.
const statusClientClosedRequest = 499

// QueryRequest is the body of POST /v1/query and POST /v1/approx.
type QueryRequest struct {
	// SQL is the statement to answer.
	SQL string `json:"sql"`
	// Prepared names the handle to answer through (/v1/approx only).
	Prepared string `json:"prepared,omitempty"`
	// TimeoutMS bounds the request's wall time — queue wait included —
	// and maps onto the executor Budget's Timeout. 0 uses the server's
	// default; the server's MaxTimeout caps it either way.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Resamples switches /v1/approx to an empirical bootstrap interval
	// with that many replicates (0 keeps the closed form).
	Resamples int `json:"resamples,omitempty"`
}

// GroupJSON is one group's row in a response.
type GroupJSON struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
	// Rows is set on exact group-by answers.
	Rows int `json:"rows,omitempty"`
	// HalfWidth is set on approximate group-by answers — always, even
	// when the interval is exactly zero (the cube covered the group), so
	// clients can rely on its presence. Pointer-typed so exact answers
	// omit it instead of reporting a misleading 0.
	HalfWidth *float64 `json:"half_width,omitempty"`
	// Pre names the precomputed aggregate that anchored the group.
	Pre string `json:"pre,omitempty"`
}

// QueryResponse is the success body of POST /v1/query and /v1/approx.
type QueryResponse struct {
	RequestID string  `json:"request_id"`
	Value     float64 `json:"value"`
	// HalfWidth/Confidence/UsedPrecomputed/Pre are approx-only.
	// HalfWidth and Confidence are pointer-typed so an approx answer
	// always carries them — a zero-width interval (the cube covered the
	// query exactly) is a meaningful answer, not an absent field — while
	// exact answers omit them entirely.
	HalfWidth       *float64    `json:"half_width,omitempty"`
	Confidence      *float64    `json:"confidence,omitempty"`
	UsedPrecomputed bool        `json:"used_precomputed,omitempty"`
	Pre             string      `json:"pre,omitempty"`
	Groups          []GroupJSON `json:"groups,omitempty"`
	// Partial marks a degraded distributed answer: a replica was lost
	// and the surviving strata answered with a widened interval (opt-in
	// via the coordinator's degraded policy). Partial answers are never
	// cached.
	Partial bool `json:"partial,omitempty"`
	// Cached marks an answer served from the response cache (mirrored in
	// the X-Cache: hit header); ElapsedMS then measures the lookup, not
	// the original computation.
	Cached    bool    `json:"cached,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Strategy and Escalated are contract-only: the ladder rung that
	// answered ("cube", "approx", "bootstrap", "exact") and whether the
	// planner's first choice missed the bound at run time.
	Strategy  string `json:"strategy,omitempty"`
	Escalated bool   `json:"escalated,omitempty"`
}

// ContractRequest is the body of POST /v1/contract: a statement plus
// the error the client can tolerate. At least one of MaxRelError /
// MaxAbsError must be set; when both are, both must hold.
type ContractRequest struct {
	SQL      string `json:"sql"`
	Prepared string `json:"prepared"`
	// MaxRelError bounds half-width / |value| (0.01 = ±1%).
	MaxRelError float64 `json:"max_rel_error,omitempty"`
	// MaxAbsError bounds the half-width in the aggregate's units.
	MaxAbsError float64 `json:"max_abs_error,omitempty"`
	// Confidence is the CI level the bound holds at (default 0.95).
	Confidence float64 `json:"confidence,omitempty"`
	// AllowExact permits escalation to a full exact scan; without it an
	// unreachable bound is rejected 422 instead of silently degrading
	// into a table scan.
	AllowExact bool  `json:"allow_exact,omitempty"`
	TimeoutMS  int64 `json:"timeout_ms,omitempty"`
}

// ProgressiveRequest is the body of POST /v1/progressive. The optional
// contract fields terminate the stream early once met; without them
// the stream runs to sample exhaustion or the round cap.
type ProgressiveRequest struct {
	SQL         string  `json:"sql"`
	Prepared    string  `json:"prepared"`
	MaxRelError float64 `json:"max_rel_error,omitempty"`
	MaxAbsError float64 `json:"max_abs_error,omitempty"`
	Confidence  float64 `json:"confidence,omitempty"`
	// StepRows is the rows added to the sample per round (0 = 2% of the
	// table, at least 1024).
	StepRows int `json:"step_rows,omitempty"`
	// MaxRounds caps the stream (0 = 64).
	MaxRounds int    `json:"max_rounds,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// ProgressiveRoundJSON is the data payload of one "round" SSE event.
type ProgressiveRoundJSON struct {
	Round      int     `json:"round"`
	Value      float64 `json:"value"`
	HalfWidth  float64 `json:"half_width"`
	Confidence float64 `json:"confidence"`
	SampleRows int     `json:"sample_rows"`
	Met        bool    `json:"met,omitempty"`
}

// ProgressiveDoneJSON is the data payload of the terminal "done" SSE
// event: the summary plus why the stream stopped ("contract-met",
// "sample-exhausted", "max-rounds", or "budget-exhausted").
type ProgressiveDoneJSON struct {
	RequestID  string  `json:"request_id"`
	Reason     string  `json:"reason"`
	Rounds     int     `json:"rounds"`
	Value      float64 `json:"value"`
	HalfWidth  float64 `json:"half_width"`
	Confidence float64 `json:"confidence"`
	SampleRows int     `json:"sample_rows"`
	Met        bool    `json:"met,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// PrepareRequest is the body of POST /v1/prepare; it mirrors
// aqppp.PrepareOptions plus the handle name the server registers the
// preparation under.
type PrepareRequest struct {
	Name               string   `json:"name"`
	Table              string   `json:"table"`
	Aggregate          string   `json:"aggregate,omitempty"`
	Dimensions         []string `json:"dimensions"`
	SampleRate         float64  `json:"sample_rate,omitempty"`
	CellBudget         int      `json:"cell_budget,omitempty"`
	Confidence         float64  `json:"confidence,omitempty"`
	Seed               uint64   `json:"seed,omitempty"`
	WithCountCube      bool     `json:"with_count_cube,omitempty"`
	WithMinMax         bool     `json:"with_min_max,omitempty"`
	EqualPartitionOnly bool     `json:"equal_partition_only,omitempty"`
	TimeoutMS          int64    `json:"timeout_ms,omitempty"`
}

// PrepareResponse is the success body of POST /v1/prepare.
type PrepareResponse struct {
	RequestID  string  `json:"request_id"`
	Name       string  `json:"name"`
	Table      string  `json:"table"`
	SampleRows int     `json:"sample_rows"`
	CubeCells  int     `json:"cube_cells"`
	BuildMS    float64 `json:"build_ms"`
}

// ErrorBody is every non-2xx response's JSON shape.
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable failure: Kind is either an
// aqppp.ErrorKind string ("parse", "unknown-table", "unsupported",
// "canceled", "budget-exceeded", "internal") or one of the server-level
// kinds "overloaded" (shed by admission control), "quota-exceeded"
// (shed by the per-client quota — the server has capacity, this client
// is over its rate), "unknown-prepared" (no such handle), and
// "conflict" (handle name taken).
type ErrorDetail struct {
	Kind      string `json:"kind"`
	Message   string `json:"message"`
	RequestID string `json:"request_id"`
	// ParentRequestID echoes the X-Request-Id the caller sent: on a
	// replica, the coordinator request this partial was serving.
	ParentRequestID string `json:"parent_request_id,omitempty"`
	// RetryAfterMS accompanies kind "overloaded", "quota-exceeded", and
	// "unavailable" failures whose cause was a shedding replica; it
	// mirrors the Retry-After header at millisecond resolution.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
	// TightestAchievable accompanies kind "contract-infeasible": the
	// smallest error the planner predicts it could deliver without an
	// exact scan, so the client knows how much to loosen. Absent when
	// the aggregate has no sampling estimator at all.
	TightestAchievable *TightestJSON `json:"tightest_achievable,omitempty"`
}

// TightestJSON is the achievable-error block inside a
// contract-infeasible ErrorDetail.
type TightestJSON struct {
	Abs float64 `json:"abs"`
	// Rel is absent when the pilot value was zero (relative error is
	// undefined around zero).
	Rel *float64 `json:"rel,omitempty"`
}

// statusForKind maps the error taxonomy onto stable HTTP statuses:
//
//	parse               → 400 Bad Request
//	unknown-table       → 404 Not Found
//	unsupported         → 422 Unprocessable Entity
//	contract-infeasible → 422 Unprocessable Entity (+ tightest_achievable in the body)
//	budget-exceeded     → 408 Request Timeout
//	canceled            → 499 Client Closed Request
//	unavailable         → 503 Service Unavailable
//	internal            → 500 Internal Server Error
//
// (Admission sheds are not taxonomy errors; they respond 429 with
// Retry-After before any query work runs.)
func statusForKind(k aqppp.ErrorKind) int {
	switch k {
	case aqppp.ErrParse:
		return http.StatusBadRequest
	case aqppp.ErrUnknownTable:
		return http.StatusNotFound
	case aqppp.ErrUnsupported, aqppp.ErrContractInfeasible:
		return http.StatusUnprocessableEntity
	case aqppp.ErrBudgetExceeded:
		return http.StatusRequestTimeout
	case aqppp.ErrCanceled:
		return statusClientClosedRequest
	case aqppp.ErrUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// exactResponse converts an engine result to the wire shape; the
// answer pipeline stamps the request ID and elapsed time.
func exactResponse(res engine.Result) QueryResponse {
	out := QueryResponse{Value: res.Value}
	for _, g := range res.Groups {
		out.Groups = append(out.Groups, GroupJSON{Key: g.Key, Value: g.Value, Rows: g.Rows})
	}
	return out
}

// approxResponse converts an AQP++ result to the wire shape.
func approxResponse(res aqppp.Result) QueryResponse {
	hw, conf := res.HalfWidth, res.Confidence
	out := QueryResponse{
		Value:           res.Value,
		HalfWidth:       &hw,
		Confidence:      &conf,
		UsedPrecomputed: res.UsedPrecomputed,
		Pre:             res.Pre,
		Partial:         res.Partial,
	}
	for _, g := range res.Groups {
		ghw := g.HalfWidth
		out.Groups = append(out.Groups, GroupJSON{
			Key: g.Key, Value: g.Value, HalfWidth: &ghw, Pre: g.Pre,
		})
	}
	return out
}

// contractResponse converts a contract result to the wire shape.
func contractResponse(res aqppp.ContractResult) QueryResponse {
	out := approxResponse(res.Result)
	out.Strategy = res.Strategy
	out.Escalated = res.Escalated
	return out
}

func toMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
