package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

	"aqppp"
	"aqppp/internal/dist"
	"aqppp/internal/exec"
)

// reqInfo travels with one request through the handler chain. parent
// is the X-Request-Id the caller sent, if any: a coordinator sends its
// own request's id with every partial (see admit), so a replica's log
// line and error bodies name the query they belong to.
type reqInfo struct {
	id, parent string
	endpoint   string
	start      time.Time
}

// errorDetail starts an error body for this request.
func (ri *reqInfo) errorDetail(kind, msg string) ErrorDetail {
	return ErrorDetail{Kind: kind, Message: msg, RequestID: ri.id, ParentRequestID: ri.parent}
}

// statusWriter records the status code written so the access log and
// metrics see what the client saw.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying flusher so the SSE progressive
// stream can push each round as it lands instead of letting the stdlib
// buffer coalesce the whole stream into one write at handler return.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// routes wires the endpoint table.
func (s *Server) routes() {
	s.mux.HandleFunc("POST /v1/query", s.instrument("/v1/query", s.handleQuery))
	s.mux.HandleFunc("POST /v1/approx", s.instrument("/v1/approx", s.handleApprox))
	s.mux.HandleFunc("POST /v1/contract", s.instrument("/v1/contract", s.handleContract))
	s.mux.HandleFunc("POST /v1/progressive", s.instrument("/v1/progressive", s.handleProgressive))
	s.mux.HandleFunc("POST /v1/prepare", s.instrument("/v1/prepare", s.handlePrepare))
	s.mux.HandleFunc("DELETE /v1/prepared/{name}", s.instrument("/v1/prepared", s.handleDropPrepared))
	s.mux.HandleFunc("GET /v1/shard", s.instrument("/v1/shard", s.handleShardHello))
	s.mux.HandleFunc("POST /v1/partial", s.instrument("/v1/partial", s.handlePartial))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statusz", s.instrument("/statusz", s.handleStatusz))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
}

// instrument assigns the request ID, captures the status, and feeds the
// access log and per-endpoint metrics on completion.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request, *reqInfo)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ri := &reqInfo{id: s.nextRequestID(), parent: r.Header.Get("X-Request-Id"), endpoint: endpoint, start: time.Now()}
		sw := &statusWriter{ResponseWriter: w}
		sw.Header().Set("X-Request-Id", ri.id)
		h(sw, r, ri)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		d := time.Since(ri.start)
		s.met.observe(endpoint, sw.status, d)
		s.logAccess(ri, r.Method, r.URL.Path, sw.status, d)
	}
}

// writeJSON writes a JSON response body. The body is encoded before
// the header goes out, so a value JSON cannot carry — an answer whose
// value or half-width is ±Inf or NaN — becomes a 500 of kind "internal"
// naming the field, not a 200 with an empty body. It reports whether v
// encoded.
func (s *Server) writeJSON(w http.ResponseWriter, ri *reqInfo, status int, v any) bool {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		msg := fmt.Sprintf("response not encodable: %v", err)
		if field, f, ok := nonFinite(reflect.ValueOf(v), ""); ok {
			msg = fmt.Sprintf("response field %q is %v, which JSON cannot encode", field, f)
		}
		s.writeServerError(w, ri, http.StatusInternalServerError, aqppp.ErrInternal.String(), msg)
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client is gone: nobody is left to tell.
	_, _ = w.Write(buf.Bytes())
	return true
}

// nonFinite finds the first ±Inf or NaN float in v and names it by its
// JSON path below prefix ("value", "groups[2].half_width").
func nonFinite(v reflect.Value, prefix string) (string, float64, bool) {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		if f := v.Float(); math.IsInf(f, 0) || math.IsNaN(f) {
			return prefix, f, true
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return nonFinite(v.Elem(), prefix)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if field, f, ok := nonFinite(v.Index(i), fmt.Sprintf("%s[%d]", prefix, i)); ok {
				return field, f, true
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			name, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			if !sf.IsExported() || name == "-" {
				continue
			}
			if name == "" {
				name = sf.Name
			}
			if prefix != "" {
				name = prefix + "." + name
			}
			if field, f, ok := nonFinite(v.Field(i), name); ok {
				return field, f, true
			}
		}
	}
	return "", 0, false
}

// writeError maps err onto its HTTP status and JSON body, counting the
// kind in the metrics registry. An error carrying a retry-after hint —
// a coordinator's replica was shedding — propagates the hint as a
// Retry-After header and its millisecond mirror, so the backoff a
// replica asked for reaches the client instead of vanishing into a
// bare failure.
func (s *Server) writeError(w http.ResponseWriter, ri *reqInfo, err error) {
	kind := aqppp.ErrorKindOf(err)
	s.met.observeKind(kind.String())
	detail := ri.errorDetail(kind.String(), err.Error())
	// A contract the planner (or the run-time ladder) could not meet
	// reports how close it could get, so the client knows how much to
	// loosen instead of binary-searching by resubmission. An infinite
	// tightest bound (no sampling estimator at all) omits the block.
	var inf *aqppp.ContractInfeasibleError
	if errors.As(err, &inf) && !math.IsInf(inf.TightestAbs, 1) {
		t := &TightestJSON{Abs: inf.TightestAbs}
		if !math.IsInf(inf.TightestRel, 1) {
			rel := inf.TightestRel
			t.Rel = &rel
		}
		detail.TightestAchievable = t
	}
	var hinted interface{ RetryAfterHint() time.Duration }
	if errors.As(err, &hinted) {
		if ra := hinted.RetryAfterHint(); ra > 0 {
			setRetryAfter(w, &detail, ra)
		}
	}
	s.writeJSON(w, ri, statusForKind(kind), ErrorBody{Error: detail})
}

// writeServerError emits a server-level (non-taxonomy) error kind.
func (s *Server) writeServerError(w http.ResponseWriter, ri *reqInfo, status int, kind, msg string) {
	s.met.observeKind(kind)
	s.writeJSON(w, ri, status, ErrorBody{Error: ri.errorDetail(kind, msg)})
}

// setRetryAfter writes a backoff hint both ways: the Retry-After header
// (whole seconds, ceiling, minimum 1) and its millisecond-resolution
// mirror in the error body.
func setRetryAfter(w http.ResponseWriter, detail *ErrorDetail, wait time.Duration) {
	secs := int64((wait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	detail.RetryAfterMS = int64(wait / time.Millisecond)
}

// writeShed emits a 429 with its backoff hint: kind "overloaded" for an
// admission-control shed, "quota-exceeded" for a per-client quota
// rejection.
func (s *Server) writeShed(w http.ResponseWriter, ri *reqInfo, kind, msg string, wait time.Duration) {
	s.met.observeKind(kind)
	detail := ri.errorDetail(kind, msg)
	setRetryAfter(w, &detail, wait)
	s.writeJSON(w, ri, http.StatusTooManyRequests, ErrorBody{Error: detail})
}

// clientKey identifies the client for quota accounting: the explicit
// X-Client-Id header when present (multiplexing proxies set it per
// tenant), otherwise the remote host without its ephemeral port.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-Id"); id != "" {
		return id
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// allowQuota runs one cache-missing request through the per-client
// token bucket. On rejection it has written the 429 — kind
// "quota-exceeded", distinct from the gate's "overloaded", so clients
// and dashboards can tell "you are hot" from "the server is full" —
// and the caller must return.
func (s *Server) allowQuota(w http.ResponseWriter, r *http.Request, ri *reqInfo) bool {
	ok, wait := s.quota.Allow(clientKey(r), time.Now())
	if ok {
		return true
	}
	s.writeShed(w, ri, "quota-exceeded", "per-client quota exceeded; retry after backoff", wait)
	return false
}

// writeCached serves a response straight from the cache: fresh request
// ID and elapsed time (the cached ones describe the request that
// computed the answer, not this one), Cached flag set, and an X-Cache
// header so clients can tell without parsing the body.
func (s *Server) writeCached(w http.ResponseWriter, ri *reqInfo, resp QueryResponse) {
	resp.RequestID = ri.id
	resp.Cached = true
	resp.ElapsedMS = toMS(time.Since(ri.start))
	w.Header().Set("X-Cache", "hit")
	s.writeJSON(w, ri, http.StatusOK, resp)
}

// decode reads a JSON body into v, answering 400 (kind "parse") on
// malformed input. The body is bounded by Config.MaxBodyBytes.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, ri *reqInfo, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeServerError(w, ri, http.StatusBadRequest, "parse",
			fmt.Sprintf("malformed request body: %v", err))
		return false
	}
	return true
}

// requestDeadline resolves one request's wall-time bound: its
// timeout_ms, defaulted and capped by config, measured from the
// request's arrival (zero = none), so queue wait spends the same budget
// the engine does.
func (s *Server) requestDeadline(ri *reqInfo, timeoutMS int64) time.Time {
	// Clamped before the multiply: a huge timeout_ms would otherwise
	// wrap time.Duration into a tiny or negative bound.
	if timeoutMS > int64(math.MaxInt64/time.Millisecond) {
		timeoutMS = int64(math.MaxInt64 / time.Millisecond)
	}
	timeout := time.Duration(timeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (timeout <= 0 || timeout > s.cfg.MaxTimeout) {
		timeout = s.cfg.MaxTimeout
	}
	if timeout <= 0 {
		return time.Time{}
	}
	return ri.start.Add(timeout)
}

// admit runs one request through the admission gate. On success the
// caller holds a slot, must call release, and runs its work under the
// returned context: the request's context carrying the request's id
// (which a coordinator forwards to its replicas) and the request's
// Budget — the server-wide resample cap, and as Timeout the time left
// until the request deadline (queue wait already spent).
// The context itself carries no deadline, so an overrun classifies as
// budget-exceeded and only a client disconnect as canceled. On failure
// admit has written the response.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, ri *reqInfo, timeoutMS int64) (context.Context, func(), bool) {
	deadline := s.requestDeadline(ri, timeoutMS)
	release, err := s.gate.Acquire(r.Context(), deadline)
	if err != nil {
		var o *Overload
		if errors.As(err, &o) {
			s.writeShed(w, ri, "overloaded", o.Error(), o.RetryAfter)
		} else {
			// The client went away while queued; 499 keeps the log and
			// metrics honest even though nobody reads the response.
			s.writeServerError(w, ri, statusClientClosedRequest, aqppp.ErrCanceled.String(), err.Error())
		}
		return nil, nil, false
	}
	b := aqppp.Budget{MaxResamples: s.cfg.MaxResamples}
	if !deadline.IsZero() {
		b.Timeout = time.Until(deadline)
		if b.Timeout < time.Millisecond {
			b.Timeout = time.Millisecond
		}
	}
	return dist.WithRequestID(aqppp.WithBudget(r.Context(), b), ri.id), release, true
}

// enter is the prologue of every request that does fresh engine work
// on a client's behalf: it pays one quota token, then takes an
// admission slot (see admit for the returned context and release), then
// runs the test hook inside the gate. On failure it has written the
// response. Replica partials call admit directly — they are
// deliberately not quota'd.
func (s *Server) enter(w http.ResponseWriter, r *http.Request, ri *reqInfo, timeoutMS int64) (context.Context, func(), bool) {
	if !s.allowQuota(w, r, ri) {
		return nil, nil, false
	}
	ctx, release, ok := s.admit(w, r, ri, timeoutMS)
	if ok && s.hookGated != nil {
		s.hookGated(ctx)
	}
	return ctx, release, ok
}

// answer is the one pipeline behind the three JSON answer endpoints
// (/v1/query, /v1/approx, /v1/contract), which differ only in how they
// plan and in the run closure. A cache hit is served in front of the
// quota and the admission gate; a miss pays a quota token, takes a gate
// slot, runs under the admitted context and is cached under key —
// unless key is empty (the caller could not vouch for the entry).
func (s *Server) answer(w http.ResponseWriter, r *http.Request, ri *reqInfo, timeoutMS int64,
	key string, run func(context.Context) (QueryResponse, error)) {
	if resp, hit := s.cache.Get(key, 0); hit {
		s.writeCached(w, ri, resp)
		return
	}
	ctx, release, ok := s.enter(w, r, ri, timeoutMS)
	if !ok {
		return
	}
	defer release()
	t0 := time.Now()
	resp, err := run(ctx)
	if err != nil {
		s.writeError(w, ri, err)
		return
	}
	resp.RequestID, resp.ElapsedMS = ri.id, toMS(time.Since(t0))
	// Only a response that encoded is cached: one JSON cannot carry has
	// already been answered as a 500, and a repeat must recompute it
	// rather than replay that failure as a hit.
	if s.writeJSON(w, ri, http.StatusOK, resp) {
		s.cache.Put(key, 0, resp)
	}
}

// resolvePrepared resolves the named handle an endpoint answers
// through, and the suffix its cache keys carry: the name and its epoch,
// because two handles over one table answer with different samples and
// cubes, and a dropped and rebuilt handle must never serve its
// predecessor's answers. On failure it has written the 400 or 404.
func (s *Server) resolvePrepared(w http.ResponseWriter, ri *reqInfo, name string) (*aqppp.Prepared, string, bool) {
	if name == "" {
		s.writeServerError(w, ri, http.StatusBadRequest, "parse", fmt.Sprintf(
			`missing "prepared": %s answers through a named handle (build one with /v1/prepare)`, ri.endpoint))
		return nil, "", false
	}
	prep, epoch, found := s.lookupPrepared(name)
	if !found {
		s.writeServerError(w, ri, http.StatusNotFound, "unknown-prepared",
			fmt.Sprintf("no prepared handle %q", name))
	}
	return prep, fmt.Sprintf("|h=%s@%d", name, epoch), found
}

// handleQuery answers POST /v1/query: an exact scan. The statement is
// planned once — the plan yields the canonical cache key, and a miss
// runs the same plan (no second parse).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	var req QueryRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	plan, err := s.db.PlanExact(req.SQL)
	if err != nil {
		s.writeError(w, ri, err)
		return
	}
	s.answer(w, r, ri, req.TimeoutMS, plan.CacheKey(), func(ctx context.Context) (QueryResponse, error) {
		res, err := s.db.RunExactPlan(ctx, plan)
		if err != nil {
			return QueryResponse{}, err
		}
		return exactResponse(res), nil
	})
}

// handleApprox answers POST /v1/approx through a named prepared handle,
// optionally with a bootstrap interval.
func (s *Server) handleApprox(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	var req QueryRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	prep, handleKey, ok := s.resolvePrepared(w, ri, req.Prepared)
	if !ok {
		return
	}
	var plan *exec.Plan
	var err error
	if req.Resamples > 0 {
		plan, err = prep.PlanBootstrap(req.SQL, req.Resamples)
	} else {
		plan, err = prep.PlanQuery(req.SQL)
	}
	if err != nil {
		s.writeError(w, ri, err)
		return
	}
	s.answer(w, r, ri, req.TimeoutMS, plan.CacheKey()+handleKey, func(ctx context.Context) (QueryResponse, error) {
		res, err := prep.RunPlan(ctx, plan)
		if err != nil {
			return QueryResponse{}, err
		}
		return approxResponse(res), nil
	})
}

// handlePrepare answers POST /v1/prepare: builds a preparation under
// the admission gate (builds are the heaviest requests the server
// takes) and registers it under the requested handle name.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	var req PrepareRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	if req.Name == "" {
		s.writeServerError(w, ri, http.StatusBadRequest, "parse", `missing "name" for the prepared handle`)
		return
	}
	if _, _, taken := s.lookupPrepared(req.Name); taken {
		s.writeServerError(w, ri, http.StatusConflict, "conflict",
			fmt.Sprintf("prepared handle %q already exists (DELETE /v1/prepared/%s first)", req.Name, req.Name))
		return
	}
	// Prepares are never cached (they mutate server state), so the quota
	// applies to every one.
	ctx, release, ok := s.enter(w, r, ri, req.TimeoutMS)
	if !ok {
		return
	}
	defer release()
	t0 := time.Now()
	prep, err := s.db.Prepare(ctx, aqppp.PrepareOptions{
		Table:              req.Table,
		Aggregate:          req.Aggregate,
		Dimensions:         req.Dimensions,
		SampleRate:         req.SampleRate,
		CellBudget:         req.CellBudget,
		Confidence:         req.Confidence,
		Seed:               req.Seed,
		WithCountCube:      req.WithCountCube,
		WithMinMax:         req.WithMinMax,
		EqualPartitionOnly: req.EqualPartitionOnly,
	})
	if err != nil {
		s.writeError(w, ri, err)
		return
	}
	if err := s.RegisterPrepared(req.Name, prep); err != nil {
		// Lost a race with a concurrent prepare for the same name.
		s.writeServerError(w, ri, http.StatusConflict, "conflict", err.Error())
		return
	}
	st := prep.Stats()
	s.writeJSON(w, ri, http.StatusOK, PrepareResponse{
		RequestID:  ri.id,
		Name:       req.Name,
		Table:      prep.TableName(),
		SampleRows: st.SampleRows,
		CubeCells:  st.CubeCells,
		BuildMS:    toMS(time.Since(t0)),
	})
}

// handleDropPrepared answers DELETE /v1/prepared/{name}. It forgets the
// server's handle only; the table and any other handles stay live.
func (s *Server) handleDropPrepared(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	name := r.PathValue("name")
	if !s.dropPrepared(name) {
		s.writeServerError(w, ri, http.StatusNotFound, "unknown-prepared",
			fmt.Sprintf("no prepared handle %q", name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 while accepting work, 503 once
// draining (load balancers stop routing here before the listener
// closes).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = fmt.Fprintln(w, "draining")
		return
	}
	_, _ = fmt.Fprintln(w, "ready")
}

// handleStatusz reports uptime, admission-control state, and
// per-endpoint latency histograms: the status snapshot as JSON.
func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	s.writeJSON(w, ri, http.StatusOK, s.status())
}
