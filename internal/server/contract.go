package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"aqppp"
)

// This file serves the a-priori error-contract surface: POST
// /v1/contract (one answer, planned to provably meet the stated bound,
// 422 with the tightest achievable error when it cannot) and POST
// /v1/progressive (an SSE stream of refining estimates that terminates
// when the contract is met, the sample runs out, or the budget
// expires). Contract answers flow through the same pipeline as
// /v1/query and /v1/approx (Server.answer); progressive streams skip
// the cache (a stream is not a cacheable value) and hold their
// admission slot for the whole stream.

// handleContract answers POST /v1/contract through a named prepared
// handle. Planning happens before the quota and the gate: an
// infeasible contract is rejected 422 without consuming a slot or a
// token — "no scan work" is part of the contract's promise.
func (s *Server) handleContract(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	var req ContractRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	// A missing handle name is reported first, by resolvePrepared.
	if req.Prepared != "" && req.MaxRelError == 0 && req.MaxAbsError == 0 {
		s.writeServerError(w, ri, http.StatusBadRequest, "parse",
			`a contract needs "max_rel_error" and/or "max_abs_error"`)
		return
	}
	prep, handleKey, ok := s.resolvePrepared(w, ri, req.Prepared)
	if !ok {
		return
	}
	// infeasible counts a contract no permitted strategy could meet —
	// predicted at plan time, or realized when the ladder ran dry at run
	// time; same counter, same 422.
	infeasible := func(err error) error {
		if aqppp.ErrorKindOf(err) == aqppp.ErrContractInfeasible {
			s.met.observeContract(false, false)
		}
		return err
	}
	plan, err := prep.PlanContract(req.SQL, aqppp.Contract{
		MaxRelError: req.MaxRelError,
		MaxAbsError: req.MaxAbsError,
		Confidence:  req.Confidence,
		AllowExact:  req.AllowExact,
	})
	if err != nil {
		s.writeError(w, ri, infeasible(err))
		return
	}
	// The plan's own key already carries the contract's bounds, so a
	// loose and a tight contract over one statement never collide.
	s.answer(w, r, ri, req.TimeoutMS, plan.CacheKey()+handleKey, func(ctx context.Context) (QueryResponse, error) {
		res, err := prep.RunContractPlan(ctx, plan)
		if err != nil {
			return QueryResponse{}, infeasible(err)
		}
		s.met.observeContract(true, res.Escalated)
		return contractResponse(res), nil
	})
}

// sseEvent writes one Server-Sent Event and flushes it to the client.
func sseEvent(w http.ResponseWriter, event string, data any) error {
	payload, err := json.Marshal(data)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, payload); err != nil {
		return err
	}
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	return nil
}

// handleProgressive answers POST /v1/progressive with an SSE stream:
// one "round" event per refinement (monotonically non-widening), then
// a terminal "done" event carrying the stop reason. Failures before
// the first event are ordinary JSON errors; once the stream has
// started the status is committed, so later failures become an "error"
// event (and a client disconnect mid-stream counts under the
// "canceled" kind, same as every other torn-down request).
func (s *Server) handleProgressive(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	var req ProgressiveRequest
	if !s.decode(w, r, ri, &req) {
		return
	}
	prep, _, ok := s.resolvePrepared(w, ri, req.Prepared)
	if !ok {
		return
	}
	opts := aqppp.ProgressiveOptions{
		StepRows:  req.StepRows,
		MaxRounds: req.MaxRounds,
		Seed:      req.Seed,
	}
	if req.MaxRelError != 0 || req.MaxAbsError != 0 {
		opts.Contract = &aqppp.Contract{
			MaxRelError: req.MaxRelError,
			MaxAbsError: req.MaxAbsError,
			Confidence:  req.Confidence,
		}
	}
	// Streams are never cached — every round is fresh work — so the
	// quota applies to each one; the admission slot is held until the
	// stream ends (a progressive stream is sustained engine work).
	ctx, release, ok := s.enter(w, r, ri, req.TimeoutMS)
	if !ok {
		return
	}
	defer release()

	started := false
	lastRound := time.Now()
	yield := func(round aqppp.ProgressiveRound) error {
		if !started {
			h := w.Header()
			h.Set("Content-Type", "text/event-stream")
			h.Set("Cache-Control", "no-cache")
			h.Set("X-Accel-Buffering", "no")
			w.WriteHeader(http.StatusOK)
			started = true
		}
		now := time.Now()
		s.met.progRounds.Observe(now.Sub(lastRound))
		lastRound = now
		return sseEvent(w, "round", ProgressiveRoundJSON{
			Round:      round.Round,
			Value:      round.Value,
			HalfWidth:  round.HalfWidth,
			Confidence: round.Confidence,
			SampleRows: round.SampleRows,
			Met:        round.Met,
		})
	}
	t0 := time.Now()
	sum, err := prep.QueryProgressive(ctx, req.SQL, opts, yield)
	if err != nil {
		kind := aqppp.ErrorKindOf(err)
		if !started {
			s.writeError(w, ri, err)
			return
		}
		// The stream is underway; the 200 is committed. Count the kind
		// (a mid-stream disconnect lands here as "canceled") and tell
		// any still-listening client what happened in-band.
		s.met.observeKind(kind.String())
		_ = sseEvent(w, "error", ErrorBody{Error: ri.errorDetail(kind.String(), err.Error())})
		return
	}
	if sum.Met {
		s.met.observeContract(true, false)
	}
	done := ProgressiveDoneJSON{
		RequestID:  ri.id,
		Reason:     sum.Reason,
		Rounds:     sum.Rounds,
		Value:      sum.Value,
		HalfWidth:  sum.HalfWidth,
		Confidence: sum.Confidence,
		SampleRows: sum.SampleRows,
		Met:        sum.Met,
		ElapsedMS:  toMS(time.Since(t0)),
	}
	if !started {
		// Defensive: a stream that produced no rounds still frames its
		// terminal event as SSE so clients parse one shape.
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
	}
	_ = sseEvent(w, "done", done)
}
