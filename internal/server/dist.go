package server

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"aqppp"
	"aqppp/internal/core"
	"aqppp/internal/dist"
	"aqppp/internal/engine"
	"aqppp/internal/exec"
	"aqppp/internal/shard"
)

// This file is the server's distributed-execution surface: the two
// internal endpoints a fleet speaks among itself.
//
//	GET  /v1/shard    replica handshake: identity, schema, handles
//	POST /v1/partial  one stratum's share of a distributed query
//
// A replica (Config.Replica set) serves both. The coordinator side
// lives in internal/dist; a coordinator server routes ordinary
// /v1/query and /v1/approx requests to it through the aqppp.DB like any
// other table, and its local per-client quota is the fleet's one
// quota, since every client request enters there.

// ReplicaRole marks a server as one shard replica: the sliced table it
// serves as Table, under the identity it reports in its handshake.
type ReplicaRole struct {
	Table string
	Ident dist.ShardIdentity
}

// handleShardHello answers GET /v1/shard: the handshake body a
// coordinator validates the fleet with.
func (s *Server) handleShardHello(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	role := s.cfg.Replica
	if role == nil {
		s.writeServerError(w, ri, http.StatusNotFound, "not-a-replica",
			"this server does not serve a shard slice")
		return
	}
	tbl, ok := s.db.LookupTable(role.Table)
	if !ok {
		s.writeServerError(w, ri, http.StatusInternalServerError, "internal",
			fmt.Sprintf("replica table %q is not registered", role.Table))
		return
	}
	handles := make([]dist.HandleInfo, 0, 4)
	for _, name := range s.preparedNames() {
		if p, _, found := s.lookupPrepared(name); found {
			handles = append(handles, dist.HandleInfo{
				Name:       name,
				Confidence: p.Confidence(),
				SampleRows: p.Stats().SampleRows,
			})
		}
	}
	s.writeJSON(w, ri, http.StatusOK, dist.HelloFor(tbl, role.Ident, handles))
}

// handlePartial answers POST /v1/partial: one stratum's share of a
// distributed query, behind the same admission gate as client traffic —
// an overloaded replica sheds partials with 429 + Retry-After, and the
// coordinator propagates the hint rather than flattening it into a 500.
// Per-client quota does not apply: the fleet's quota was charged at
// the coordinator, where the client's request entered.
func (s *Server) handlePartial(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	role := s.cfg.Replica
	if role == nil {
		s.writeServerError(w, ri, http.StatusNotFound, "not-a-replica",
			"this server does not serve a shard slice")
		return
	}
	var preq dist.PartialRequest
	if !s.decode(w, r, ri, &preq) {
		return
	}
	if preq.V != dist.WireVersion {
		s.writeServerError(w, ri, http.StatusBadRequest, "parse",
			fmt.Sprintf("request speaks wire v%d, replica v%d", preq.V, dist.WireVersion))
		return
	}
	if preq.Table != role.Table {
		s.writeServerError(w, ri, http.StatusNotFound, aqppp.ErrUnknownTable.String(),
			fmt.Sprintf("replica serves table %q, not %q", role.Table, preq.Table))
		return
	}
	q, err := dist.FromWireQuery(preq.Query)
	if err != nil {
		s.writeServerError(w, ri, http.StatusBadRequest, "parse", err.Error())
		return
	}
	ctx, release, ok := s.admit(w, r, ri, preq.TimeoutMS)
	if !ok {
		return
	}
	defer release()
	// A stratum is answered by shard.Local, below the root API that
	// reads the admitted budget, so the request deadline (the
	// coordinator's remaining time) is applied to the scan here.
	if deadline := s.requestDeadline(ri, preq.TimeoutMS); !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	t0 := time.Now()
	// One stratum answers the same way in process and behind this
	// endpoint: through a shard.Local over the slice (exact) or over the
	// handle's processor (approximate).
	local := shard.Local{Shard: &shard.Shard{Index: role.Ident.Index}}
	switch preq.Mode {
	case dist.ModeExact:
		tbl, ok := s.db.LookupTable(role.Table)
		if !ok {
			s.writePartialError(ctx, w, ri, &exec.Error{Kind: exec.UnknownTable, Op: "exact",
				Err: fmt.Errorf("no table %q", role.Table)})
			return
		}
		local.Shard.Table = tbl
	case dist.ModeApprox, dist.ModeGroups, dist.ModeBootstrap:
		prep, _, found := s.lookupPrepared(preq.Handle)
		if !found {
			s.writeServerError(w, ri, http.StatusNotFound, "unknown-prepared",
				fmt.Sprintf("no prepared handle %q", preq.Handle))
			return
		}
		if local.Proc = prep.Processor(); local.Proc == nil {
			s.writeServerError(w, ri, http.StatusUnprocessableEntity, aqppp.ErrUnsupported.String(),
				fmt.Sprintf("handle %q is not a single-processor preparation", preq.Handle))
			return
		}
	default:
		s.writeServerError(w, ri, http.StatusBadRequest, "parse",
			fmt.Sprintf("unknown partial mode %q", preq.Mode))
		return
	}
	// The replicate cap, with the kind and status /v1/approx answers an
	// over-cap request with: the coordinator enforces its own cap, but
	// this endpoint is reachable directly.
	if preq.Mode == dist.ModeBootstrap {
		n := preq.Resamples
		if n <= 0 {
			n = core.DefaultResamples
		}
		if err := (exec.Budget{MaxResamples: s.cfg.MaxResamples}).CheckResamples(n); err != nil {
			s.writeError(w, ri, err)
			return
		}
	}
	resp, err := answerPartial(ctx, local, &preq, q)
	if err != nil {
		s.writePartialError(ctx, w, ri, err)
		return
	}
	resp.ElapsedUS = time.Since(t0).Microseconds()
	s.writeJSON(w, ri, http.StatusOK, resp)
}

// answerPartial runs one validated partial request against the stratum
// and renders the answer in wire form.
func answerPartial(ctx context.Context, local shard.Local, preq *dist.PartialRequest, q engine.Query) (dist.PartialResponse, error) {
	resp := dist.PartialResponse{V: dist.WireVersion, Shard: local.Shard.Index, Mode: preq.Mode}
	switch preq.Mode {
	case dist.ModeExact:
		pr, err := local.ExactPartial(ctx, q)
		if err != nil {
			return resp, err
		}
		if len(q.GroupBy) > 0 {
			for _, g := range pr.Groups {
				resp.Groups = append(resp.Groups, dist.WireGroupPartial{Key: g.Key, Partial: dist.ToWirePartial(g.Partial)})
			}
		} else {
			sc := dist.ToWirePartial(pr.Scalar)
			resp.Scalar = &sc
		}
	case dist.ModeGroups:
		groups, err := local.ApproxGroups(ctx, q)
		if err != nil {
			return resp, err
		}
		for _, g := range groups {
			resp.AnswerGroups = append(resp.AnswerGroups, dist.WireGroupAnswer{Key: g.Key, Answer: dist.ToWireAnswer(g.Answer)})
		}
	default: // ModeApprox and ModeBootstrap both answer one scalar
		var a core.Answer
		var err error
		if preq.Mode == dist.ModeBootstrap {
			a, err = local.ApproxBootstrap(ctx, q, preq.Resamples, preq.Seed)
		} else {
			a, err = local.ApproxAnswer(ctx, q)
		}
		if err != nil {
			return resp, err
		}
		wa := dist.ToWireAnswer(a)
		resp.Answer = &wa
	}
	return resp, nil
}

// writePartialError classifies a partial-execution failure so the
// coordinator's taxonomy mapping sees honest kinds: deadline overruns
// report budget-exceeded (the replica ran out of the coordinator's
// remaining time, not a replica fault worth retrying) and cancellations
// report canceled; anything already carrying a taxonomy kind keeps it.
func (s *Server) writePartialError(ctx context.Context, w http.ResponseWriter, ri *reqInfo, err error) {
	if ctx.Err() == context.DeadlineExceeded {
		err = &exec.Error{Kind: exec.BudgetExceeded, Op: "partial", Err: err}
	} else if ctx.Err() != nil {
		err = &exec.Error{Kind: exec.Canceled, Op: "partial", Err: err}
	}
	s.writeError(w, ri, err)
}
