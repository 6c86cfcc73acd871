package exec

import (
	"context"

	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/shard"
)

// Target is the one execution seam: where a plan's table, sample and
// cube live. q(D) ≈ pre(D) + (q̂(S) − prê(S)) is the same formula over
// one resident table, N in-process shards or N replicas, so the
// executor runs every plan against this interface and never asks which
// it holds. Resident and Sharded implement it here; a fleet's comes
// from dist.Coordinator.Target (exec owns the interface so the plan
// layer reaches replicas without importing the network stack).
//
// The bool the approximate methods return reports a degraded answer —
// extrapolated from surviving strata after a tolerated replica loss.
// Only a fleet sets it, and such answers must never be cached.
type Target interface {
	// Signature renders, for cache keys, what distinguishes this
	// target's answers from another's over the same table: the shard
	// layout (float merges reassociate and per-shard samples differ
	// across layouts) or the fleet's layout, topology generation and
	// handle. A resident target returns "".
	Signature() string
	// Exact runs an exact query. Exact answers never degrade.
	Exact(ctx context.Context, q engine.Query) (engine.Result, error)
	// Approx answers a scalar approximate query.
	Approx(ctx context.Context, q engine.Query) (core.Answer, bool, error)
	// ApproxGroups answers a GROUP BY approximate query.
	ApproxGroups(ctx context.Context, q engine.Query) ([]core.GroupAnswer, bool, error)
	// Bootstrap answers SUM/COUNT with an empirical bootstrap interval.
	Bootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, bool, error)
	// ScratchBytes is the worst-case scratch of a Bootstrap inside this
	// process (core.BootstrapScratchBytes of the samples it resamples),
	// what Budget.MaxScratchBytes is charged. A fleet resamples on its
	// replicas and reports 0.
	ScratchBytes() int64
}

// Resident is the single-table target: exact plans scan Table, and
// approximate plans answer through Proc (nil on a target that only
// serves exact plans). Store-backed tables are resident too — their
// blocks fault in behind the same engine.Table.
type Resident struct {
	Table *engine.Table
	Proc  *core.Processor
}

// Signature implements Target.
func (Resident) Signature() string { return "" }

// Exact implements Target: a serial scan, bit-identical to
// Table.Execute.
func (r Resident) Exact(ctx context.Context, q engine.Query) (engine.Result, error) {
	return r.Table.Execute(ctx, q)
}

// Approx implements Target.
func (r Resident) Approx(_ context.Context, q engine.Query) (core.Answer, bool, error) {
	a, err := r.Proc.Answer(q)
	return a, false, err
}

// ApproxGroups implements Target.
func (r Resident) ApproxGroups(ctx context.Context, q engine.Query) ([]core.GroupAnswer, bool, error) {
	groups, err := r.Proc.AnswerGroups(ctx, q)
	return groups, false, err
}

// Bootstrap implements Target.
func (r Resident) Bootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, bool, error) {
	a, err := r.Proc.AnswerBootstrap(ctx, q, resamples, seed, nil)
	return a, false, err
}

// ScratchBytes implements Target.
func (r Resident) ScratchBytes() int64 { return core.BootstrapScratchBytes(r.Proc.Sample) }

// Sharded is the in-process scatter-gather target: exact plans fan out
// over S's partitions, and approximate plans answer from Prep's
// per-shard processors with a stratified CI merge (a shard is a
// stratum; nil on a target that only serves exact plans). The fan-out
// pool is GOMAXPROCS wide.
type Sharded struct {
	S    *shard.Sharded
	Prep *shard.Prepared
}

// Signature implements Target.
func (t Sharded) Signature() string { return "shards=" + t.S.Layout.Signature() }

// Exact implements Target.
func (t Sharded) Exact(ctx context.Context, q engine.Query) (engine.Result, error) {
	return t.S.Execute(ctx, q, 0)
}

// Approx implements Target.
func (t Sharded) Approx(ctx context.Context, q engine.Query) (core.Answer, bool, error) {
	a, err := t.Prep.Answer(ctx, q, 0)
	return a, false, err
}

// ApproxGroups implements Target.
func (t Sharded) ApproxGroups(ctx context.Context, q engine.Query) ([]core.GroupAnswer, bool, error) {
	groups, err := t.Prep.AnswerGroups(ctx, q, 0)
	return groups, false, err
}

// Bootstrap implements Target: independent seeded streams per shard,
// CI merge at the end.
func (t Sharded) Bootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, bool, error) {
	a, err := t.Prep.AnswerBootstrap(ctx, q, resamples, seed, 0)
	return a, false, err
}

// ScratchBytes implements Target: the per-shard footprints summed, each
// charged as the resident path charges its sample.
func (t Sharded) ScratchBytes() int64 {
	var need int64
	for _, proc := range t.Prep.Procs {
		if proc != nil {
			need += core.BootstrapScratchBytes(proc.Sample)
		}
	}
	return need
}
