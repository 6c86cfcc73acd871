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
type Target interface {
	// Exact runs an exact query.
	Exact(ctx context.Context, q engine.Query) (engine.Result, error)
	// Approx answers a scalar approximate query.
	Approx(ctx context.Context, q engine.Query) (core.Answer, error)
	// ApproxGroups answers a GROUP BY approximate query.
	ApproxGroups(ctx context.Context, q engine.Query) ([]core.GroupAnswer, error)
	// Bootstrap answers SUM/COUNT with an empirical bootstrap interval.
	Bootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, error)
}

// Resident is the single-table target: exact plans scan Table, and
// approximate plans answer through Proc (nil on a target that only
// serves exact plans). Store-backed tables are resident too — their
// blocks fault in behind the same engine.Table.
type Resident struct {
	Table *engine.Table
	Proc  *core.Processor
}

// Exact implements Target: a serial scan, bit-identical to
// Table.Execute.
func (r Resident) Exact(ctx context.Context, q engine.Query) (engine.Result, error) {
	return r.Table.Execute(ctx, q)
}

// Approx implements Target.
func (r Resident) Approx(_ context.Context, q engine.Query) (core.Answer, error) {
	return r.Proc.Answer(q)
}

// ApproxGroups implements Target.
func (r Resident) ApproxGroups(ctx context.Context, q engine.Query) ([]core.GroupAnswer, error) {
	return r.Proc.AnswerGroups(ctx, q)
}

// Bootstrap implements Target.
func (r Resident) Bootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, error) {
	return r.Proc.AnswerBootstrap(ctx, q, resamples, seed, nil)
}

// Sharded is the in-process scatter-gather target: exact plans fan out
// over S's partitions, and approximate plans answer from Prep's
// per-shard processors with a stratified CI merge (a shard is a
// stratum; nil on a target that only serves exact plans). The fan-out
// pool is GOMAXPROCS wide.
type Sharded struct {
	S    *shard.Sharded
	Prep *shard.Prepared
}

// Exact implements Target.
func (t Sharded) Exact(ctx context.Context, q engine.Query) (engine.Result, error) {
	return t.S.Execute(ctx, q, 0)
}

// Approx implements Target.
func (t Sharded) Approx(ctx context.Context, q engine.Query) (core.Answer, error) {
	return t.Prep.Answer(ctx, q, 0)
}

// ApproxGroups implements Target.
func (t Sharded) ApproxGroups(ctx context.Context, q engine.Query) ([]core.GroupAnswer, error) {
	return t.Prep.AnswerGroups(ctx, q, 0)
}

// Bootstrap implements Target: independent seeded streams per shard,
// CI merge at the end.
func (t Sharded) Bootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, error) {
	return t.Prep.AnswerBootstrap(ctx, q, resamples, seed, 0)
}
