package shard

import (
	"context"
	"fmt"
	"math"
	"time"

	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/ident"
)

// ExecutorInfo describes one stratum of a Group: the shard index it
// occupies in the layout, its row count, and the layout column's
// observed bounds (meaningful only when Rows > 0) for range pruning.
type ExecutorInfo struct {
	Index  int
	Rows   int
	Lo, Hi float64
}

// Executor is one shard slice as the fan-out/merge engine sees it. The
// in-process Local executor and internal/dist's remote replicas both
// implement it, so the scatter-gather contract — pruning, bounded
// fan-out, algebraic exact merge, stratified CI merge — lives in
// exactly one place (Group) regardless of where the slice executes.
type Executor interface {
	Info() ExecutorInfo
	// ExactPartial runs an exact sub-plan and returns mergeable
	// algebraic moments.
	ExactPartial(ctx context.Context, q engine.Query) (engine.PartialResult, error)
	// ApproxAnswer answers a scalar approximate query from the
	// stratum's own sample + cube slice.
	ApproxAnswer(ctx context.Context, q engine.Query) (core.Answer, error)
	// ApproxGroups answers a GROUP BY approximate query.
	ApproxGroups(ctx context.Context, q engine.Query) ([]core.GroupAnswer, error)
	// ApproxBootstrap answers SUM/COUNT with an empirical bootstrap
	// interval under the given (already stride-derived) seed.
	ApproxBootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, error)
}

// Local adapts one in-process shard (and optionally its per-shard
// processor) to the Executor interface.
type Local struct {
	Shard *Shard
	Proc  *core.Processor
}

// Info implements Executor.
func (e Local) Info() ExecutorInfo {
	return ExecutorInfo{
		Index: e.Shard.Index, Rows: e.Shard.Rows,
		Lo: e.Shard.Lo, Hi: e.Shard.Hi,
	}
}

// ExactPartial implements Executor.
func (e Local) ExactPartial(ctx context.Context, q engine.Query) (engine.PartialResult, error) {
	return e.Shard.Table.ExecutePartial(ctx, q)
}

// ApproxAnswer implements Executor (local answers are cube + sample
// lookups; no per-block cancellation points to thread ctx into).
func (e Local) ApproxAnswer(_ context.Context, q engine.Query) (core.Answer, error) {
	return e.Proc.Answer(q)
}

// ApproxGroups implements Executor.
func (e Local) ApproxGroups(ctx context.Context, q engine.Query) ([]core.GroupAnswer, error) {
	return e.Proc.AnswerGroups(ctx, q)
}

// ApproxBootstrap implements Executor.
func (e Local) ApproxBootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, error) {
	return e.Proc.AnswerBootstrap(ctx, q, resamples, seed, nil)
}

// DeriveSeed returns shard index's random stream: the caller's seed
// advanced by (index+1)·seedStride. Replicas must derive bootstrap and
// build seeds with this exact function for distributed answers to be
// bit-identical to in-process sharded ones.
func DeriveSeed(seed uint64, index int) uint64 {
	return seed + uint64(index+1)*seedStride
}

// SplitBudget returns the per-shard share of a cube cell budget under
// an n-way layout: an even split, floored at one cell per shard.
func SplitBudget(budget, n int) int {
	per := budget / n
	if per < 1 {
		per = 1
	}
	return per
}

// PerShardConfig derives the build config shard index receives under a
// count-way layout: the cell budget splits evenly across shards and
// the seed advances by the shard's stride — exactly what Prepare does
// in process, so a replica building its slice with this config grows a
// sample and BP-cube bit-identical to the corresponding in-process
// shard's.
func PerShardConfig(cfg core.BuildConfig, index, count int) core.BuildConfig {
	out := cfg
	out.CellBudget = SplitBudget(cfg.CellBudget, count)
	out.Seed = DeriveSeed(cfg.Seed, index)
	return out
}

// Group is the fan-out/merge engine: a set of Executors forming one
// logical table, plus the policy knobs the merge shares between the
// in-process path (Sharded/Prepared) and internal/dist's coordinator.
// Merge semantics are identical for both: exact partials fold in
// shard-index order, approximate answers compose per-stratum variances
// (see mergeAdditive), bootstrap half-widths compose in quadrature.
// Every active stratum answers or the query fails: an interval holds
// only over strata whose sample was read, so no merge extrapolates
// over a lost one.
type Group struct {
	Layout     Layout
	Confidence float64
	Execs      []Executor
	// Workers bounds the fan-out pool (<= 0 selects GOMAXPROCS).
	Workers int
	// Observe, when non-nil, receives each stratum execution's index
	// into Execs and duration.
	Observe func(k int, d time.Duration)
	// OnPrune, when non-nil, is called with the index of each stratum
	// skipped by bound pruning.
	OnPrune func(k int)
}

// active returns the Execs indices a query with the given ranges must
// touch, ascending. Empty strata are skipped outright; under a range
// layout, strata whose bounds miss a range on the layout column are
// pruned and reported to OnPrune.
func (g *Group) active(ranges []engine.Range) []int {
	out := make([]int, 0, len(g.Execs))
	for k, e := range g.Execs {
		in := e.Info()
		if in.Rows == 0 {
			continue
		}
		if g.Layout.Strategy == ByRange && boundsPruned(in.Lo, in.Hi, g.Layout.Column, ranges) {
			if g.OnPrune != nil {
				g.OnPrune(k)
			}
			continue
		}
		out = append(out, k)
	}
	return out
}

// boundsPruned reports whether some range on the layout column excludes
// the whole [lo, hi] bound interval. Bounds are inclusive on both
// sides, so overlap requires r.Lo <= hi && r.Hi >= lo; adjacent strata
// that share a boundary value both stay active.
func boundsPruned(lo, hi float64, col string, ranges []engine.Range) bool {
	for _, r := range ranges {
		if r.Col != col {
			continue
		}
		if r.Hi < lo || r.Lo > hi {
			return true
		}
	}
	return false
}

// collect runs one call per active stratum of q under the bounded pool
// and returns the results in stratum order, or the first failure in
// stratum order.
func collect[T any](ctx context.Context, g *Group, q engine.Query, run func(e Executor) (T, error)) ([]T, error) {
	active := g.active(q.Ranges)
	out := make([]T, len(active))
	errs := make([]error, len(active))
	forEach(ctx, g.Workers, len(active), func(j int) {
		k := active[j]
		t0 := time.Now()
		out[j], errs[j] = run(g.Execs[k])
		if g.Observe != nil {
			g.Observe(k, time.Since(t0))
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Exact runs an exact query scatter-gather across the strata and
// merges algebraically: scalar partials fold in stratum order (SUM and
// COUNT add, MIN/MAX fold, AVG/VAR finish from merged moments), so
// results are deterministic for a fixed layout and bit-identical to
// the unsharded scan whenever the additions are exact. Group-by
// results are sorted by key.
func (g *Group) Exact(ctx context.Context, q engine.Query) (engine.Result, error) {
	partials, err := collect(ctx, g, q, func(e Executor) (engine.PartialResult, error) {
		return e.ExactPartial(ctx, q)
	})
	if err != nil {
		return engine.Result{}, err
	}
	if len(q.GroupBy) == 0 {
		var total engine.Partial
		for j := range partials {
			total.Merge(partials[j].Scalar)
		}
		v, err := total.Finish(q.Func)
		if err != nil {
			return engine.Result{}, err
		}
		return engine.Result{Value: v}, nil
	}
	return mergeGroups(partials, q.Func)
}

// Answer answers a scalar approximate query across the strata. SUM and
// COUNT merge additively with composed variance; AVG is merged-SUM
// over merged-COUNT with a conservative ratio interval; MIN/MAX fold
// per-stratum exact index answers.
func (g *Group) Answer(ctx context.Context, q engine.Query) (core.Answer, error) {
	if len(q.GroupBy) > 0 {
		return core.Answer{}, fmt.Errorf("shard: use AnswerGroups for GROUP BY queries")
	}
	answer := func(e Executor) (core.Answer, error) { return e.ApproxAnswer(ctx, q) }
	switch q.Func {
	case engine.Sum, engine.Count:
		answers, err := collect(ctx, g, q, answer)
		if err != nil {
			return core.Answer{}, err
		}
		return mergeAdditive(answers, g.Confidence), nil
	case engine.Avg:
		sumQ, cntQ := q, q
		sumQ.Func = engine.Sum
		cntQ.Func = engine.Count
		sumAns, err := g.Answer(ctx, sumQ)
		if err != nil {
			return core.Answer{}, err
		}
		cntAns, err := g.Answer(ctx, cntQ)
		if err != nil {
			return core.Answer{}, err
		}
		return ratioAnswer(sumAns, cntAns, g.Confidence), nil
	case engine.Min, engine.Max:
		answers, err := collect(ctx, g, q, answer)
		if err != nil {
			return core.Answer{}, err
		}
		if len(answers) == 0 {
			return core.Answer{Estimate: aqpEstimate(0, 0, 1, 0), Pre: ident.Pre{Phi: true}}, nil
		}
		best := answers[0]
		for _, a := range answers[1:] {
			v, bv := a.Estimate.Value, best.Estimate.Value
			if (q.Func == engine.Min && v < bv) || (q.Func == engine.Max && v > bv) {
				best = a
			}
		}
		return best, nil
	default:
		return core.Answer{}, fmt.Errorf("shard: %w aggregate %v", core.ErrUnsupported, q.Func)
	}
}

// AnswerGroups answers a GROUP BY approximate query: each stratum
// answers the groups its sample observed, and per-key answers merge
// with the same stratified composition as scalars, sorted by key. AVG
// groups merge as the ratio of merged SUM and COUNT group answers.
func (g *Group) AnswerGroups(ctx context.Context, q engine.Query) ([]core.GroupAnswer, error) {
	if len(q.GroupBy) == 0 {
		return nil, fmt.Errorf("shard: AnswerGroups needs GROUP BY")
	}
	switch q.Func {
	case engine.Sum, engine.Count:
		perStratum, err := collect(ctx, g, q, func(e Executor) ([]core.GroupAnswer, error) {
			return e.ApproxGroups(ctx, q)
		})
		if err != nil {
			return nil, err
		}
		return mergeGroupAnswers(perStratum, g.Confidence), nil
	case engine.Avg:
		sumQ, cntQ := q, q
		sumQ.Func = engine.Sum
		cntQ.Func = engine.Count
		sums, err := g.AnswerGroups(ctx, sumQ)
		if err != nil {
			return nil, err
		}
		cnts, err := g.AnswerGroups(ctx, cntQ)
		if err != nil {
			return nil, err
		}
		byKey := make(map[string]core.Answer, len(cnts))
		for _, gr := range cnts {
			byKey[gr.Key] = gr.Answer
		}
		out := make([]core.GroupAnswer, 0, len(sums))
		for _, gr := range sums {
			cnt, ok := byKey[gr.Key]
			if !ok || cnt.Estimate.Value == 0 {
				continue // no mass estimate for the group: no ratio to form
			}
			out = append(out, core.GroupAnswer{Key: gr.Key, Answer: ratioAnswer(gr.Answer, cnt, g.Confidence)})
		}
		return out, nil
	default:
		return nil, fmt.Errorf("shard: %w GROUP BY aggregate %v", core.ErrUnsupported, q.Func)
	}
}

// AnswerBootstrap answers SUM/COUNT with per-stratum empirical
// bootstrap intervals: every stratum resamples its own sample under an
// independent stride-derived seed, and the per-stratum percentile
// half-widths compose in quadrature: hw = sqrt(Σ hw_h²).
func (g *Group) AnswerBootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, error) {
	if q.Func != engine.Sum && q.Func != engine.Count {
		return core.Answer{}, fmt.Errorf("shard: AnswerBootstrap supports SUM/COUNT, got %v: %w", q.Func, core.ErrUnsupported)
	}
	if len(q.GroupBy) > 0 {
		return core.Answer{}, fmt.Errorf("shard: AnswerBootstrap does not handle GROUP BY: %w", core.ErrUnsupported)
	}
	answers, err := collect(ctx, g, q, func(e Executor) (core.Answer, error) {
		return e.ApproxBootstrap(ctx, q, resamples, DeriveSeed(seed, e.Info().Index))
	})
	if err != nil {
		return core.Answer{}, err
	}
	return mergeBootstrap(answers, g.Confidence), nil
}

// mergeBootstrap composes per-stratum bootstrap answers: points add,
// half-widths add in quadrature.
func mergeBootstrap(answers []core.Answer, conf float64) core.Answer {
	merged := core.Answer{Pre: ident.Pre{Phi: true}}
	hw2 := 0.0
	for _, a := range answers {
		merged.Estimate.Value += a.Estimate.Value
		hw2 += a.Estimate.HalfWidth * a.Estimate.HalfWidth
		merged.Estimate.SampleRows += a.Estimate.SampleRows
		merged.Candidates += a.Candidates
		merged.PreValue += a.PreValue
		if merged.Pre.IsPhi() && !a.Pre.IsPhi() {
			merged.Pre = a.Pre
		}
	}
	merged.Estimate.HalfWidth = math.Sqrt(hw2)
	merged.Estimate.Confidence = conf
	return merged
}
