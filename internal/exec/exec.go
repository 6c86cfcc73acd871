package exec

import (
	"context"
	"fmt"
	"time"

	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/shard"
)

// Budget bounds one query or preparation a priori. The zero Budget is
// unlimited. Budgets are enforced by the Executor, not by callers:
// exceeding any bound yields an Error of kind BudgetExceeded.
type Budget struct {
	// Timeout bounds wall time; the executor derives a deadline context
	// and a query that overruns unwinds at the next cancellation check
	// (one block chunk, climb step, or batch of resamples).
	Timeout time.Duration
	// MaxResamples caps bootstrap replicate counts. A plan requesting
	// more is rejected before any work runs.
	MaxResamples int
	// MaxScratchBytes caps the scratch memory a bootstrap may allocate
	// in this process: core.BootstrapScratchBytes of the samples it
	// resamples here, its worst case, charged before it runs.
	MaxScratchBytes int64
}

// Outcome is the unified result of running a Plan.
type Outcome struct {
	// Exact holds the PlanExact result.
	Exact engine.Result
	// Answer holds the scalar answer for approx/bootstrap/contract plans.
	Answer core.Answer
	// Groups holds per-group answers for GROUP BY approx plans.
	Groups []core.GroupAnswer
	// Partial reports a degraded distributed answer: one or more
	// replicas were lost, the opt-in policy tolerated it, and the
	// answer was extrapolated from surviving strata with a widened
	// interval. Partial outcomes must never be cached.
	Partial bool
	// ContractStrategy names the ladder rung that answered a
	// PlanContract plan ("cube", "approx", "bootstrap", "exact");
	// ContractEscalated reports that the planner's first choice missed
	// the bound and a costlier rung answered instead.
	ContractStrategy  string
	ContractEscalated bool
}

// Executor runs Plans. It is stateless and safe for concurrent use.
type Executor struct{}

// New returns an Executor.
func New() *Executor { return &Executor{} }

// Run executes a Plan under the context and budget, returning a
// classified error on any failure. Cancellation granularity is one
// zone-block chunk for exact scans, one batch of four resamples for
// bootstrap plans, and one group for GROUP BY approx plans.
func (ex *Executor) Run(ctx context.Context, p *Plan, b Budget) (Outcome, error) {
	op := p.Kind.String()
	run, cancel, budgeted := b.Bound(ctx)
	defer cancel()
	out, err := ex.dispatch(run, p, b)
	if err != nil {
		return Outcome{}, Classify(ctx, run, op, budgeted, err)
	}
	return out, nil
}

// Prepare runs the preprocessing pipeline (sample, hill-climbed
// partition points, cube build) under the context and budget; a
// canceled context unwinds at the next climb step.
func (ex *Executor) Prepare(ctx context.Context, tbl *engine.Table, cfg core.BuildConfig, b Budget) (*core.Processor, core.BuildStats, error) {
	run, cancel, budgeted := b.Bound(ctx)
	defer cancel()
	proc, st, err := core.Build(run, tbl, cfg)
	if err != nil {
		return nil, st, Classify(ctx, run, "prepare", budgeted, err)
	}
	return proc, st, nil
}

// PrepareSharded builds per-shard processors (sample + BP-cube slice
// per shard, in parallel) under the context and budget.
func (ex *Executor) PrepareSharded(ctx context.Context, s *shard.Sharded, cfg core.BuildConfig, b Budget) (*shard.Prepared, error) {
	run, cancel, budgeted := b.Bound(ctx)
	defer cancel()
	sp, err := shard.Prepare(run, s, cfg, 0)
	if err != nil {
		return nil, Classify(ctx, run, "prepare", budgeted, err)
	}
	return sp, nil
}

// Bound applies the budget's deadline, reporting whether one was
// imposed. The returned cancel is never nil.
func (b Budget) Bound(ctx context.Context) (context.Context, context.CancelFunc, bool) {
	if b.Timeout <= 0 {
		return ctx, func() {}, false
	}
	run, cancel := context.WithTimeout(ctx, b.Timeout)
	return run, cancel, true
}

// dispatch runs the plan's kind against its target. No arm asks what
// the target is: resident, sharded and fleet plans differ only in the
// Target they carry.
func (ex *Executor) dispatch(ctx context.Context, p *Plan, b Budget) (Outcome, error) {
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	// The contract ladder draws subsamples of a resident processor; a
	// plan built without one (over a sharded or distributed target) is
	// refused, not run.
	if p.Kind == PlanContract && p.Proc == nil {
		return Outcome{}, &Error{Kind: Unsupported, Op: p.Kind.String(),
			Err: fmt.Errorf("%v plans need resident prepared state", p.Kind)}
	}
	switch p.Kind {
	case PlanExact:
		res, err := p.Target.Exact(ctx, p.Query)
		return Outcome{Exact: res}, err

	case PlanApprox:
		if len(p.Query.GroupBy) > 0 {
			groups, partial, err := p.Target.ApproxGroups(ctx, p.Query)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{Groups: groups, Partial: partial}, nil
		}
		ans, partial, err := p.Target.Approx(ctx, p.Query)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Answer: ans, Partial: partial}, nil

	case PlanBootstrap:
		resamples := p.Resamples
		if resamples <= 0 {
			resamples = core.DefaultResamples
		}
		if err := b.CheckResamples(resamples); err != nil {
			return Outcome{}, err
		}
		ans, partial, err := bootstrap(ctx, p.Target, p.Query, resamples, p.Seed, b)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Answer: ans, Partial: partial}, nil

	case PlanContract:
		return ex.dispatchContract(ctx, p, b)

	default:
		return Outcome{}, &Error{Kind: Unsupported, Op: "run", Err: fmt.Errorf("unknown plan kind %v", p.Kind)}
	}
}

// bootstrap runs t's bootstrap under the budget's scratch cap, charged
// against what t resamples in this process before any work starts.
func bootstrap(ctx context.Context, t Target, q engine.Query, resamples int, seed uint64, b Budget) (core.Answer, bool, error) {
	if err := b.CheckScratch(t.ScratchBytes()); err != nil {
		return core.Answer{}, false, err
	}
	return t.Bootstrap(ctx, q, resamples, seed)
}

// CheckResamples refuses, with kind BudgetExceeded, a bootstrap of more
// replicates than the budget's MaxResamples.
func (b Budget) CheckResamples(resamples int) error {
	if b.MaxResamples > 0 && resamples > b.MaxResamples {
		return &Error{Kind: BudgetExceeded, Op: "bootstrap",
			Err: fmt.Errorf("%d resamples exceed the budget's cap of %d", resamples, b.MaxResamples)}
	}
	return nil
}

// CheckScratch refuses, with kind BudgetExceeded, a bootstrap that needs
// need scratch bytes (core.BootstrapScratchBytes) when that exceeds the
// budget's MaxScratchBytes.
func (b Budget) CheckScratch(need int64) error {
	if b.MaxScratchBytes > 0 && need > b.MaxScratchBytes {
		return &Error{Kind: BudgetExceeded, Op: "bootstrap",
			Err: fmt.Errorf("bootstrap needs %d scratch bytes, budget caps at %d", need, b.MaxScratchBytes)}
	}
	return nil
}
