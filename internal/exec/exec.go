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
}

// Outcome is the unified result of running a Plan.
type Outcome struct {
	// Exact holds the PlanExact result.
	Exact engine.Result
	// Answer holds the scalar answer for approx/bootstrap/contract plans.
	Answer core.Answer
	// Groups holds per-group answers for GROUP BY approx plans.
	Groups []core.GroupAnswer
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
			groups, err := p.Target.ApproxGroups(ctx, p.Query)
			if err != nil {
				return Outcome{}, err
			}
			return Outcome{Groups: groups}, nil
		}
		ans, err := p.Target.Approx(ctx, p.Query)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Answer: ans}, nil

	case PlanBootstrap:
		resamples := p.Resamples
		if resamples <= 0 {
			resamples = core.DefaultResamples
		}
		if err := b.CheckResamples(resamples); err != nil {
			return Outcome{}, err
		}
		ans, err := p.Target.Bootstrap(ctx, p.Query, resamples, p.Seed)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{Answer: ans}, nil

	case PlanContract:
		return ex.dispatchContract(ctx, p, b)

	default:
		return Outcome{}, &Error{Kind: Unsupported, Op: "run", Err: fmt.Errorf("unknown plan kind %v", p.Kind)}
	}
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
