package exec

import (
	"context"
	"math"

	"aqppp/internal/aqp"
	"aqppp/internal/contract"
	"aqppp/internal/core"
	"aqppp/internal/ident"
)

// dispatchContract runs a PlanContract plan's escalation ladder: the
// planner's chosen rung first, then strictly costlier rungs, until one
// rung's *realized* interval meets the contract (Decide predicted it
// would; the run verifies). Exhausting the ladder without meeting the
// bound returns the contract-infeasible kind — rare, since the planner
// already rejected contracts it could not predict a strategy for.
func (ex *Executor) dispatchContract(ctx context.Context, p *Plan, b Budget) (Outcome, error) {
	c := *p.Contract
	conf := c.ConfidenceOrDefault()
	full := p.Proc.Sample.Size()
	rungs := p.Decision.Ladder(full, c.AllowExact)
	bestHW := math.Inf(1)
	bestVal := 0.0
	for i, rung := range rungs {
		if err := ctx.Err(); err != nil {
			return Outcome{}, err
		}
		ans, err := ex.runRung(ctx, p, rung, conf, b)
		if err != nil {
			return Outcome{}, err
		}
		// A zero-width interval from a proper subsample is not evidence
		// of cube alignment — it usually means the subsample drew no
		// rows inside the unaligned remainder, so the diff estimator
		// silently degenerated. Such an answer would satisfy any
		// contract vacuously; escalate to the full-sample rung instead
		// of trusting it (and keep it out of the tightest-achievable
		// report for the same reason).
		if ans.Estimate.HalfWidth == 0 && rung.Strategy == contract.StrategyApprox && rung.Rows < full {
			continue
		}
		if ans.Estimate.HalfWidth < bestHW {
			bestHW, bestVal = ans.Estimate.HalfWidth, ans.Estimate.Value
		}
		if c.Met(ans.Estimate.Value, ans.Estimate.HalfWidth) {
			return Outcome{
				Answer:            ans,
				ContractStrategy:  rung.Strategy.String(),
				ContractEscalated: i > 0,
			}, nil
		}
	}
	rel := math.Inf(1)
	if bestVal != 0 {
		rel = bestHW / math.Abs(bestVal)
	}
	return Outcome{}, &contract.InfeasibleError{
		Contract:    c,
		TightestAbs: bestHW,
		TightestRel: rel,
		Reason:      "runtime: every permitted rung's realized interval missed the bound",
	}
}

// runRung executes one ladder rung.
func (ex *Executor) runRung(ctx context.Context, p *Plan, rung contract.Rung, conf float64, b Budget) (core.Answer, error) {
	switch rung.Strategy {
	case contract.StrategyCube, contract.StrategyApprox:
		return contract.AnswerAt(p.Proc, p.Query, rung.Rows, conf, p.Seed)

	case contract.StrategyBootstrap:
		resamples := p.Decision.Resamples
		if resamples <= 0 {
			resamples = core.DefaultResamples
		}
		if b.MaxResamples > 0 && resamples > b.MaxResamples {
			resamples = b.MaxResamples
		}
		shadow := *p.Proc
		shadow.Confidence = conf
		ans, _, err := bootstrap(ctx, Resident{Table: p.Table, Proc: &shadow}, p.Query, resamples, p.Seed, b)
		return ans, err

	default: // contract.StrategyExact
		res, err := p.Target.Exact(ctx, p.Query)
		if err != nil {
			return core.Answer{}, err
		}
		// An exact scan is a zero-width interval at full confidence.
		return core.Answer{
			Estimate: aqp.Estimate{Value: res.Value, Confidence: 1},
			Pre:      ident.Pre{Phi: true},
			PreValue: res.Value,
		}, nil
	}
}
