package aqppp

import (
	"context"

	"aqppp/internal/exec"
)

// QueryBootstrap answers a SUM/COUNT statement with an empirical
// (bootstrap) confidence interval instead of the closed form (§4.2.2).
// A replicate draws only the sample rows that can move it, so its cost
// follows the query's support, not the sample size. The resampling
// loop checks ctx once per four replicates; the budget caps the
// replicate count (MaxResamples).
func (p *Prepared) QueryBootstrap(ctx context.Context, statement string, resamples int) (Result, error) {
	plan, err := p.PlanBootstrap(statement, resamples)
	if err != nil {
		return Result{}, err
	}
	return p.RunPlan(ctx, plan)
}

// PlanBootstrap parses and compiles a statement into a bootstrap plan
// without running it (the plan-once counterpart of QueryBootstrap; see
// DB.PlanExact). The resample seed is fixed, so one statement at one
// replicate count always builds the same plan — and the same cache key.
func (p *Prepared) PlanBootstrap(statement string, resamples int) (*exec.Plan, error) {
	return exec.PlanBootstrapStatement(p.target, p.tbl, statement, resamples, 0xb007)
}
