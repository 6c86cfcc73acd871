package aqppp

import (
	"context"

	"aqppp/internal/contract"
	"aqppp/internal/exec"
)

// Contract is an a-priori error bound (PilotDB-style inversion of the
// time-budget model): the caller states the error it can tolerate —
// MaxRelError and/or MaxAbsError at Confidence — and the planner picks
// the cheapest strategy that provably meets it (cube-covered exact
// prefix, AQP++ on the smallest sufficient subsample, bootstrap, or —
// only with AllowExact — a full exact scan), rejecting infeasible
// contracts up front with an ErrContractInfeasible-kind Error.
type Contract = contract.Contract

// ContractInfeasibleError is the typed cause carried by
// ErrContractInfeasible-kind errors: the contract plus the tightest
// half-width the planner predicts it could achieve without an exact
// scan. Recover it with errors.As to tell clients how much to loosen.
type ContractInfeasibleError = contract.InfeasibleError

// ContractResult is a contract query's answer: the usual Result plus
// which ladder rung produced it.
type ContractResult struct {
	Result
	// Strategy names the rung that answered: "cube", "approx",
	// "bootstrap", or "exact".
	Strategy string
	// Escalated reports that the planner's first choice missed the
	// bound at run time and a costlier rung answered instead.
	Escalated bool
}

// QueryWithContract answers a SQL statement under an a-priori error
// contract. Infeasible contracts fail before any scan work.
func (p *Prepared) QueryWithContract(ctx context.Context, statement string, c Contract) (ContractResult, error) {
	plan, err := p.PlanContract(statement, c)
	if err != nil {
		return ContractResult{}, err
	}
	return p.RunContractPlan(ctx, plan)
}

// PlanContract parses, compiles and contract-plans a statement without
// running it (the plan-once counterpart of QueryWithContract; see
// DB.PlanExact). The contract planner runs here: an infeasible
// contract fails now, at plan time, with kind ErrContractInfeasible.
// Contract planning needs the resident sample and cube, so sharded and
// distributed preparations report ErrUnsupported.
func (p *Prepared) PlanContract(statement string, c Contract) (*exec.Plan, error) {
	return exec.PlanContractStatement(p.target, p.tbl, statement, c, contractSeed)
}

// contractSeed fixes the subsample drawn by the approx rung, so equal
// plans answer identically and cache keys stay honest.
const contractSeed = 0x5eed

// RunContractPlan executes a plan built by PlanContract.
func (p *Prepared) RunContractPlan(ctx context.Context, plan *exec.Plan) (ContractResult, error) {
	out, err := p.db.ex.Run(ctx, plan, p.db.budgetFor(ctx))
	if err != nil {
		return ContractResult{}, err
	}
	return ContractResult{
		Result:    toResult(out.Answer),
		Strategy:  out.ContractStrategy,
		Escalated: out.ContractEscalated,
	}, nil
}
