// Package contract implements a-priori error contracts (the PilotDB
// inversion of AQP++'s budget model): instead of a time budget that
// yields whatever error falls out, the caller states the error it can
// tolerate — {max_error, confidence} — and the planner picks the
// cheapest strategy that provably meets it, or rejects the contract up
// front as infeasible, the same way the admission gate rejects
// infeasible deadlines.
//
// The estimator inverts the CLT half-width formula per aggregate
// family. For SUM/COUNT over a uniform sample the interval is
// hw(n) = λ·sqrt(Var(x)/n) (aqp.Estimator.Total), so a pilot answer at
// n₀ rows predicts hw at any n as hw₀·sqrt(n₀/n) and the smallest
// sufficient sample is n ≥ n₀·(hw₀/ε)². AVG's delta-method interval
// carries the same 1/√n scaling through its residual vector, so the
// same inversion applies; MIN/MAX have no sampling estimator at all
// and are served from a precomputed extrema index or an exact scan.
package contract

import (
	"fmt"
	"math"
)

// Contract is an a-priori error bound: the final answer's confidence
// interval half-width must satisfy every bound that is set (> 0), at
// the stated confidence. At least one bound must be set.
type Contract struct {
	// MaxRelError bounds hw/|value| (e.g. 0.01 = 1%).
	MaxRelError float64
	// MaxAbsError bounds hw in the aggregate's own units.
	MaxAbsError float64
	// Confidence is the CI level the bound holds at (default 0.95).
	Confidence float64
	// AllowExact permits escalation to a full exact scan when no
	// sampling strategy can meet the bound. Off by default: an exact
	// scan trivially satisfies any contract, so allowing it silently
	// would hide the infeasibility the caller asked to be told about.
	AllowExact bool
}

// ConfidenceOrDefault resolves the zero value to 0.95.
func (c Contract) ConfidenceOrDefault() float64 {
	if c.Confidence == 0 {
		return 0.95
	}
	return c.Confidence
}

// Validate rejects contracts with no bound, negative bounds, or a
// confidence outside (0, 1).
func (c Contract) Validate() error {
	if c.MaxRelError < 0 || c.MaxAbsError < 0 {
		return fmt.Errorf("contract: error bounds must be non-negative (rel=%v abs=%v)", c.MaxRelError, c.MaxAbsError)
	}
	if c.MaxRelError == 0 && c.MaxAbsError == 0 {
		return fmt.Errorf("contract: at least one of max_rel_error or max_abs_error must be set")
	}
	if conf := c.ConfidenceOrDefault(); conf <= 0 || conf >= 1 {
		return fmt.Errorf("contract: confidence must be in (0,1), got %v", conf)
	}
	return nil
}

// Met reports whether a realized answer (value, halfWidth) satisfies
// every bound the contract sets. The relative bound is evaluated
// against the realized |value|; a zero value meets it only with a
// zero-width interval.
func (c Contract) Met(value, halfWidth float64) bool {
	if c.MaxAbsError > 0 && halfWidth > c.MaxAbsError {
		return false
	}
	if c.MaxRelError > 0 && halfWidth > c.MaxRelError*math.Abs(value) {
		return false
	}
	return true
}

// TargetAbs resolves the contract into one absolute half-width target
// given a conservative magnitude estimate for the answer (a lower
// bound on |value|): the tightest of the set bounds. It returns 0
// when only the relative bound is set and the magnitude is
// indistinguishable from zero — no sampling interval can provably
// meet a relative bound around zero.
func (c Contract) TargetAbs(magnitude float64) float64 {
	eps := math.Inf(1)
	if c.MaxAbsError > 0 {
		eps = c.MaxAbsError
	}
	if c.MaxRelError > 0 {
		if rel := c.MaxRelError * magnitude; rel < eps {
			eps = rel
		}
	}
	return eps
}

// Key renders the contract canonically for folding into a plan cache
// key: exact float bits, so distinct bounds never collide.
func (c Contract) Key() string {
	exact := 0
	if c.AllowExact {
		exact = 1
	}
	return fmt.Sprintf("rel:%x,abs:%x,conf:%x,exact:%d",
		math.Float64bits(c.MaxRelError), math.Float64bits(c.MaxAbsError),
		math.Float64bits(c.ConfidenceOrDefault()), exact)
}

// InfeasibleError reports that no permitted strategy can provably meet
// the contract. It carries the tightest half-width the planner
// predicts it *could* achieve without an exact scan, so clients can
// loosen the contract (or set AllowExact) instead of guessing.
type InfeasibleError struct {
	// Contract is the bound that was asked for.
	Contract Contract
	// TightestAbs is the predicted achievable half-width at the full
	// sample (+Inf when no sampling estimator exists, e.g. MIN/MAX
	// with no extrema index).
	TightestAbs float64
	// TightestRel is TightestAbs over the predicted |value| (+Inf when
	// the predicted value is zero).
	TightestRel float64
	// Reason says which stage gave up ("planner" for the up-front
	// rejection, "runtime" when every rung ran and missed).
	Reason string
}

// Error implements error.
func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("contract infeasible (%s): tightest achievable half-width %.6g (rel %.6g) vs bound rel=%v abs=%v at %v confidence",
		e.Reason, e.TightestAbs, e.TightestRel, e.Contract.MaxRelError, e.Contract.MaxAbsError, e.Contract.ConfidenceOrDefault())
}
