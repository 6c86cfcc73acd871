package contract

import (
	"fmt"
	"math"

	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
)

// Strategy is one answer path the planner can choose, ordered by cost.
type Strategy uint8

const (
	// StrategyCube answers through the standard AQP++ pipeline where
	// the pilot shows the cube covering the query exactly (the §4.2.1
	// unification: diff vector all zero, half-width 0) — or, for
	// MIN/MAX, through a covering extrema index. Effectively free.
	StrategyCube Strategy = iota
	// StrategyApprox answers closed-form AQP++ on the smallest
	// sufficient uniform subset of the prepared sample.
	StrategyApprox
	// StrategyBootstrap answers with an empirical bootstrap interval
	// over the full sample — chosen when the predicate's pilot support
	// is too small to trust the CLT interval.
	StrategyBootstrap
	// StrategyExact scans the full table (only when Contract.AllowExact).
	StrategyExact
)

// String implements fmt.Stringer; the forms are wire-stable (they
// appear in /v1/contract responses).
func (s Strategy) String() string {
	switch s {
	case StrategyCube:
		return "cube"
	case StrategyApprox:
		return "approx"
	case StrategyBootstrap:
		return "bootstrap"
	case StrategyExact:
		return "exact"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

const (
	// safetyFactor pads the inverted sample size against pilot-variance
	// noise: the pilot's Var(x) is itself an estimate.
	safetyFactor = 1.25
	// minPilotRows is the smallest pilot the estimator trusts; below it
	// the full sample plays pilot (still cheap — no table scan).
	minPilotRows = 64
	// minAnswerRows floors the chosen subsample size: CLT intervals at
	// a handful of rows are folklore, not statistics.
	minAnswerRows = 64
	// minCLTSupport is the smallest pilot predicate support for which
	// the closed-form interval is trusted; below it the planner prefers
	// an empirical bootstrap interval.
	minCLTSupport = 32
)

// Decision is the planner's verdict: the cheapest strategy predicted to
// meet the contract, plus the pilot evidence behind it. It is computed
// from prepared state only (sample + cube), never from a table scan,
// so infeasible contracts are rejected before any scan work.
type Decision struct {
	Strategy Strategy
	// SampleRows is the sample subset size the approx rung answers
	// with (the smallest sufficient n from the half-width inversion).
	SampleRows int
	// Resamples is the bootstrap rung's replicate count.
	Resamples int
	// PilotValue/PilotHalfWidth/PilotRows are the pilot answer the
	// inversion extrapolated from.
	PilotValue     float64
	PilotHalfWidth float64
	PilotRows      int
	// Support is the number of pilot rows inside the predicate.
	Support int
	// PredictedHalfWidth is the predicted interval at SampleRows.
	PredictedHalfWidth float64
}

// Rung is one step of the runtime escalation ladder.
type Rung struct {
	Strategy Strategy
	// Rows is the sample subset size for cube/approx rungs.
	Rows int
}

// Ladder returns the runtime escalation sequence starting at the
// decision's strategy: each rung is strictly more expensive, ending at
// exact when the contract allows it. The executor runs rungs in order
// until one's realized interval meets the contract.
func (d Decision) Ladder(fullRows int, allowExact bool) []Rung {
	var rungs []Rung
	switch d.Strategy {
	case StrategyCube:
		// The cube rung already answers on the full sample; a miss
		// means the alignment prediction was wrong, so go empirical.
		rungs = []Rung{{StrategyCube, fullRows}, {StrategyBootstrap, fullRows}}
	case StrategyApprox:
		rungs = []Rung{{StrategyApprox, d.SampleRows}}
		if d.SampleRows < fullRows {
			rungs = append(rungs, Rung{StrategyApprox, fullRows})
		}
		rungs = append(rungs, Rung{StrategyBootstrap, fullRows})
	case StrategyBootstrap:
		rungs = []Rung{{StrategyBootstrap, fullRows}}
	case StrategyExact:
		return []Rung{{StrategyExact, 0}}
	}
	if allowExact {
		rungs = append(rungs, Rung{StrategyExact, 0})
	}
	return rungs
}

// Decide picks the cheapest strategy predicted to meet the contract
// for q against proc's prepared state, or returns *InfeasibleError.
// Only scalar SUM/COUNT/AVG queries have sampling estimators; MIN/MAX
// are served from a covering extrema index (exact) or escalate, and
// GROUP BY is not contractable (each group would need its own bound).
func Decide(proc *core.Processor, q engine.Query, c Contract) (Decision, error) {
	if err := c.Validate(); err != nil {
		return Decision{}, err
	}
	if len(q.GroupBy) > 0 {
		return Decision{}, fmt.Errorf("contract: %w: GROUP BY queries are not contractable", core.ErrUnsupported)
	}
	conf := c.ConfidenceOrDefault()
	switch q.Func {
	case engine.Sum, engine.Count, engine.Avg:
		return decideSampling(proc, q, c, conf)
	default:
		// MIN/MAX/VAR have no closed-form sampling interval. A covering
		// extrema index answers MIN/MAX exactly at precomputation cost.
		if q.Func == engine.Min || q.Func == engine.Max {
			if ans, err := proc.Answer(q); err == nil {
				return Decision{Strategy: StrategyCube, PilotValue: ans.Estimate.Value}, nil
			}
		}
		if c.AllowExact {
			return Decision{Strategy: StrategyExact}, nil
		}
		return Decision{}, &InfeasibleError{
			Contract:    c,
			TightestAbs: math.Inf(1),
			TightestRel: math.Inf(1),
			Reason:      fmt.Sprintf("planner: no sampling estimator for %v and exact escalation is not allowed", q.Func),
		}
	}
}

// decideSampling runs the pilot answer on the identification subsample
// and inverts hw(n) = hw₀·sqrt(n₀/n) to size the cheapest rung.
func decideSampling(proc *core.Processor, q engine.Query, c Contract, conf float64) (Decision, error) {
	pilot := proc.Sub
	if pilot == nil || pilot.Size() < minPilotRows {
		pilot = proc.Sample
	}
	shadow := &core.Processor{
		Sample: pilot, Cube: proc.Cube, CountCube: proc.CountCube,
		MinMax: proc.MinMax, Confidence: conf,
	}
	ans, err := shadow.Answer(q)
	if err != nil {
		return Decision{}, err
	}
	d := Decision{
		PilotValue:     ans.Estimate.Value,
		PilotHalfWidth: ans.Estimate.HalfWidth,
		PilotRows:      pilot.Size(),
	}
	d.Support, err = supportOf(pilot, q)
	if err != nil {
		return Decision{}, err
	}
	nFull := proc.Sample.Size()
	if d.PilotHalfWidth == 0 {
		// The cube covered the query exactly on the pilot (or the whole
		// predicate fell outside the sample); serve through the
		// standard pipeline and let the ladder verify.
		d.Strategy, d.SampleRows = StrategyCube, nFull
		return d, nil
	}
	// Conservative magnitude for the relative bound: the pilot CI's
	// lower bound on |value|. When the pilot CI spans zero that lower
	// bound collapses and would reject every relative contract, however
	// loose — fall back to the point estimate there; the runtime ladder
	// verifies the realized interval anyway, so an optimistic magnitude
	// costs an escalation, never a broken promise.
	magnitude := math.Abs(d.PilotValue) - d.PilotHalfWidth
	if magnitude <= 0 {
		magnitude = math.Abs(d.PilotValue)
	}
	eps := c.TargetAbs(magnitude)
	predFull := d.PilotHalfWidth * math.Sqrt(float64(d.PilotRows)/float64(nFull))
	if eps > 0 && !math.IsInf(eps, 1) {
		need := float64(d.PilotRows) * (d.PilotHalfWidth / eps) * (d.PilotHalfWidth / eps) * safetyFactor
		// Compare in float space: a tight enough bound makes need
		// overflow int, and float→int conversion past the int range is
		// implementation-defined — it must not be allowed to wrap into
		// a small "sufficient" sample size.
		if need <= float64(nFull) {
			nReq := int(math.Ceil(need))
			if nReq < minAnswerRows {
				nReq = minAnswerRows
			}
			if d.Support < minCLTSupport {
				// Too few matching pilot rows to trust the CLT; buy the
				// empirical interval instead.
				d.Strategy, d.SampleRows, d.Resamples = StrategyBootstrap, nFull, core.DefaultResamples
				d.PredictedHalfWidth = predFull
				return d, nil
			}
			if nReq > (nFull*9)/10 {
				nReq = nFull // subsampling overhead isn't worth <10% savings
			}
			d.Strategy, d.SampleRows = StrategyApprox, nReq
			d.PredictedHalfWidth = d.PilotHalfWidth * math.Sqrt(float64(d.PilotRows)/float64(nReq))
			return d, nil
		}
	}
	// No sample size suffices (or the relative bound collapsed around a
	// zero magnitude): exact or infeasible.
	if c.AllowExact {
		d.Strategy = StrategyExact
		return d, nil
	}
	rel := math.Inf(1)
	if d.PilotValue != 0 {
		rel = predFull / math.Abs(d.PilotValue)
	}
	return Decision{}, &InfeasibleError{
		Contract:    c,
		TightestAbs: predFull,
		TightestRel: rel,
		Reason:      "planner: full prepared sample cannot reach the bound and exact escalation is not allowed",
	}
}

// supportOf counts pilot rows inside the query's predicate.
func supportOf(s *sample.Sample, q engine.Query) (int, error) {
	sel, err := s.Table.Filter(q.Ranges)
	if err != nil {
		return 0, err
	}
	return sel.Count(), nil
}

// AnswerAt answers q closed-form on a uniform subset of rows drawn
// from proc's sample (the approx/cube rung of the ladder). rows at or
// above the sample size answers on the whole sample. The subset is a
// valid uniform sample of the table in its own right — every row of a
// uniform without-replacement sample carries InvP = N regardless of
// sample size — so the CLT interval needs no reweighting.
func AnswerAt(proc *core.Processor, q engine.Query, rows int, conf float64, seed uint64) (core.Answer, error) {
	s := proc.Sample
	if rows > 0 && rows < s.Size() {
		s = s.Subsample(float64(rows)/float64(s.Size()), seed)
	}
	shadow := &core.Processor{
		Sample: s, Sub: proc.Sub, Cube: proc.Cube, CountCube: proc.CountCube,
		MinMax: proc.MinMax, Confidence: conf,
	}
	if proc.Sub != nil && proc.Sub.Size() > s.Size() {
		shadow.Sub = nil // identification subsample must not outweigh the sample
	}
	return shadow.Answer(q)
}
