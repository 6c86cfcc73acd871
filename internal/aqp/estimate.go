// Package aqp implements the sampling primitives of approximate query
// processing (Equation 3 of the paper): point estimates and confidence
// intervals for totals and ratios over uniform, measure-biased and
// stratified samples, plus the support-only replicate kernel of the
// SUM/COUNT bootstrap (Resampler).
//
// The central primitive is SumOfValues: an unbiased estimate of a
// population total Σ_D v from per-sample-row contributions v_i. Both plain
// AQP (v_i = a_i·cond(i)) and AQP++ (v_i = a_i·(cond_q(i) − cond_pre(i)))
// are built on it, which is exactly how the paper frames the connection
// (Equation 4 treats Equation 3 as a black box). Ratio turns a SUM and a
// COUNT total into AVG. core.Processor answers queries; its cube-less
// case is plain AQP, which EstimateQuery spells out with the primitives.
package aqp

import (
	"fmt"
	"math"
	"math/bits"

	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// Estimate is a point estimate with a symmetric confidence interval.
type Estimate struct {
	// Value is the point estimate.
	Value float64
	// HalfWidth is ε, half the width of the confidence interval; the
	// paper's query error (§3).
	HalfWidth float64
	// Confidence is the interval's confidence level (e.g. 0.95).
	Confidence float64
	// SampleRows is the number of sample rows that backed the estimate.
	SampleRows int
}

// RelativeError returns ε/|truth|, the paper's §7.1 error metric. It
// returns +Inf when truth is zero and ε is not.
func (e Estimate) RelativeError(truth float64) float64 {
	if truth == 0 {
		if e.HalfWidth == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(e.HalfWidth / truth)
}

// Low returns the interval's lower bound.
func (e Estimate) Low() float64 { return e.Value - e.HalfWidth }

// High returns the interval's upper bound.
func (e Estimate) High() float64 { return e.Value + e.HalfWidth }

// SumOfValues estimates the population total Σ_D v from the per-sample-row
// contributions vals (vals[i] belongs to sample row i; rows outside the
// query's condition contribute 0). It dispatches on the sample's kind:
//
//   - uniform / measure-biased: the per-draw pseudo-values x_i = v_i/p_i
//     are (approximately) i.i.d., so the estimate is mean(x) and the CLT
//     interval is λ·sqrt(Var(x)/n) — the paper's Example 1 generalized to
//     unequal probabilities.
//   - stratified: Σ_h (N_h/n_h)·Σ_{i∈h} v_i with variance
//     Σ_h N_h²·Var_h(v)/n_h.
func SumOfValues(s *sample.Sample, vals []float64, confidence float64) Estimate {
	var out [1]Estimate
	SumsOfValues(s, [][]float64{vals}, confidence, out[:])
	return out[0]
}

// Lanes is how many vectors SumsOfValues folds in one pass over the rows.
const Lanes = 4

// SumsOfValues is SumOfValues for several vectors over one sample:
// out[j] is SumOfValues(s, vals[j], confidence), bit for bit. Uniform
// and measure-biased samples fold up to Lanes vectors per pass over the
// rows (see welford), so scoring many vectors — identification's
// candidates, or a pre and the φ-guard — costs about what scoring one
// does. out must hold len(vals) estimates.
func SumsOfValues(s *sample.Sample, vals [][]float64, confidence float64, out []Estimate) {
	n := s.Size()
	if len(out) < len(vals) {
		panic(fmt.Sprintf("aqp: %d estimates for %d value vectors", len(out), len(vals)))
	}
	for _, v := range vals {
		if len(v) != n {
			panic(fmt.Sprintf("aqp: %d values for %d sample rows", len(v), n))
		}
	}
	lambda := stats.ZScore(confidence)
	if s.Kind == sample.Stratified {
		for j, v := range vals {
			out[j] = stratifiedSum(s, v, confidence, lambda)
		}
		return
	}
	if n == 0 {
		for j := range vals {
			out[j] = Estimate{Confidence: confidence}
		}
		return
	}
	for j := 0; j < len(vals); j += Lanes {
		lanes := vals[j:min(j+Lanes, len(vals))]
		mean, m2 := welford(s.InvP[:n], lanes)
		for l := range lanes {
			out[j+l] = Estimate{
				Value:      mean[l],
				HalfWidth:  lambda * math.Sqrt(m2[l]/float64(n)/float64(n)),
				Confidence: confidence,
				SampleRows: n,
			}
		}
	}
}

// welford runs stats.Moments.Add's mean/M2 recurrence over the
// pseudo-values x = v·invP[i] of one to Lanes vectors in a single loop
// over the rows. Each lane performs exactly Moments.Add's operations in
// its order (d := x − mean; mean += d/k; m2 += d·(x − mean)), so its
// mean and m2 are bit-identical to a Moments fed the same x — the
// speedup is only that the lanes' dependency chains, each waiting on a
// divide per row, are independent and overlap in the pipeline. Lanes
// beyond len(vals) repeat vals[0]; their results are ignored.
func welford(invP []float64, vals [][]float64) (mean, m2 [Lanes]float64) {
	n := len(invP)
	v0 := vals[0][:n]
	v1, v2, v3 := v0, v0, v0
	if len(vals) > 1 {
		v1 = vals[1][:n]
	}
	if len(vals) > 2 {
		v2 = vals[2][:n]
	}
	if len(vals) > 3 {
		v3 = vals[3][:n]
	}
	var a0, a1, a2, a3, q0, q1, q2, q3 float64
	for i, w := range invP {
		k := float64(i + 1)
		x0 := v0[i] * w
		d0 := x0 - a0
		a0 += d0 / k
		q0 += d0 * (x0 - a0)
		x1 := v1[i] * w
		d1 := x1 - a1
		a1 += d1 / k
		q1 += d1 * (x1 - a1)
		x2 := v2[i] * w
		d2 := x2 - a2
		a2 += d2 / k
		q2 += d2 * (x2 - a2)
		x3 := v3[i] * w
		d3 := x3 - a3
		a3 += d3 / k
		q3 += d3 * (x3 - a3)
	}
	return [Lanes]float64{a0, a1, a2, a3}, [Lanes]float64{q0, q1, q2, q3}
}

// Resampler draws bootstrap replicates of SumOfValues's Value over one
// value vector. A replicate resamples each stratum's n_h rows with
// replacement (a uniform or measure-biased sample is one stratum of n
// rows), but only the rows with a nonzero value can move it. Of n_h
// draws, the number landing on the stratum's s_h nonzero rows is
// Binomial(n_h, s_h/n_h), and each of those is uniform over them, so a
// replicate costs one binomial draw and that many picks per stratum —
// O(support), not O(n) — with the distribution of the full resample.
type Resampler struct {
	strata  []resampleStratum // the strata holding support, in stratum order
	support []float64         // what drawing each nonzero row adds, grouped by stratum
}

type resampleStratum struct {
	rows int            // n_h: the stratum's sample rows, drawn per replicate
	end  int            // support[previous end:end] belong to this stratum
	hits stats.Binomial // of the n_h draws, how many land on the support
}

// NewResampler prepares the replicates of SumOfValues(s, vals, ·).Value.
// Drawing nonzero row i adds vals[i]·InvP[i]/n on a uniform or
// measure-biased sample, and vals[i]·N_h/n_h on a stratified one, whose
// strata are resampled separately, n_h rows each: the fixed-n_h design
// stratifiedSum's interval assumes. It allocates 8 bytes per nonzero row
// and a 56-byte record per stratum (core.BootstrapScratchBytes); s.InvP
// (or s.StratumOf) must cover vals.
func NewResampler(s *sample.Sample, vals []float64) Resampler {
	stratified := s.Kind == sample.Stratified
	// Count each stratum's rows and nonzero rows, turn the counts into
	// write cursors, place the contributions, and keep the strata that
	// received any.
	strata := make([]resampleStratum, 1)
	if stratified {
		strata = make([]resampleStratum, len(s.Strata))
	}
	nonzero := 0
	for i, v := range vals {
		st := &strata[0]
		if stratified {
			st = &strata[s.StratumOf[i]]
		}
		st.rows++
		if !stats.ExactEqual(v, 0) {
			st.end++
			nonzero++
		}
	}
	if nonzero == 0 {
		return Resampler{}
	}
	at := 0
	for h := range strata {
		at, strata[h].end = at+strata[h].end, at
	}
	support := make([]float64, nonzero)
	for i, v := range vals {
		if stats.ExactEqual(v, 0) {
			continue
		}
		var st *resampleStratum
		var w float64
		if stratified {
			h := s.StratumOf[i]
			st = &strata[h]
			w = float64(s.Strata[h].SourceRows) / float64(st.rows)
		} else {
			st = &strata[0]
			w = s.InvP[i] / float64(len(vals))
		}
		support[st.end] = v * w
		st.end++
	}
	kept, start := strata[:0], 0
	for _, st := range strata {
		if support := st.end - start; support > 0 {
			st.hits = stats.NewBinomial(st.rows, float64(support)/float64(st.rows))
			kept = append(kept, st)
		}
		start = st.end
	}
	return Resampler{strata: kept, support: support}
}

// Replicate draws one replicate from r.
func (rs Resampler) Replicate(r *stats.RNG) float64 {
	est, start := 0.0, 0
	for _, st := range rs.strata {
		vals := rs.support[start:st.end]
		start = st.end
		for m := st.hits.Draw(r); m > 0; m-- {
			est += vals[r.Intn(len(vals))]
		}
	}
	return est
}

func stratifiedSum(s *sample.Sample, vals []float64, confidence, lambda float64) Estimate {
	perStratum := make([]stats.Moments, len(s.Strata))
	for i, v := range vals {
		perStratum[s.StratumOf[i]].Add(v)
	}
	est := 0.0
	varTotal := 0.0
	for h, st := range s.Strata {
		m := &perStratum[h]
		if m.Count() == 0 {
			continue
		}
		scale := float64(st.SourceRows) / float64(m.Count())
		est += scale * m.Sum()
		// Finite-population correction when a stratum is fully sampled
		// drives its variance to zero (the paper's "<N,F>" observation).
		fpc := 1 - float64(m.Count())/float64(st.SourceRows)
		if fpc < 0 {
			fpc = 0
		}
		nh := float64(m.Count())
		varTotal += float64(st.SourceRows) * float64(st.SourceRows) * m.Variance() / nh * fpc
	}
	return Estimate{
		Value:      est,
		HalfWidth:  lambda * math.Sqrt(varTotal),
		Confidence: confidence,
		SampleRows: len(vals),
	}
}

// ConditionVector returns per-sample-row contributions a_i·1[cond(i)] for
// the query's aggregate column and range conditions. COUNT queries use
// a_i = 1. Group-by clauses are rejected here; core.Processor's
// AnswerGroups pins each group with equality ranges instead.
func ConditionVector(s *sample.Sample, q engine.Query) ([]float64, error) {
	if len(q.GroupBy) > 0 {
		return nil, fmt.Errorf("aqp: ConditionVector does not handle GROUP BY")
	}
	sel, err := s.Table.Filter(q.Ranges)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, s.Size())
	var col *engine.Column
	if q.Func != engine.Count {
		col, err = s.Table.Column(q.Col)
		if err != nil {
			return nil, err
		}
	}
	// Iterate the selection word-at-a-time (peeling set bits with
	// TrailingZeros64) instead of paying a closure call per row.
	for wi, w := range sel.Words() {
		base := wi << 6
		for w != 0 {
			i := base + bits.TrailingZeros64(w)
			w &= w - 1
			if col != nil {
				vals[i] = col.Float(i)
			} else {
				vals[i] = 1
			}
		}
	}
	return vals, nil
}

// Ratio estimates AVG as the ratio of a SUM total and a COUNT total,
// given the per-sample-row vectors each was estimated from, with a
// delta-method (linearization) interval: the variance of R̂ = sum/count
// is approximated by the variance of the residual total
// Σ w·(sumVals − R̂·cntVals) divided by count². The residual is built in
// place of sumVals. A zero count yields a zero estimate.
func Ratio(s *sample.Sample, sum, count float64, sumVals, cntVals []float64, confidence float64) Estimate {
	if count == 0 {
		return Estimate{Confidence: confidence, SampleRows: s.Size()}
	}
	r := sum / count
	for i := range sumVals {
		sumVals[i] -= r * cntVals[i]
	}
	re := SumOfValues(s, sumVals, confidence)
	return Estimate{
		Value:      r,
		HalfWidth:  re.HalfWidth / math.Abs(count),
		Confidence: confidence,
		SampleRows: s.Size(),
	}
}

// EstimateQuery answers a SUM, COUNT or AVG query by plain AQP
// (Equation 3). It is core.Processor with no cube (pre = φ) written with
// this package's primitives alone, and answers bit for bit what that
// processor does: SUM and COUNT estimate the condition vector's total,
// and AVG is the Ratio of the two. Other aggregates need exact
// processing.
func EstimateQuery(s *sample.Sample, q engine.Query, confidence float64) (Estimate, error) {
	switch q.Func {
	case engine.Sum, engine.Count:
		vals, err := ConditionVector(s, q)
		if err != nil {
			return Estimate{}, err
		}
		return SumOfValues(s, vals, confidence), nil
	case engine.Avg:
		sumQ, cntQ := q, q
		sumQ.Func, cntQ.Func = engine.Sum, engine.Count
		sumVals, err := ConditionVector(s, sumQ)
		if err != nil {
			return Estimate{}, err
		}
		cntVals, err := ConditionVector(s, cntQ)
		if err != nil {
			return Estimate{}, err
		}
		var ests [2]Estimate
		SumsOfValues(s, [][]float64{sumVals, cntVals}, confidence, ests[:])
		return Ratio(s, ests[0].Value, ests[1].Value, sumVals, cntVals, confidence), nil
	default:
		return Estimate{}, fmt.Errorf("aqp: no closed-form estimator for %v", q.Func)
	}
}
