// Package aqp implements the sampling primitives of approximate query
// processing (Equation 3 of the paper): point estimates and confidence
// intervals for totals and ratios over uniform, measure-biased and
// stratified samples, plus the gather-free replicate kernels of the
// SUM/COUNT bootstrap.
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

// PseudoValues sets xs[i] = vals[i]·InvP[i], the pseudo-value welford
// folds for sample row i, with welford's operands in welford's order.
// s must be uniform or measure-biased, and xs must hold len(vals) values.
func PseudoValues(s *sample.Sample, vals, xs []float64) {
	xs = xs[:len(vals)]
	for i, w := range s.InvP[:len(vals)] {
		xs[i] = vals[i] * w
	}
}

// ResampledMeans is the bootstrap's replicate kernel for uniform and
// measure-biased samples. Lane l folds xs[idx[l][0]], xs[idx[l][1]], …
// through welford's mean recurrence (d := x − mean; mean += d/k), so
// mean[l] is bit-identical to SumOfValues(…).Value over the
// with-replacement resample of the rows at idx[l]: xs holds the
// pseudo-values (PseudoValues), the resample's pseudo-values are xs
// read at idx[l], and its Value is welford's mean, which never reads m2.
// Nothing is gathered. idx holds one to Lanes index vectors of equal
// length; lanes beyond len(idx) repeat idx[0] and are ignored, and as
// in welford the lanes' divide chains overlap in the pipeline.
func ResampledMeans(xs []float64, idx [][]int) (mean [Lanes]float64) {
	i0 := idx[0]
	n := len(i0)
	i1, i2, i3 := i0, i0, i0
	if len(idx) > 1 {
		i1 = idx[1][:n]
	}
	if len(idx) > 2 {
		i2 = idx[2][:n]
	}
	if len(idx) > 3 {
		i3 = idx[3][:n]
	}
	var a0, a1, a2, a3 float64
	for i, j := range i0 {
		k := float64(i + 1)
		d0 := xs[j] - a0
		a0 += d0 / k
		d1 := xs[i1[i]] - a1
		a1 += d1 / k
		d2 := xs[i2[i]] - a2
		a2 += d2 / k
		d3 := xs[i3[i]] - a3
		a3 += d3 / k
	}
	return [Lanes]float64{a0, a1, a2, a3}
}

// ResampledStratifiedSum is stratifiedSum's Value over the
// with-replacement resample of s's rows at idx, read straight off vals
// and s.StratumOf: each draw adds vals[j] to its stratum's sum in draw
// order, and each drawn stratum adds N_h/n_h times its sum in stratum
// order — the operations stratifiedSum performs on the gathered
// resample, so the result is bit-identical to its Value. sums and counts
// are scratch of len(s.Strata) and are overwritten.
func ResampledStratifiedSum(s *sample.Sample, vals []float64, idx []int, sums []float64, counts []int64) float64 {
	clear(sums)
	clear(counts)
	for _, j := range idx {
		h := s.StratumOf[j]
		sums[h] += vals[j]
		counts[h]++
	}
	est := 0.0
	for h, st := range s.Strata {
		if counts[h] == 0 {
			continue
		}
		scale := float64(st.SourceRows) / float64(counts[h])
		est += scale * sums[h]
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
