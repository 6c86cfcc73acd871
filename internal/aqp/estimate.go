// Package aqp implements the sampling primitives of approximate query
// processing (Equation 3 of the paper): point estimates and confidence
// intervals for totals and ratios over uniform, measure-biased and
// stratified samples, plus the support-only replicate kernel of the
// SUM/COUNT bootstrap (Resampler).
//
// The central primitive is Estimator.Total: an unbiased estimate of a
// population total Σ_D v from per-sample-row contributions v_i, given as
// a Lane of row selections. Both plain AQP (v_i = a_i·cond(i)) and AQP++
// (v_i = a_i·(cond_q(i) − cond_pre(i))) are built on it, which is
// exactly how the paper frames the connection (Equation 4 treats
// Equation 3 as a black box), and it reads only the rows where v_i can
// be nonzero. Estimator.Ratio turns a SUM and a COUNT total into AVG. core.Processor answers queries; its cube-less
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

// Lane is one per-sample-row vector v whose population total Σ_D v the
// Estimator estimates, held as two row selections instead of n values:
// row i contributes v_i = +a_i when it is in Plus but not Minus, −a_i
// when it is in Minus but not Plus, and 0 otherwise. Plain AQP's
// a_i·cond(i) is Plus = the condition's rows with no Minus; AQP++'s
// diff a_i·(cond_q(i) − cond_pre(i)) (Equation 4) adds Minus = the
// pre's rows. The rows in Plus XOR Minus are the lane's support, the
// only rows the Estimator reads. Plus and Minus are selection words
// over the sample rows (engine.Bitset.Words: bit i%64 of word i/64 is
// row i), at least one word per 64 rows; nil selects no row. Col holds
// a_i; nil means a_i = 1 (COUNT).
type Lane struct {
	Plus, Minus []uint64
	Col         *engine.Column
}

// ConditionLane returns q's condition lane on s: Plus holds the sample
// rows inside q's ranges and Col is q's aggregate column (nil for
// COUNT). Group-by clauses are rejected here; core.Processor's
// AnswerGroups pins each group with equality ranges instead.
func ConditionLane(s *sample.Sample, q engine.Query) (Lane, error) {
	if len(q.GroupBy) > 0 {
		return Lane{}, fmt.Errorf("aqp: ConditionLane does not handle GROUP BY")
	}
	sel, err := s.Table.Filter(q.Ranges)
	if err != nil {
		return Lane{}, err
	}
	l := Lane{Plus: sel.Words()}
	if q.Func != engine.Count {
		if l.Col, err = s.Table.Column(q.Col); err != nil {
			return Lane{}, err
		}
	}
	return l, nil
}

// Estimator estimates lane totals over one sample. It holds what every
// lane shares — the row count, λ and, on a stratified sample, each
// stratum's row count n_h, counted once — plus per-stratum scratch, so
// a lane costs O(support) rows and O(strata) words, not O(n). An
// Estimator is not safe for concurrent use.
type Estimator struct {
	s      *sample.Sample
	conf   float64
	lambda float64
	n      int
	// Stratified samples only: rows[h] is n_h; sum, mean, m2 and cnt
	// are per-stratum scratch that every lane overwrites.
	rows          []int
	sum, mean, m2 []float64
	cnt           []int
}

// NewEstimator prepares the estimates of lanes over s at the given
// confidence level.
func NewEstimator(s *sample.Sample, confidence float64) Estimator {
	e := Estimator{s: s, conf: confidence, lambda: stats.ZScore(confidence), n: s.Size()}
	if s.Kind == sample.Stratified {
		h := len(s.Strata)
		e.rows, e.cnt = make([]int, h), make([]int, h)
		e.sum, e.mean, e.m2 = make([]float64, h), make([]float64, h), make([]float64, h)
		for _, st := range s.StratumOf[:e.n] {
			e.rows[st]++
		}
	}
	return e
}

// Total estimates the population total Σ_D v of l's values and returns
// it with the lane's support: how many sample rows are in Plus XOR
// Minus. It dispatches on the sample's kind:
//
//   - uniform / measure-biased: the per-draw pseudo-values x_i = v_i/p_i
//     are (approximately) i.i.d., so the estimate is mean(x) and the CLT
//     interval is λ·sqrt(Var(x)/n) — the paper's Example 1 generalized to
//     unequal probabilities. Only the support S holds a nonzero x, so
//     mean = Σ_S x / n and n·Var(x) = Σ_S (x − mean)² + (n − |S|)·mean².
//   - stratified: Σ_h (N_h/n_h)·Σ_{i∈h} v_i with variance
//     Σ_h N_h²·Var_h(v)/n_h·(1 − n_h/N_h), the same sums per stratum.
func (e *Estimator) Total(l Lane) (Estimate, int) {
	return e.total(l, Lane{}, 0)
}

// Ratio estimates AVG as the ratio of a SUM total and a COUNT total,
// given the lanes each was estimated from, with a delta-method
// (linearization) interval: the variance of R̂ = sum/count is
// approximated by the variance of the residual total
// Σ w·(v_sum − R̂·v_count), over the union of the two supports, divided
// by count². A zero count yields a zero estimate.
func (e *Estimator) Ratio(sum, count float64, sumLane, countLane Lane) Estimate {
	if count == 0 {
		return Estimate{Confidence: e.conf, SampleRows: e.n}
	}
	r := sum / count
	re, _ := e.total(sumLane, countLane, r)
	return Estimate{
		Value:      r,
		HalfWidth:  re.HalfWidth / math.Abs(count),
		Confidence: e.conf,
		SampleRows: e.n,
	}
}

// total estimates the total of v_a − r·v_b (Total is b empty), two
// passes over the support: the sums, then the squared deviations.
func (e *Estimator) total(a, b Lane, r float64) (Estimate, int) {
	n := e.n
	if e.s.Kind == sample.Stratified {
		return e.stratified(a, b, r)
	}
	if n == 0 {
		return Estimate{Confidence: e.conf}, 0
	}
	invP := e.s.InvP[:n]
	sum := 0.0
	support := walk(n, a, b, r, func(i int, v float64) { sum += v * invP[i] })
	mean := sum / float64(n)
	m2 := 0.0
	walk(n, a, b, r, func(i int, v float64) {
		d := v*invP[i] - mean
		m2 += d * d
	})
	if support < n {
		m2 += float64(n-support) * mean * mean
	}
	return Estimate{
		Value:      mean,
		HalfWidth:  e.lambda * math.Sqrt(m2/float64(n)/float64(n)),
		Confidence: e.conf,
		SampleRows: n,
	}, support
}

// stratified is total on a stratified sample. Each stratum's sum adds
// its support rows in row order, so the Value is the in-order sum
// stratum by stratum.
func (e *Estimator) stratified(a, b Lane, r float64) (Estimate, int) {
	of := e.s.StratumOf
	clear(e.sum)
	clear(e.m2)
	clear(e.cnt)
	support := walk(e.n, a, b, r, func(i int, v float64) {
		e.sum[of[i]] += v
		e.cnt[of[i]]++
	})
	for h, nh := range e.rows {
		if nh > 0 {
			e.mean[h] = e.sum[h] / float64(nh)
		}
	}
	walk(e.n, a, b, r, func(i int, v float64) {
		d := v - e.mean[of[i]]
		e.m2[of[i]] += d * d
	})
	est, varTotal := 0.0, 0.0
	for h, st := range e.s.Strata {
		if e.rows[h] == 0 {
			continue
		}
		nh := float64(e.rows[h])
		est += float64(st.SourceRows) / nh * e.sum[h]
		m2 := e.m2[h]
		if zeros := e.rows[h] - e.cnt[h]; zeros > 0 {
			m2 += float64(zeros) * e.mean[h] * e.mean[h]
		}
		// Finite-population correction when a stratum is fully sampled
		// drives its variance to zero (the paper's "<N,F>" observation).
		fpc := max(1-nh/float64(st.SourceRows), 0)
		varTotal += float64(st.SourceRows) * float64(st.SourceRows) * (m2 / nh) / nh * fpc
	}
	return Estimate{
		Value:      est,
		HalfWidth:  e.lambda * math.Sqrt(varTotal),
		Confidence: e.conf,
		SampleRows: e.n,
	}, support
}

// walk calls visit(i, v_a(i) − r·v_b(i)) for every row i < n in the
// support of a or b, in ascending row order, and returns how many it
// visited. A row outside b's support takes v_a(i) as it is.
func walk(n int, a, b Lane, r float64, visit func(i int, v float64)) int {
	ma, mb := measureOf(a.Col), measureOf(b.Col)
	visited := 0
	for wi := 0; wi < (n+63)/64; wi++ {
		pa, pb := word(a.Plus, wi), word(b.Plus, wi)
		sa, sb := pa^word(a.Minus, wi), pb^word(b.Minus, wi)
		base := wi << 6
		for w := sa | sb; w != 0; w &= w - 1 {
			bit := w & -w
			i := base + bits.TrailingZeros64(w)
			v := 0.0
			if sa&bit != 0 {
				if v = ma.at(i); pa&bit == 0 {
					v = -v
				}
			}
			if sb&bit != 0 {
				u := mb.at(i)
				if pb&bit == 0 {
					u = -u
				}
				v -= r * u
			}
			visit(i, v)
			visited++
		}
	}
	return visited
}

// word returns selection word wi, 0 for a nil selection.
func word(sel []uint64, wi int) uint64 {
	if sel == nil {
		return 0
	}
	return sel[wi]
}

// measure reads a lane's a_i: straight from a resident float column's
// values, through Column.Float otherwise, and 1 with no column (COUNT).
type measure struct {
	floats []float64
	col    *engine.Column
}

func measureOf(c *engine.Column) measure {
	if c != nil && c.Type == engine.Float64 && len(c.Floats) == c.Len() {
		return measure{floats: c.Floats, col: c}
	}
	return measure{col: c}
}

func (m measure) at(i int) float64 {
	switch {
	case m.floats != nil:
		return m.floats[i]
	case m.col == nil:
		return 1
	}
	return m.col.Float(i)
}

// Resampler draws bootstrap replicates of Estimator.Total's Value over
// one lane. A replicate resamples each stratum's n_h rows with
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

// NewResampler prepares the replicates of an Estimator's Total(l).Value
// on s. Drawing support row i adds v_i·InvP[i]/n on a uniform or
// measure-biased sample, and v_i·N_h/n_h on a stratified one, whose
// strata are resampled separately, n_h rows each: the fixed-n_h design
// the stratified interval assumes. A support row whose v_i is 0 adds
// nothing and is not kept. It allocates 8 bytes per kept row and a
// 56-byte record per stratum (core.BootstrapScratchBytes).
func NewResampler(s *sample.Sample, l Lane) Resampler {
	n := s.Size()
	stratified := s.Kind == sample.Stratified
	// Count each stratum's rows and nonzero rows, turn the counts into
	// write cursors, place the contributions, and keep the strata that
	// received any.
	strata := make([]resampleStratum, 1)
	if stratified {
		strata = make([]resampleStratum, len(s.Strata))
		for _, h := range s.StratumOf[:n] {
			strata[h].rows++
		}
	} else {
		strata[0].rows = n
	}
	stratumOf := func(i int) *resampleStratum {
		if stratified {
			return &strata[s.StratumOf[i]]
		}
		return &strata[0]
	}
	nonzero := 0
	walk(n, l, Lane{}, 0, func(i int, v float64) {
		if !stats.ExactEqual(v, 0) {
			stratumOf(i).end++
			nonzero++
		}
	})
	if nonzero == 0 {
		return Resampler{}
	}
	at := 0
	for h := range strata {
		at, strata[h].end = at+strata[h].end, at
	}
	support := make([]float64, nonzero)
	walk(n, l, Lane{}, 0, func(i int, v float64) {
		if stats.ExactEqual(v, 0) {
			return
		}
		st := stratumOf(i)
		var w float64
		if stratified {
			w = float64(s.Strata[s.StratumOf[i]].SourceRows) / float64(st.rows)
		} else {
			w = s.InvP[i] / float64(n)
		}
		support[st.end] = v * w
		st.end++
	})
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

// EstimateQuery answers a SUM, COUNT or AVG query by plain AQP
// (Equation 3). It is core.Processor with no cube (pre = φ) written with
// this package's primitives alone, and answers bit for bit what that
// processor does: SUM and COUNT estimate the condition lane's total,
// and AVG is the Ratio of the two. Other aggregates need exact
// processing.
func EstimateQuery(s *sample.Sample, q engine.Query, confidence float64) (Estimate, error) {
	switch q.Func {
	case engine.Sum, engine.Count, engine.Avg:
	default:
		return Estimate{}, fmt.Errorf("aqp: no closed-form estimator for %v", q.Func)
	}
	sumQ := q
	if q.Func == engine.Avg {
		sumQ.Func = engine.Sum
	}
	l, err := ConditionLane(s, sumQ)
	if err != nil {
		return Estimate{}, err
	}
	e := NewEstimator(s, confidence)
	est, _ := e.Total(l)
	if q.Func != engine.Avg {
		return est, nil
	}
	cntLane := Lane{Plus: l.Plus}
	cnt, _ := e.Total(cntLane)
	return e.Ratio(est.Value, cnt.Value, l, cntLane), nil
}
