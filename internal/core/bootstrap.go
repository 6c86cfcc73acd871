package core

import (
	"context"
	"fmt"

	"aqppp/internal/aqp"
	"aqppp/internal/engine"
	"aqppp/internal/ident"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// DefaultResamples is the replicate count used when a caller passes a
// non-positive resample count.
const DefaultResamples = 200

// BootstrapScratch holds the buffers the bootstrap loop reuses: the
// sample's pseudo-value vector and one with-replacement index vector per
// lane. The exec layer pools these across queries (sync.Pool) and
// enforces the budget's scratch cap against BootstrapScratchBytes.
type BootstrapScratch struct {
	Xs  []float64
	Idx [aqp.Lanes][]int
}

// Grow ensures capacity for an n-row sample.
func (sc *BootstrapScratch) Grow(n int) {
	sc.Xs = grown(sc.Xs, n)
	for l := range sc.Idx {
		sc.Idx[l] = grown(sc.Idx[l], n)
	}
}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// BootstrapScratchBytes is the scratch footprint of a bootstrap run
// over an n-row sample: 8 bytes per pseudo-value plus 8 per index in
// each of the aqp.Lanes index vectors. It is all the replicate loop
// allocates besides the replicate values themselves.
func BootstrapScratchBytes(n int) int64 { return int64(n) * 8 * (1 + aqp.Lanes) }

// AnswerBootstrap answers a SUM/COUNT query with an empirical bootstrap
// confidence interval instead of the closed form (§4.2.2): after
// identifying the pre as Answer does (on the cube that anchors q; none
// when the cube aggregates another column), it resamples the sample,
// recomputes pre(D) + (q̂(S_i) − prê(S_i)) per replicate, and reads the
// percentile interval off the replicate distribution. This is the
// general path the paper prescribes for aggregates without closed-form
// intervals; for SUM it doubles as a cross-check of the CLT interval
// (see the tests).
//
// A replicate is never gathered: it draws its n row indices and reads
// its value off the diff vector at those rows, aqp.Lanes replicates per
// pass (aqp.ResampledMeans, or aqp.ResampledStratifiedSum on a
// stratified sample). Each value is bit-identical to SumOfValues over
// the gathered resample.
//
// ctx is checked once per batch of aqp.Lanes replicates, so a canceled
// caller unwinds within one batch. scratch may be nil (buffers are then
// allocated); a non-nil scratch is grown to the sample size and reused
// across all replicates.
func (p *Processor) AnswerBootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64, scratch *BootstrapScratch) (Answer, error) {
	if q.Func != engine.Sum && q.Func != engine.Count {
		return Answer{}, fmt.Errorf("core: AnswerBootstrap supports SUM/COUNT, got %v: %w", q.Func, ErrUnsupported)
	}
	if len(q.GroupBy) > 0 {
		return Answer{}, fmt.Errorf("core: AnswerBootstrap does not handle GROUP BY: %w", ErrUnsupported)
	}
	conf := p.confidence()
	c := p.cubeFor(q)
	pre := ident.Pre{Phi: true}
	considered := 1
	if c != nil {
		sel, err := ident.SelectBest(c, q, p.subsample(), conf)
		if err != nil {
			return Answer{}, err
		}
		pre = sel.Pre
		considered = sel.Considered
	}
	var preVal float64
	if !pre.IsPhi() {
		preVal = pre.Value(c)
	}
	vals, err := ident.DiffVector(p.Sample, c, q, pre)
	if err != nil {
		return Answer{}, err
	}
	point := preVal + aqp.SumOfValues(p.Sample, vals, conf).Value

	if resamples <= 0 {
		resamples = DefaultResamples
	}
	r := stats.NewRNG(seed)
	n := p.Sample.Size()
	if scratch == nil {
		scratch = &BootstrapScratch{}
	}
	scratch.Grow(n)
	var sums []float64
	var counts []int64
	stratified := p.Sample.Kind == sample.Stratified
	if stratified {
		sums = make([]float64, len(p.Sample.Strata))
		counts = make([]int64, len(p.Sample.Strata))
	} else {
		aqp.PseudoValues(p.Sample, vals, scratch.Xs)
	}
	reps := make([]float64, 0, resamples)
	for rep := 0; rep < resamples; rep += aqp.Lanes {
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		// Draw the batch's replicates in replicate order, so every
		// replicate sees the RNG exactly where a one-at-a-time loop would.
		lanes := scratch.Idx[:min(aqp.Lanes, resamples-rep)]
		for _, idx := range lanes {
			for i := range idx {
				idx[i] = r.Intn(n)
			}
		}
		if stratified {
			for _, idx := range lanes {
				reps = append(reps, preVal+aqp.ResampledStratifiedSum(p.Sample, vals, idx, sums, counts))
			}
			continue
		}
		means := aqp.ResampledMeans(scratch.Xs, lanes)
		for _, m := range means[:len(lanes)] {
			reps = append(reps, preVal+m)
		}
	}
	alpha := (1 - conf) / 2
	lo := stats.Quantile(reps, alpha)
	hi := stats.Quantile(reps, 1-alpha)
	return Answer{
		Estimate: aqp.Estimate{
			Value:      point,
			HalfWidth:  (hi - lo) / 2,
			Confidence: conf,
			SampleRows: n,
		},
		Pre:        pre,
		PreValue:   preVal,
		Candidates: considered,
	}, nil
}
