package core

import (
	"context"
	"fmt"

	"aqppp/internal/aqp"
	"aqppp/internal/engine"
	"aqppp/internal/ident"
	"aqppp/internal/stats"
)

// DefaultResamples is the replicate count used when a caller passes a
// non-positive resample count.
const DefaultResamples = 200

// BootstrapScratch holds the per-resample buffers the bootstrap loop
// reuses: the with-replacement index vector and the replicate value
// vector. The exec layer pools these across queries (sync.Pool) and
// enforces the budget's scratch cap against BootstrapScratchBytes.
type BootstrapScratch struct {
	Idx  []int
	Vals []float64
}

// Grow ensures capacity for an n-row sample.
func (sc *BootstrapScratch) Grow(n int) {
	if cap(sc.Idx) < n {
		sc.Idx = make([]int, n)
	}
	if cap(sc.Vals) < n {
		sc.Vals = make([]float64, n)
	}
	sc.Idx = sc.Idx[:n]
	sc.Vals = sc.Vals[:n]
}

// BootstrapScratchBytes is the scratch footprint of a bootstrap run
// over an n-row sample: 8 bytes per index plus 8 per replicate value.
func BootstrapScratchBytes(n int) int64 { return int64(n) * 16 }

// AnswerBootstrap answers a SUM/COUNT query with an empirical bootstrap
// confidence interval instead of the closed form (§4.2.2): after
// identifying the pre as usual, it resamples the sample, recomputes
// pre(D) + (q̂(S_i) − prê(S_i)) per replicate, and reads the percentile
// interval off the replicate distribution. This is the general path the
// paper prescribes for aggregates without closed-form intervals; for SUM
// it doubles as a cross-check of the CLT interval (see the tests).
//
// ctx is checked once per resample, so a canceled caller unwinds within
// one replicate. scratch may be nil (buffers are then allocated); a
// non-nil scratch is grown to the sample size and reused across all
// replicates.
func (p *Processor) AnswerBootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64, scratch *BootstrapScratch) (Answer, error) {
	if q.Func != engine.Sum && q.Func != engine.Count {
		return Answer{}, fmt.Errorf("core: AnswerBootstrap supports SUM/COUNT, got %v: %w", q.Func, ErrUnsupported)
	}
	if len(q.GroupBy) > 0 {
		return Answer{}, fmt.Errorf("core: AnswerBootstrap does not handle GROUP BY: %w", ErrUnsupported)
	}
	conf := p.confidence()
	c := p.Cube
	if q.Func == engine.Count {
		c = p.countCube()
	}
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
	idx, rvals := scratch.Idx, scratch.Vals
	reps := make([]float64, 0, resamples)
	for rep := 0; rep < resamples; rep++ {
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		for i := range idx {
			idx[i] = r.Intn(n)
		}
		rs := aqp.ResampleRows(p.Sample, idx)
		for i, j := range idx {
			rvals[i] = vals[j]
		}
		est := aqp.SumOfValues(rs, rvals, conf)
		reps = append(reps, preVal+est.Value)
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
