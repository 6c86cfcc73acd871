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

// cancelCheckReplicates is how many bootstrap replicates run between two
// checks of the context.
const cancelCheckReplicates = 4

// BootstrapScratch is what AnswerBootstrap's last parameter points to.
//
// Deprecated: the bootstrap keeps no reusable buffers, and AnswerBootstrap
// ignores the parameter. It stays so the frozen benchmark/trace.go, which
// passes nil, compiles; both go when a benchmark PR may edit that file.
type BootstrapScratch struct{}

// BootstrapScratchBytes is the most a bootstrap over s allocates besides
// the selections of its diff lane and the replicate values: the aqp.Resampler's
// contribution of each nonzero row (8 bytes, at most one per sample row)
// and its 56-byte record of each stratum, one on a uniform or
// measure-biased sample and len(s.Strata) on a stratified one, whose
// strata may outnumber its rows.
func BootstrapScratchBytes(s *sample.Sample) int64 {
	strata := 1
	if s.Kind == sample.Stratified {
		strata = len(s.Strata)
	}
	return 8*int64(s.Size()) + 56*int64(strata)
}

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
// A replicate resamples n rows with replacement (n_h within each
// stratum of a stratified sample) but draws only the rows of the diff
// lane whose value is nonzero (aqp.Resampler), so it costs O(support),
// not O(n). The same seed gives the same answer. A pre whose pre(D) is
// not finite is answered as φ, as Answer does.
//
// ctx is checked once per batch of cancelCheckReplicates replicates, so
// a canceled caller unwinds within one batch, and once more after the
// percentiles are read. The last parameter is ignored.
func (p *Processor) AnswerBootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64, _ *BootstrapScratch) (Answer, error) {
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
		pre, preVal = anchor(c, pre)
	}
	lane, err := ident.DiffLane(p.Sample, c, q, pre)
	if err != nil {
		return Answer{}, err
	}
	e := aqp.NewEstimator(p.Sample, conf)
	est, _ := e.Total(lane)
	point := preVal + est.Value

	if resamples <= 0 {
		resamples = DefaultResamples
	}
	rs := aqp.NewResampler(p.Sample, lane)
	r := stats.NewRNG(seed)
	reps := make([]float64, resamples)
	for rep := range reps {
		if rep%cancelCheckReplicates == 0 {
			if err := ctx.Err(); err != nil {
				return Answer{}, err
			}
		}
		reps[rep] = preVal + rs.Replicate(r)
	}
	alpha := (1 - conf) / 2
	lo := stats.Quantile(reps, alpha)
	hi := stats.Quantile(reps, 1-alpha)
	// Sorting the replicates is the one step the loop's checks miss, and
	// at a large replicate count it outlasts the loop.
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	return Answer{
		Estimate: aqp.Estimate{
			Value:      point,
			HalfWidth:  (hi - lo) / 2,
			Confidence: conf,
			SampleRows: p.Sample.Size(),
		},
		Pre:        pre,
		PreValue:   preVal,
		Candidates: considered,
	}, nil
}
