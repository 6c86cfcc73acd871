// Package baseline implements the comparison systems of the paper's
// evaluation that AQP++ does not subsume: APA+ [Jin et al., ICDE 2006],
// which combines a sample with a small set of exact 1-dimensional
// statistics ("facts") by reweighting the sample, and the size of exact
// AggPre's full P-Cube. Plain AQP and AggPre themselves are AQP++ at its
// two ends (pre = φ, pre = q): core.Processor answers both.
package baseline

import (
	"context"
	"fmt"
	"math/bits"
	"slices"

	"aqppp/internal/aqp"
	"aqppp/internal/engine"
	"aqppp/internal/linalg"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// APAConfig configures the APA+ baseline.
type APAConfig struct {
	// Measure is the aggregation attribute whose 1-D facts are known.
	Measure string
	// Dims are the condition attributes; each gets FactsPerDim exact
	// block sums computed over the full data (the paper's
	// "1-dimensional facts ... available in the system").
	Dims []string
	// FactsPerDim is the number of equal-width fact blocks per dimension
	// (default 16).
	FactsPerDim int
	// Confidence is the CI level (default 0.95).
	Confidence float64
	// Resamples sets the bootstrap replicates for interval estimation
	// (default 100). APA+ has no closed-form interval because the
	// reweighting couples all rows.
	Resamples int
	// Seed drives the bootstrap.
	Seed uint64
}

// APA answers queries from a sample whose weights are calibrated to match
// exact per-dimension marginal facts: minimize ||w − w0||² subject to
// Σ w_i·a_i·1[block_j(i)] = F_j for every fact block j (a constrained
// least squares solved exactly via its KKT system — the stand-in for the
// paper's gurobi QP).
type APA struct {
	cfg     APAConfig
	s       *sample.Sample
	weights []float64
	facts   []fact
}

type fact struct {
	dim    string
	lo, hi float64 // ordinal block [lo, hi]
	value  float64 // exact SUM(measure) over the block
}

// NewAPA computes the facts over the full table, draws no new sample (it
// reuses s), and calibrates the weights. ctx cancels the fact scans.
func NewAPA(ctx context.Context, tbl *engine.Table, s *sample.Sample, cfg APAConfig) (*APA, error) {
	if cfg.FactsPerDim == 0 {
		cfg.FactsPerDim = 16
	}
	if cfg.Confidence == 0 {
		cfg.Confidence = 0.95
	}
	if cfg.Resamples == 0 {
		cfg.Resamples = 100
	}
	if len(cfg.Dims) == 0 {
		return nil, fmt.Errorf("baseline: APA needs at least one dimension")
	}
	if s.Kind != sample.Uniform {
		return nil, fmt.Errorf("baseline: APA requires a uniform sample, got %v", s.Kind)
	}
	a := &APA{cfg: cfg, s: s}
	for _, dim := range cfg.Dims {
		col, err := tbl.Column(dim)
		if err != nil {
			return nil, err
		}
		lo, hi := col.OrdinalDomain()
		if hi < lo {
			return nil, fmt.Errorf("baseline: empty dimension %q", dim)
		}
		width := (hi - lo + 1) / float64(cfg.FactsPerDim)
		for b := 0; b < cfg.FactsPerDim; b++ {
			blo := lo + float64(b)*width
			bhi := lo + float64(b+1)*width - 1
			if b == cfg.FactsPerDim-1 {
				bhi = hi
			}
			if bhi < blo {
				continue
			}
			res, err := tbl.Execute(ctx, engine.Query{
				Func: engine.Sum, Col: cfg.Measure,
				Ranges: []engine.Range{{Col: dim, Lo: blo, Hi: bhi}},
			})
			if err != nil {
				return nil, err
			}
			a.facts = append(a.facts, fact{dim: dim, lo: blo, hi: bhi, value: res.Value})
		}
	}
	w, err := a.calibrate(s)
	if err != nil {
		return nil, err
	}
	a.weights = w
	return a, nil
}

// calibrate solves the constrained least squares for the given sample.
func (a *APA) calibrate(s *sample.Sample) ([]float64, error) {
	n := s.Size()
	w0 := make([]float64, n)
	for i := range w0 {
		w0[i] = s.InvP[i] / float64(n) // uniform: N/n per row
	}
	mcol, err := s.Table.Column(a.cfg.Measure)
	if err != nil {
		return nil, err
	}
	b := linalg.NewMatrix(len(a.facts), n)
	f := make([]float64, len(a.facts))
	for j, fa := range a.facts {
		col, err := s.Table.Column(fa.dim)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			ord := col.Ordinal(i)
			if ord >= fa.lo && ord <= fa.hi {
				b.Set(j, i, mcol.Float(i))
			}
		}
		f[j] = fa.value
	}
	return linalg.LeastSquaresWithConstraints(b, w0, f)
}

// Answer estimates a SUM query with a bootstrap confidence interval.
func (a *APA) Answer(q engine.Query) (aqp.Estimate, error) {
	if q.Func != engine.Sum || q.Col != a.cfg.Measure {
		return aqp.Estimate{}, fmt.Errorf("baseline: APA answers SUM(%s) only", a.cfg.Measure)
	}
	point, err := a.estimateWith(a.s, a.weights, q)
	if err != nil {
		return aqp.Estimate{}, err
	}
	// Bootstrap: resample rows, recalibrate, re-estimate.
	r := stats.NewRNG(a.cfg.Seed + 0x9e3779b9)
	n := a.s.Size()
	reps := make([]float64, 0, a.cfg.Resamples)
	idx := make([]int, n)
	for rep := 0; rep < a.cfg.Resamples; rep++ {
		for i := range idx {
			idx[i] = r.Intn(n)
		}
		rs := resampleUniform(a.s, idx)
		w, err := a.calibrate(rs)
		if err != nil {
			continue // singular resample: skip
		}
		v, err := a.estimateWith(rs, w, q)
		if err != nil {
			return aqp.Estimate{}, err
		}
		reps = append(reps, v)
	}
	alpha := (1 - a.cfg.Confidence) / 2
	slices.Sort(reps)
	lo := stats.QuantileSorted(reps, alpha)
	hi := stats.QuantileSorted(reps, 1-alpha)
	return aqp.Estimate{
		Value:      point,
		HalfWidth:  (hi - lo) / 2,
		Confidence: a.cfg.Confidence,
		SampleRows: n,
	}, nil
}

func (a *APA) estimateWith(s *sample.Sample, w []float64, q engine.Query) (float64, error) {
	sel, err := s.Table.Filter(q.Ranges)
	if err != nil {
		return 0, err
	}
	col, err := s.Table.Column(q.Col)
	if err != nil {
		return 0, err
	}
	est := 0.0
	for wi, word := range sel.Words() {
		base := wi << 6
		for word != 0 {
			i := base + bits.TrailingZeros64(word)
			word &= word - 1
			est += w[i] * col.Float(i)
		}
	}
	return est, nil
}

// resampleUniform builds a with-replacement uniform resample.
func resampleUniform(s *sample.Sample, idx []int) *sample.Sample {
	out := &sample.Sample{
		Kind:       s.Kind,
		Table:      s.Table.Gather(s.Table.Name+"_apa", idx),
		SourceRows: s.SourceRows,
		InvP:       make([]float64, len(idx)),
	}
	for i, j := range idx {
		out.InvP[i] = s.InvP[j]
	}
	return out
}
