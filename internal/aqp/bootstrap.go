package aqp

import (
	"context"
	"fmt"
	"slices"

	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// Bootstrap computes an empirical confidence interval for an arbitrary
// aggregate by resampling the sample (§4.1's second approach). It supports
// every engine.AggFunc that can be evaluated on a resample, including VAR,
// for which no closed-form interval is implemented.
//
// The returned Estimate's Value is the plug-in estimate on the full sample
// and its interval is the percentile-bootstrap interval recentred on the
// plug-in value (so HalfWidth is half the percentile interval's width).
//
// ctx is checked once per resample, so a canceled caller unwinds within
// one replicate and receives ctx's error.
func Bootstrap(ctx context.Context, s *sample.Sample, q engine.Query, confidence float64, resamples int, seed uint64) (Estimate, error) {
	if len(q.GroupBy) > 0 {
		return Estimate{}, fmt.Errorf("aqp: Bootstrap does not handle GROUP BY")
	}
	plug, err := plugInEstimate(ctx, s, q)
	if err != nil {
		return Estimate{}, err
	}
	n := s.Size()
	if resamples <= 0 {
		resamples = 200
	}
	r := stats.NewRNG(seed)
	reps := make([]float64, 0, resamples)
	idx := make([]int, n)
	for rep := 0; rep < resamples; rep++ {
		if err := ctx.Err(); err != nil {
			return Estimate{}, err
		}
		for i := range idx {
			idx[i] = r.Intn(n)
		}
		v, err := plugInEstimate(ctx, resampleRows(s, q, idx), q)
		if err != nil {
			return Estimate{}, err
		}
		reps = append(reps, v)
	}
	alpha := (1 - confidence) / 2
	lo := stats.Quantile(reps, alpha)
	hi := stats.Quantile(reps, 1-alpha)
	return Estimate{
		Value:      plug,
		HalfWidth:  (hi - lo) / 2,
		Confidence: confidence,
		SampleRows: n,
	}, nil
}

// plugInEstimate evaluates the query on the sample with the appropriate
// scaling: SUM and COUNT scale by inverse probabilities; AVG and VAR are
// scale-free plug-ins.
func plugInEstimate(ctx context.Context, s *sample.Sample, q engine.Query) (float64, error) {
	switch q.Func {
	case engine.Sum, engine.Count:
		vals, err := ConditionVector(s, q)
		if err != nil {
			return 0, err
		}
		return SumOfValues(s, vals, 0.95).Value, nil
	case engine.Avg, engine.Var, engine.Min, engine.Max:
		res, err := s.Table.Execute(ctx, q)
		if err != nil {
			return 0, err
		}
		return res.Value, nil
	default:
		return 0, fmt.Errorf("aqp: unsupported aggregate %v", q.Func)
	}
}

// resampleRows builds Bootstrap's with-replacement resample of s at the
// given sample row indices, carrying weights and stratum labels along.
// Its table holds only the sample columns q reads — the aggregate column
// and the range columns, or the first column when q reads none, so the
// resample keeps its row count.
func resampleRows(s *sample.Sample, q engine.Query, idx []int) *sample.Sample {
	names := []string{q.Col}
	for _, r := range q.Ranges {
		names = append(names, r.Col)
	}
	var cols []*engine.Column
	for i, name := range names {
		if c, err := s.Table.Column(name); err == nil && !slices.Contains(names[:i], name) {
			cols = append(cols, c.Gather(idx))
		}
	}
	if len(cols) == 0 && s.Table.NumCols() > 0 {
		cols = append(cols, s.Table.Columns[0].Gather(idx))
	}
	out := &sample.Sample{
		Kind:       s.Kind,
		Table:      engine.MustNewTable(s.Table.Name+"_boot", cols...),
		SourceRows: s.SourceRows,
	}
	if s.InvP != nil {
		out.InvP = make([]float64, len(idx))
		for i, j := range idx {
			out.InvP[i] = s.InvP[j]
		}
	}
	if s.Strata != nil {
		out.Strata = make([]sample.Stratum, len(s.Strata))
		copy(out.Strata, s.Strata)
		for i := range out.Strata {
			out.Strata[i].SampleRows = 0
		}
		out.StratumOf = make([]int, len(idx))
		for i, j := range idx {
			si := s.StratumOf[j]
			out.StratumOf[i] = si
			out.Strata[si].SampleRows++
		}
	}
	return out
}
