// Package workload generates the random range-query workloads of the
// paper's evaluation: queries drawn from a template with joint selectivity
// inside a target band (0.5%–5% throughout §7), optional group-by
// clauses, and the outlier-covering filter used by the measure-biased
// sampling experiment (Figure 10a).
package workload

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// Config parameterizes a workload.
type Config struct {
	// Template supplies the aggregate column and condition dimensions.
	Template cube.Template
	// Count is the number of queries to generate.
	Count int
	// SelectivityLo/Hi bound the joint selectivity (defaults 0.005/0.05).
	SelectivityLo, SelectivityHi float64
	// Func is the aggregate (default SUM; COUNT ignores Template.Agg).
	Func engine.AggFunc
	// GroupBy optionally appends a GROUP BY clause to every query.
	GroupBy []string
	// Seed drives generation.
	Seed uint64
	// MaxAttempts bounds the per-query rejection loop (default 60).
	MaxAttempts int
}

// Generate produces Count queries whose selectivity lies within the band
// (verified against the table; the closest attempt is kept when the band
// cannot be hit, e.g. under extreme skew).
func Generate(tbl *engine.Table, cfg Config) ([]engine.Query, error) {
	if cfg.Count <= 0 {
		return nil, fmt.Errorf("workload: count %d", cfg.Count)
	}
	if cfg.SelectivityLo == 0 && cfg.SelectivityHi == 0 {
		cfg.SelectivityLo, cfg.SelectivityHi = 0.005, 0.05
	}
	if cfg.SelectivityLo <= 0 || cfg.SelectivityHi > 1 || cfg.SelectivityLo > cfg.SelectivityHi {
		return nil, fmt.Errorf("workload: bad selectivity band [%v, %v]", cfg.SelectivityLo, cfg.SelectivityHi)
	}
	if cfg.MaxAttempts == 0 {
		cfg.MaxAttempts = 60
	}
	d := len(cfg.Template.Dims)
	if d == 0 {
		return nil, fmt.Errorf("workload: template has no dimensions")
	}
	n := tbl.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("workload: empty table")
	}
	// Per-dimension sorted marginals for window sampling.
	marginals := make([][]float64, d)
	for i, dim := range cfg.Template.Dims {
		col, err := tbl.Column(dim)
		if err != nil {
			return nil, err
		}
		m := make([]float64, n)
		for row := 0; row < n; row++ {
			m[row] = col.Ordinal(row)
		}
		sort.Float64s(m)
		marginals[i] = m
	}
	r := stats.NewRNG(cfg.Seed)
	out := make([]engine.Query, 0, cfg.Count)
	for len(out) < cfg.Count {
		q, err := generateOne(tbl, cfg, marginals, r)
		if err != nil {
			return nil, err
		}
		out = append(out, q)
	}
	return out, nil
}

func generateOne(tbl *engine.Table, cfg Config, marginals [][]float64, r *stats.RNG) (engine.Query, error) {
	d := len(cfg.Template.Dims)
	n := tbl.NumRows()
	var best engine.Query
	bestDist := math.Inf(1)
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		target := cfg.SelectivityLo + r.Float64()*(cfg.SelectivityHi-cfg.SelectivityLo)
		perDim := math.Pow(target, 1/float64(d))
		ranges := make([]engine.Range, d)
		for i, dim := range cfg.Template.Dims {
			m := marginals[i]
			span := int(perDim * float64(n))
			if span < 1 {
				span = 1
			}
			if span > n {
				span = n
			}
			start := 0
			if n-span > 0 {
				start = r.Intn(n - span + 1)
			}
			ranges[i] = engine.Range{Col: dim, Lo: m[start], Hi: m[start+span-1]}
		}
		q := engine.Query{Func: cfg.Func, Col: cfg.Template.Agg, Ranges: ranges, GroupBy: cfg.GroupBy}
		if cfg.Func == engine.Count {
			q.Col = ""
		}
		sel, err := measureSelectivity(tbl, ranges)
		if err != nil {
			return engine.Query{}, err
		}
		if sel >= cfg.SelectivityLo && sel <= cfg.SelectivityHi {
			return q, nil
		}
		mid := (cfg.SelectivityLo + cfg.SelectivityHi) / 2
		if dist := math.Abs(sel - mid); dist < bestDist {
			bestDist = dist
			best = q
		}
	}
	return best, nil
}

// measureSelectivity counts matching rows exactly.
func measureSelectivity(tbl *engine.Table, ranges []engine.Range) (float64, error) {
	sel, err := tbl.Filter(ranges)
	if err != nil {
		return 0, err
	}
	return float64(sel.Count()) / float64(tbl.NumRows()), nil
}

// Selectivity reports a query's exact selectivity on the table.
func Selectivity(tbl *engine.Table, q engine.Query) (float64, error) {
	return measureSelectivity(tbl, q.Ranges)
}

// OutlierThreshold returns the paper's Figure 10(a) outlier cut:
// median(measure) + 3·SD(measure).
func OutlierThreshold(tbl *engine.Table, measure string) (float64, error) {
	col, err := tbl.Column(measure)
	if err != nil {
		return 0, err
	}
	n := col.Len()
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = col.Float(i)
	}
	return stats.Median(vals) + 3*math.Sqrt(stats.Variance(vals)), nil
}

// CoversOutlier reports whether the query's region contains at least one
// row whose measure exceeds the threshold.
func CoversOutlier(tbl *engine.Table, q engine.Query, measure string, threshold float64) (bool, error) {
	sel, err := tbl.Filter(q.Ranges)
	if err != nil {
		return false, err
	}
	col, err := tbl.Column(measure)
	if err != nil {
		return false, err
	}
	// Word iteration allows an early exit: stop at the first outlier.
	for wi, w := range sel.Words() {
		base := wi << 6
		for w != 0 {
			if col.Float(base+bits.TrailingZeros64(w)) > threshold {
				return true, nil
			}
			w &= w - 1
		}
	}
	return false, nil
}

// FilterOutlierCovering keeps only queries covering at least one outlier
// (the measure-biased experiment's workload).
func FilterOutlierCovering(tbl *engine.Table, qs []engine.Query, measure string) ([]engine.Query, error) {
	thr, err := OutlierThreshold(tbl, measure)
	if err != nil {
		return nil, err
	}
	var out []engine.Query
	for _, q := range qs {
		ok, err := CoversOutlier(tbl, q, measure, thr)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, q)
		}
	}
	return out, nil
}
