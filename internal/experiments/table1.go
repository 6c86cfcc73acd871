package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aqppp/internal/baseline"
	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
	"aqppp/internal/workload"
)

// Table1Row is one system's row in Table 1.
type Table1Row struct {
	System string
	// SpaceBytes and PreprocessTime are the preprocessing costs;
	// Estimated marks rows (AggPre's full P-Cube) that are computed
	// analytically rather than built, exactly as the paper reports
	// "> 10 TB / > 1 day".
	SpaceBytes     int64
	PreprocessTime time.Duration
	Estimated      bool
	// Resp is the mean per-query response time.
	Resp time.Duration
	// AvgErr and MdnErr are the §7.1 relative errors (0 for exact).
	AvgErr, MdnErr float64
}

// Table1Report reproduces Table 1 plus the §7.2 extras: AQP(large) and
// the APA+ comparison.
type Table1Report struct {
	Scale Scale
	Rows  []Table1Row
	// FullCubeCells is the complete P-Cube's cell count for the
	// template (the reason AggPre is estimated, not built).
	FullCubeCells int64
}

// String renders the table.
func (r *Table1Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Table 1: overall comparison (TPCD-Skew %d rows, k=%d, %.3g%% uniform sample)\n",
		r.Scale.TPCDRows, r.Scale.K, 100*r.Scale.SampleRate)
	fmt.Fprintf(&sb, "full P-Cube would hold %d cells\n", r.FullCubeCells)
	fmt.Fprintf(&sb, "%-12s %14s %14s %12s %9s %9s\n",
		"system", "space", "preprocess", "response", "avg err", "mdn err")
	for _, row := range r.Rows {
		space := formatBytes(row.SpaceBytes)
		pre := row.PreprocessTime.Round(time.Millisecond).String()
		if row.Estimated {
			space = "> " + space
			pre = "> " + pre
		}
		fmt.Fprintf(&sb, "%-12s %14s %14s %12s %8.2f%% %8.2f%%\n",
			row.System, space, pre, row.Resp.Round(10*time.Microsecond),
			100*row.AvgErr, 100*row.MdnErr)
	}
	return sb.String()
}

func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// RunTable1 reproduces Table 1: AQP vs AggPre vs AQP++ on TPCD-Skew with
// the template [SUM(l_extendedprice), l_orderkey, l_suppkey], plus the
// AQP(large) and APA+ rows discussed in §7.2.
func RunTable1(ctx context.Context, sc Scale) (*Table1Report, error) {
	tbl := tpcd(sc)
	tmpl := cube.Template{Agg: "l_extendedprice", Dims: []string{"l_orderkey", "l_suppkey"}}
	queries, err := workload.Generate(tbl, workload.Config{
		Template: tmpl, Count: sc.Queries, Seed: sc.Seed + 1,
	})
	if err != nil {
		return nil, err
	}

	// Shared uniform sample (AQP, AQP++ and APA+ use the same one, §7.1).
	t0 := time.Now()
	s, err := sample.NewUniform(tbl, sc.SampleRate, sc.Seed+2)
	if err != nil {
		return nil, err
	}
	sampleTime := time.Since(t0)

	// --- AggPre (estimated, as in the paper) ---
	fullCells, err := baseline.FullCubeCells(tbl, tmpl)
	if err != nil {
		return nil, err
	}
	// Estimate build time by extrapolating from a small measured build:
	// one full-data scan plus d prefix passes over the cells.
	smallPoints := [][]float64{equalSpacedPoints(tbl, "l_orderkey", 64), equalSpacedPoints(tbl, "l_suppkey", 16)}
	tc := time.Now()
	smallCube, err := cube.Build(tbl, tmpl, smallPoints)
	if err != nil {
		return nil, err
	}
	perCell := time.Since(tc) / time.Duration(max(smallCube.NumCells(), 1))

	// --- AQP++ ---
	proc, bst, err := core.Build(ctx, tbl, core.BuildConfig{
		Template: tmpl, CellBudget: sc.K, Seed: sc.Seed + 3,
		PrebuiltSample: s,
	})
	if err != nil {
		return nil, err
	}

	// --- AQP(large): a sample big enough to approach AQP++'s accuracy
	// (the paper uses 80x; we use 20x to stay laptop-friendly). ---
	tL := time.Now()
	sLarge, err := sample.NewUniform(tbl, min(sc.SampleRate*20, 1), sc.Seed+4)
	if err != nil {
		return nil, err
	}
	largeTime := time.Since(tL)

	// --- APA+ ---
	apa, err := baseline.NewAPA(ctx, tbl, s, baseline.APAConfig{
		Measure: tmpl.Agg, Dims: tmpl.Dims, FactsPerDim: 16,
		Resamples: 30, Seed: sc.Seed + 5,
	})
	if err != nil {
		return nil, err
	}

	m, err := measure(ctx, tbl, queries, aqpOn(s), aqpppOn(proc), aqpOn(sLarge), apa.Answer)
	if err != nil {
		return nil, err
	}
	row := func(system string, space int64, prep time.Duration, m measured) Table1Row {
		return Table1Row{System: system, SpaceBytes: space, PreprocessTime: prep, Resp: m.resp,
			AvgErr: stats.Mean(m.errs), MdnErr: m.mdnErr()}
	}
	return &Table1Report{Scale: sc, FullCubeCells: fullCells, Rows: []Table1Row{
		row("AQP", s.SizeBytes(), sampleTime, m[0]),
		{System: "AggPre", SpaceBytes: fullCells * 8, PreprocessTime: time.Duration(fullCells) * perCell,
			Estimated: true, Resp: respOfExactCube(smallCube, queries)},
		row("AQP++", bst.TotalBytes(), sampleTime+bst.OptimizeTime+bst.CubeTime, m[1]),
		row("AQP(large)", sLarge.SizeBytes(), largeTime, m[2]),
		row("APA+", s.SizeBytes(), sampleTime, m[3]),
	}}, nil
}

// respOfExactCube times aligned cube lookups as a proxy for AggPre's
// response time (cube lookups cost the same regardless of cube size).
func respOfExactCube(c *cube.BPCube, queries []engine.Query) time.Duration {
	if len(queries) == 0 {
		return 0
	}
	lo, hi := make([]int, c.Dims()), make([]int, c.Dims())
	t0 := time.Now()
	for range queries {
		for i := range lo {
			lo[i], hi[i] = -1, len(c.Points[i])-1
		}
		_ = c.RangeSum(lo, hi)
	}
	return time.Since(t0) / time.Duration(len(queries))
}

// equalSpacedPoints returns k equally spaced ordinals over the column's
// domain.
func equalSpacedPoints(tbl *engine.Table, col string, k int) []float64 {
	c := tbl.MustColumn(col)
	lo, hi := c.OrdinalDomain()
	pts := make([]float64, 0, k)
	for i := 1; i <= k; i++ {
		p := lo + (hi-lo)*float64(i)/float64(k)
		if len(pts) == 0 || p > pts[len(pts)-1] {
			pts = append(pts, p)
		}
	}
	return pts
}
