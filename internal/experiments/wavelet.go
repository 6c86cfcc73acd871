package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"aqppp/internal/aqp"
	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
	"aqppp/internal/workload"
)

// WaveletPoint compares the three systems at one storage budget.
type WaveletPoint struct {
	// Budget is the comparable storage unit: BP-Cube cells on one side,
	// wavelet coefficients sized to the same bytes on the other.
	BudgetCells int
	// MdnErrAQP / MdnDevWavelet / MdnErrAQPPP are median errors: AQP and
	// AQP++ report the §7.1 CI metric; the wavelet cube has no
	// probabilistic bound, so its realized deviation is reported.
	MdnErrAQP     float64
	MdnDevWavelet float64
	MdnErrAQPPP   float64
	MdnDevAQPPP   float64
}

// WaveletReport is the §8 "cube approximation under AQP++" study: at
// matched storage, a wavelet-compressed cube answered alone (approximate
// AggPre, Vitter & Wang [68]) versus AQP++'s sample + exact BP-Cube
// hybrid.
type WaveletReport struct {
	Scale  Scale
	Points []WaveletPoint
}

// String renders the study.
func (r *WaveletReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Wavelet study: approximate cube vs AQP++ at matched storage (TPCD-Skew %d rows)\n", r.Scale.TPCDRows)
	fmt.Fprintf(&sb, "%8s %10s %14s %22s\n", "cells", "mdn AQP", "wavelet dev", "AQP++ (CI | dev)")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%8d %9.2f%% %13.2f%% %12.2f%% | %6.2f%%\n",
			p.BudgetCells, 100*p.MdnErrAQP, 100*p.MdnDevWavelet,
			100*p.MdnErrAQPPP, 100*p.MdnDevAQPPP)
	}
	return sb.String()
}

// RunWaveletStudy sweeps storage budgets on the TPCD-Skew 1-D template.
func RunWaveletStudy(ctx context.Context, sc Scale, budgets []int) (*WaveletReport, error) {
	if len(budgets) == 0 {
		budgets = []int{sc.K / 20, sc.K / 5, sc.K}
		for i := range budgets {
			if budgets[i] < 8 {
				budgets[i] = 8 + i
			}
		}
	}
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: sc.TPCDRows, Seed: sc.Seed})
	tmpl := cube.Template{Agg: "l_extendedprice", Dims: []string{"l_orderkey"}}
	queries, err := workload.Generate(tbl, workload.Config{
		Template: tmpl, Count: sc.Queries, Seed: sc.Seed + 201,
	})
	if err != nil {
		return nil, err
	}
	s, err := sample.NewUniform(tbl, sc.SampleRate, sc.Seed+202)
	if err != nil {
		return nil, err
	}
	report := &WaveletReport{Scale: sc}
	for _, cells := range budgets {
		proc, _, err := core.Build(ctx, tbl, core.BuildConfig{
			Template: tmpl, CellBudget: cells, Seed: sc.Seed + 203,
			PrebuiltSample: s,
		})
		if err != nil {
			return nil, err
		}
		// The wavelet synopsis gets the same byte budget: a cell is 8
		// bytes, a kept coefficient 16 (index + value).
		keep := cells / 2
		if keep < 2 {
			keep = 2
		}
		w, err := cube.BuildWavelet(tbl, tmpl, [][]float64{densePoints(tbl, tmpl.Dims[0], cells)}, keep)
		if err != nil {
			return nil, err
		}
		var aqpErrs, wavDevs, ppErrs, ppDevs []float64
		for _, q := range queries {
			truth, err := tbl.Execute(ctx, q)
			if err != nil {
				return nil, err
			}
			plain, err := aqp.EstimateSum(s, q, 0.95)
			if err != nil {
				return nil, err
			}
			ans, err := proc.Answer(q)
			if err != nil {
				return nil, err
			}
			wv := waveletAnswer(w, q.Ranges[0].Lo, q.Ranges[0].Hi)
			aqpErrs = append(aqpErrs, clampErr(plain.RelativeError(truth.Value)))
			ppErrs = append(ppErrs, clampErr(ans.Estimate.RelativeError(truth.Value)))
			ppDevs = append(ppDevs, clampErr(relDev(ans.Estimate.Value, truth.Value)))
			wavDevs = append(wavDevs, clampErr(relDev(wv, truth.Value)))
		}
		report.Points = append(report.Points, WaveletPoint{
			BudgetCells:   cells,
			MdnErrAQP:     stats.Median(aqpErrs),
			MdnDevWavelet: stats.Median(wavDevs),
			MdnErrAQPPP:   stats.Median(ppErrs),
			MdnDevAQPPP:   stats.Median(ppDevs),
		})
	}
	return report, nil
}

// densePoints returns k equal-frequency partition points for the wavelet
// grid (the synopsis compresses a bucket array; equal-frequency buckets
// are the standard choice).
func densePoints(tbl *engine.Table, col string, k int) []float64 {
	c := tbl.MustColumn(col)
	n := c.Len()
	ords := make([]float64, n)
	for i := 0; i < n; i++ {
		ords[i] = c.Ordinal(i)
	}
	sort.Float64s(ords)
	pts := make([]float64, 0, k)
	for i := 1; i <= k; i++ {
		p := ords[minI(i*n/k, n-1)]
		if len(pts) == 0 || p > pts[len(pts)-1] {
			pts = append(pts, p)
		}
	}
	return pts
}

// waveletAnswer answers [lo, hi] from the synopsis alone by rounding to
// the nearest grid boundaries (the bucketing error is part of the
// approximate-cube deal).
func waveletAnswer(w *cube.WaveletCube, lo, hi float64) float64 {
	loIdx := nearestBoundary(w.Points[0], lo-0.5)
	hiIdx := nearestBoundary(w.Points[0], hi+0.5)
	if hiIdx <= loIdx {
		hiIdx = loIdx + 1
		if hiIdx >= len(w.Points[0]) {
			hiIdx = len(w.Points[0]) - 1
			loIdx = hiIdx - 1
		}
	}
	return w.RangeSum([]int{loIdx}, []int{hiIdx})
}

// nearestBoundary returns the index of the partition point closest to
// ord, or -1 when ord sits below the first point's midpoint.
func nearestBoundary(points []float64, ord float64) int {
	best := -1
	bestDist := math.Abs(ord - virtualStart(points))
	for i, p := range points {
		if d := math.Abs(ord - p); d < bestDist {
			best = i
			bestDist = d
		}
	}
	return best
}

func virtualStart(points []float64) float64 {
	if len(points) > 1 {
		return points[0] - (points[len(points)-1]-points[0])/float64(len(points)-1)
	}
	return points[0] - 1
}
