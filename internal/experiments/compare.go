package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"aqppp/internal/aqp"
	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// Comparison aggregates a workload's error and latency for AQP and AQP++
// on the same sample (the paper's head-to-head setting).
type Comparison struct {
	Queries int
	// Median/average relative error (ε/truth at 95%): the §7.1 metric.
	MedianErrAQP, MedianErrAQPPP float64
	AvgErrAQP, AvgErrAQPPP       float64
	// Median actual deviation |est − truth|/truth. The paper reports
	// only the CI-based metric; we track the realized deviation too
	// because at laptop scale a BP-Cube can approach the sample's
	// resolution, where the sample-estimated CI under-reports residual
	// misalignment on the full data.
	MedianDevAQP, MedianDevAQPPP float64
	// Average per-query response time.
	RespAQP, RespAQPPP time.Duration
	// PreUseRate is the fraction of queries where AQP++ chose a non-φ
	// pre.
	PreUseRate float64
}

// Improvement returns the median-error ratio AQP/AQP++ (the paper's
// headline "10x more accurate" style number).
func (c Comparison) Improvement() float64 {
	if c.MedianErrAQPPP == 0 {
		return math.Inf(1)
	}
	return c.MedianErrAQP / c.MedianErrAQPPP
}

// String renders a one-line summary.
func (c Comparison) String() string {
	return fmt.Sprintf("AQP mdn %.3f%% avg %.3f%% (%v) | AQP++ mdn %.3f%% avg %.3f%% (%v) | %.1fx",
		100*c.MedianErrAQP, 100*c.AvgErrAQP, c.RespAQP.Round(time.Microsecond),
		100*c.MedianErrAQPPP, 100*c.AvgErrAQPPP, c.RespAQPPP.Round(time.Microsecond),
		c.Improvement())
}

// CompareOnWorkload answers every query with plain AQP (on the
// processor's sample) and with AQP++, measuring relative error against
// the exact answer and wall-clock response time.
func CompareOnWorkload(ctx context.Context, tbl *engine.Table, proc *core.Processor, queries []engine.Query) (Comparison, error) {
	var cmp Comparison
	var aqpErrs, ppErrs, aqpDevs, ppDevs []float64
	var aqpTime, ppTime time.Duration
	preUsed := 0
	for _, q := range queries {
		truth, err := tbl.Execute(ctx, q)
		if err != nil {
			return cmp, err
		}
		t0 := time.Now()
		plain, err := aqp.EstimateQuery(proc.Sample, q, 0.95)
		if err != nil {
			return cmp, err
		}
		aqpTime += time.Since(t0)
		t1 := time.Now()
		ans, err := proc.Answer(q)
		if err != nil {
			return cmp, err
		}
		ppTime += time.Since(t1)
		aqpErrs = append(aqpErrs, clampErr(plain.RelativeError(truth.Value)))
		ppErrs = append(ppErrs, clampErr(ans.Estimate.RelativeError(truth.Value)))
		aqpDevs = append(aqpDevs, clampErr(relDev(plain.Value, truth.Value)))
		ppDevs = append(ppDevs, clampErr(relDev(ans.Estimate.Value, truth.Value)))
		if !ans.Pre.IsPhi() {
			preUsed++
		}
	}
	n := len(queries)
	cmp.Queries = n
	cmp.MedianErrAQP = stats.Median(aqpErrs)
	cmp.MedianErrAQPPP = stats.Median(ppErrs)
	cmp.AvgErrAQP = stats.Mean(aqpErrs)
	cmp.AvgErrAQPPP = stats.Mean(ppErrs)
	cmp.MedianDevAQP = stats.Median(aqpDevs)
	cmp.MedianDevAQPPP = stats.Median(ppDevs)
	if n > 0 {
		cmp.RespAQP = aqpTime / time.Duration(n)
		cmp.RespAQPPP = ppTime / time.Duration(n)
		cmp.PreUseRate = float64(preUsed) / float64(n)
	}
	return cmp, nil
}

// relDev is the realized relative deviation |est − truth| / |truth|.
func relDev(est, truth float64) float64 {
	if truth == 0 {
		if est == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(est-truth) / math.Abs(truth)
}

// clampErr replaces infinities (truth == 0) with a large sentinel so
// medians stay finite.
func clampErr(e float64) float64 {
	if math.IsInf(e, 0) || math.IsNaN(e) {
		return 10 // 1000% relative error
	}
	return e
}
