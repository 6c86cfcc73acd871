package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"aqppp/internal/aqp"
	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// system answers one query approximately; measure times and scores it.
type system func(engine.Query) (aqp.Estimate, error)

// aqpOn is plain AQP on sample s: a processor with no cube (pre = φ).
func aqpOn(s *sample.Sample) system {
	return aqpppOn(&core.Processor{Sample: s, Confidence: 0.95})
}

// aqpppOn is AQP++ through processor p.
func aqpppOn(p *core.Processor) system {
	return func(q engine.Query) (aqp.Estimate, error) {
		ans, err := p.Answer(q)
		return ans.Estimate, err
	}
}

// measured is one system's record over a workload.
type measured struct {
	// errs holds each query's relative error ε/truth at 95%, the §7.1
	// metric; devs its realized deviation |est − truth|/truth. Both are
	// clamped so medians stay finite. The paper reports only the
	// CI-based metric; we track the realized deviation too because at
	// laptop scale a BP-Cube can approach the sample's resolution, where
	// the sample-estimated CI under-reports residual misalignment on the
	// full data.
	errs, devs []float64
	// resp is the mean per-query response time.
	resp time.Duration
}

func (m measured) mdnErr() float64 { return stats.Median(m.errs) }
func (m measured) mdnDev() float64 { return stats.Median(m.devs) }

// measure scans every query's exact answer under ctx, then answers it
// with each system in turn, timing the answer and scoring it against the
// truth. Every experiment's scalar error comes from this one loop.
func measure(ctx context.Context, tbl *engine.Table, queries []engine.Query, systems ...system) ([]measured, error) {
	out := make([]measured, len(systems))
	for _, q := range queries {
		truth, err := tbl.Execute(ctx, q)
		if err != nil {
			return nil, err
		}
		for i, answer := range systems {
			t0 := time.Now()
			est, err := answer(q)
			if err != nil {
				return nil, err
			}
			out[i].resp += time.Since(t0)
			out[i].errs = append(out[i].errs, clampErr(est.RelativeError(truth.Value)))
			out[i].devs = append(out[i].devs, clampErr(relDev(est.Value, truth.Value)))
		}
	}
	if n := len(queries); n > 0 {
		for i := range out {
			out[i].resp /= time.Duration(n)
		}
	}
	return out, nil
}

// gainCell renders the median-error ratio AQP / AQP++ as a six-wide cell:
// ∞ when AQP++ is exact and AQP is not, – when both are exact.
func gainCell(mdnAQP, mdnAQPPP float64) string {
	switch {
	case mdnAQPPP > 0:
		return fmt.Sprintf("%5.1fx", mdnAQP/mdnAQPPP)
	case mdnAQP > 0:
		return fmt.Sprintf("%6s", "∞")
	}
	return fmt.Sprintf("%6s", "–")
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
