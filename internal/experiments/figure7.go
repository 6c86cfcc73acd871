package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/sample"
	"aqppp/internal/workload"
)

// tpcdDimOrder is the paper's ten lineitem condition attributes, in the
// order the nested templates of §7.3 add them.
var tpcdDimOrder = []string{
	"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_quantity",
	"l_discount", "l_tax", "l_shipdate", "l_commitdate", "l_receiptdate",
}

// Figure7Point is one template's measurements.
type Figure7Point struct {
	Dims int
	// PreprocessAQP / PreprocessAQPPP are Figure 7(a): sample creation
	// vs sample + profiles + hill climbing + cube build.
	PreprocessAQP, PreprocessAQPPP time.Duration
	// RespAQP / RespAQPPP are Figure 7(b).
	RespAQP, RespAQPPP time.Duration
	// MdnErrAQP / MdnErrAQPPP are Figure 7(c).
	MdnErrAQP, MdnErrAQPPP float64
	// MdnDevAQP / MdnDevAQPPP are the realized deviations (see
	// Comparison.MedianDev*).
	MdnDevAQP, MdnDevAQPPP float64
}

// Figure7Report reproduces Figures 7(a), 7(b) and 7(c): AQP vs AQP++ as
// the number of condition dimensions grows from 1 to MaxDims.
type Figure7Report struct {
	Scale  Scale
	Points []Figure7Point
}

// String renders all three panels as one table.
func (r *Figure7Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 7: varying #dimensions (TPCD-Skew %d rows, k=%d, %.3g%% sample)\n",
		r.Scale.TPCDRows, r.Scale.K, 100*r.Scale.SampleRate)
	fmt.Fprintf(&sb, "%4s | %12s %12s | %12s %12s | %9s %9s %6s | %9s %9s\n",
		"d", "prep AQP", "prep AQP++", "resp AQP", "resp AQP++", "mdn AQP", "mdn AQP++", "gain", "dev AQP", "dev AQP++")
	for _, p := range r.Points {
		gain := 0.0
		if p.MdnErrAQPPP > 0 {
			gain = p.MdnErrAQP / p.MdnErrAQPPP
		}
		fmt.Fprintf(&sb, "%4d | %12v %12v | %12v %12v | %8.2f%% %8.2f%% %5.1fx | %8.2f%% %8.2f%%\n",
			p.Dims,
			p.PreprocessAQP.Round(time.Millisecond), p.PreprocessAQPPP.Round(time.Millisecond),
			p.RespAQP.Round(10*time.Microsecond), p.RespAQPPP.Round(10*time.Microsecond),
			100*p.MdnErrAQP, 100*p.MdnErrAQPPP, gain,
			100*p.MdnDevAQP, 100*p.MdnDevAQPPP)
	}
	return sb.String()
}

// RunFigure7 builds the d = 1..maxDims nested templates and measures
// preprocessing time, response time, and median error for AQP and AQP++.
// maxDims <= 0 runs all ten.
func RunFigure7(ctx context.Context, sc Scale, maxDims int) (*Figure7Report, error) {
	if maxDims <= 0 || maxDims > len(tpcdDimOrder) {
		maxDims = len(tpcdDimOrder)
	}
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: sc.TPCDRows, Seed: sc.Seed})
	report := &Figure7Report{Scale: sc}

	// One shared sample: AQP's preprocessing is its creation time and is
	// independent of d (Figure 7a's flat line).
	t0 := time.Now()
	s, err := sample.NewUniform(tbl, sc.SampleRate, sc.Seed+2)
	if err != nil {
		return nil, err
	}
	sampleTime := time.Since(t0)

	for d := 1; d <= maxDims; d++ {
		tmpl := cube.Template{Agg: "l_extendedprice", Dims: tpcdDimOrder[:d]}
		queries, err := workload.Generate(tbl, workload.Config{
			Template: tmpl, Count: sc.Queries, Seed: sc.Seed + uint64(10+d),
		})
		if err != nil {
			return nil, err
		}
		proc, bst, err := core.Build(ctx, tbl, core.BuildConfig{
			Template: tmpl, CellBudget: sc.K, Seed: sc.Seed + uint64(20+d),
			PrebuiltSample: s,
		})
		if err != nil {
			return nil, err
		}
		cmp, err := CompareOnWorkload(ctx, tbl, proc, queries)
		if err != nil {
			return nil, err
		}
		report.Points = append(report.Points, Figure7Point{
			Dims:            d,
			PreprocessAQP:   sampleTime,
			PreprocessAQPPP: sampleTime + bst.OptimizeTime + bst.CubeTime,
			RespAQP:         cmp.RespAQP,
			RespAQPPP:       cmp.RespAQPPP,
			MdnErrAQP:       cmp.MedianErrAQP,
			MdnErrAQPPP:     cmp.MedianErrAQPPP,
			MdnDevAQP:       cmp.MedianDevAQP,
			MdnDevAQPPP:     cmp.MedianDevAQPPP,
		})
	}
	return report, nil
}
