package experiments

import (
	"context"
	"fmt"
	"strings"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/sample"
	"aqppp/internal/workload"
)

// Figure11aPoint is one cube budget's errors on BigBench.
type Figure11aPoint struct {
	K           int
	MdnErrAQP   float64
	MdnErrAQPPP float64
}

// Figure11aReport reproduces Figure 11(a): BigBench UserVisits, median
// error vs BP-Cube size for the template
// [SUM(adRevenue), visitDate, duration, sourceIP].
type Figure11aReport struct {
	Scale  Scale
	Points []Figure11aPoint
}

// String renders the series.
func (r *Figure11aReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 11(a): BigBench (%d rows), median error vs k\n", r.Scale.BigBenchRows)
	fmt.Fprintf(&sb, "%8s %10s %10s %6s\n", "k", "mdn AQP", "mdn AQP++", "gain")
	for _, p := range r.Points {
		gain := 0.0
		if p.MdnErrAQPPP > 0 {
			gain = p.MdnErrAQP / p.MdnErrAQPPP
		}
		fmt.Fprintf(&sb, "%8d %9.2f%% %9.2f%% %5.1fx\n", p.K, 100*p.MdnErrAQP, 100*p.MdnErrAQPPP, gain)
	}
	return sb.String()
}

// RunFigure11a sweeps the cube budget on BigBench (nil ks selects a
// geometric sweep up to 2·sc.K, mirroring the paper's 10k…100k around
// k=50000).
func RunFigure11a(ctx context.Context, sc Scale, ks []int) (*Figure11aReport, error) {
	if len(ks) == 0 {
		ks = []int{sc.K / 4, sc.K / 2, sc.K, sc.K * 2}
		for i := range ks {
			if ks[i] < 8 {
				ks[i] = 8 + i
			}
		}
	}
	tbl := dataset.BigBenchUserVisits(dataset.BigBenchConfig{Rows: sc.BigBenchRows, Seed: sc.Seed})
	tmpl := cube.Template{Agg: "adRevenue", Dims: []string{"visitDate", "duration", "sourceIP"}}
	queries, err := workload.Generate(tbl, workload.Config{
		Template: tmpl, Count: sc.Queries, Seed: sc.Seed + 61,
	})
	if err != nil {
		return nil, err
	}
	s, err := sample.NewUniform(tbl, sc.SampleRate, sc.Seed+62)
	if err != nil {
		return nil, err
	}
	report := &Figure11aReport{Scale: sc}
	for _, k := range ks {
		proc, _, err := core.Build(ctx, tbl, core.BuildConfig{
			Template: tmpl, CellBudget: k, Seed: sc.Seed + 63,
			PrebuiltSample: s,
		})
		if err != nil {
			return nil, err
		}
		cmp, err := CompareOnWorkload(ctx, tbl, proc, queries)
		if err != nil {
			return nil, err
		}
		report.Points = append(report.Points, Figure11aPoint{
			K: k, MdnErrAQP: cmp.MedianErrAQP, MdnErrAQPPP: cmp.MedianErrAQPPP,
		})
	}
	return report, nil
}

// tlcDimOrder is the paper's ten TLCTrip condition attributes.
var tlcDimOrder = []string{
	"Pickup_Date", "Pickup_Time", "vendor_name", "Fare_Amt", "Rate_Code",
	"Passenger_Count", "Dropoff_Date", "Dropoff_Time", "surcharge", "Tip_Amt",
}

// Figure11bPoint is one template's errors on TLCTrip.
type Figure11bPoint struct {
	Dims        int
	MdnErrAQP   float64
	MdnErrAQPPP float64
	MdnDevAQP   float64
	MdnDevAQPPP float64
}

// Figure11bReport reproduces Figure 11(b): TLCTrip, median error vs the
// number of dimensions with the measure SUM(Distance).
type Figure11bReport struct {
	Scale  Scale
	Points []Figure11bPoint
}

// String renders the series.
func (r *Figure11bReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 11(b): TLCTrip (%d rows, k=%d), median error vs #dimensions\n",
		r.Scale.TLCRows, r.Scale.K)
	fmt.Fprintf(&sb, "%4s %10s %10s %6s | %9s %9s\n", "d", "mdn AQP", "mdn AQP++", "gain", "dev AQP", "dev AQP++")
	for _, p := range r.Points {
		gain := 0.0
		if p.MdnErrAQPPP > 0 {
			gain = p.MdnErrAQP / p.MdnErrAQPPP
		}
		fmt.Fprintf(&sb, "%4d %9.2f%% %9.2f%% %5.1fx | %8.2f%% %8.2f%%\n",
			p.Dims, 100*p.MdnErrAQP, 100*p.MdnErrAQPPP, gain,
			100*p.MdnDevAQP, 100*p.MdnDevAQPPP)
	}
	return sb.String()
}

// RunFigure11b runs the nested TLCTrip templates d = 1..maxDims
// (maxDims <= 0 runs all ten).
func RunFigure11b(ctx context.Context, sc Scale, maxDims int) (*Figure11bReport, error) {
	if maxDims <= 0 || maxDims > len(tlcDimOrder) {
		maxDims = len(tlcDimOrder)
	}
	tbl := dataset.TLCTrip(dataset.TLCTripConfig{Rows: sc.TLCRows, Seed: sc.Seed})
	s, err := sample.NewUniform(tbl, sc.SampleRate, sc.Seed+71)
	if err != nil {
		return nil, err
	}
	report := &Figure11bReport{Scale: sc}
	for d := 1; d <= maxDims; d++ {
		tmpl := cube.Template{Agg: "Distance", Dims: tlcDimOrder[:d]}
		queries, err := workload.Generate(tbl, workload.Config{
			Template: tmpl, Count: sc.Queries, Seed: sc.Seed + uint64(80+d),
		})
		if err != nil {
			return nil, err
		}
		proc, _, err := core.Build(ctx, tbl, core.BuildConfig{
			Template: tmpl, CellBudget: sc.K, Seed: sc.Seed + uint64(90+d),
			PrebuiltSample: s,
		})
		if err != nil {
			return nil, err
		}
		cmp, err := CompareOnWorkload(ctx, tbl, proc, queries)
		if err != nil {
			return nil, err
		}
		report.Points = append(report.Points, Figure11bPoint{
			Dims: d, MdnErrAQP: cmp.MedianErrAQP, MdnErrAQPPP: cmp.MedianErrAQPPP,
			MdnDevAQP: cmp.MedianDevAQP, MdnDevAQPPP: cmp.MedianDevAQPPP,
		})
	}
	return report, nil
}
