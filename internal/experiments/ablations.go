package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aqppp/internal/aqp"
	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/ident"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
	"aqppp/internal/workload"
)

// AblationReport collects the design-choice studies that back the paper's
// algorithmic decisions beyond its headline figures:
//
//   - equal partition vs hill climbing (the §6.1.2 refinement);
//   - P⁻ candidate scoring vs brute force over P⁺ (the §5.1 reduction:
//     same chosen error, exponentially fewer candidates);
//   - identification subsample rate (accuracy/latency trade-off, §5.2).
type AblationReport struct {
	Scale Scale

	// Equal-partition vs hill-climbing median errors on the correlated
	// template (where the difference should appear).
	MdnErrEqual, MdnErrHillClimb float64

	// P⁻ vs brute force: agreement rate of the selected error and the
	// average candidate counts.
	BruteAgreeRate         float64
	CandidatesFast         float64
	CandidatesBrute        float64
	FastSelectTime         time.Duration
	BruteSelectTime        time.Duration
	SubsampleRates         []float64
	SubsampleMdnErr        []float64
	SubsampleSelectLatency []time.Duration

	// Workload-driven vs uniform sampling (§8 future work): median error
	// of plain AQP on the hot workload under each sample.
	UniformWorkloadErr, DrivenWorkloadErr float64
}

// String renders the studies.
func (r *AblationReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablations (TPCD-Skew %d rows, k=%d)\n", r.Scale.TPCDRows, r.Scale.K)
	fmt.Fprintf(&sb, "[partitioning] equal-partition mdn err %.2f%% vs hill-climb %.2f%%\n",
		100*r.MdnErrEqual, 100*r.MdnErrHillClimb)
	fmt.Fprintf(&sb, "[identification] P⁻ matched brute-force error on %.0f%% of queries; "+
		"%.1f vs %.1f candidates; %v vs %v per selection\n",
		100*r.BruteAgreeRate, r.CandidatesFast, r.CandidatesBrute,
		r.FastSelectTime.Round(time.Microsecond), r.BruteSelectTime.Round(time.Microsecond))
	fmt.Fprintf(&sb, "[subsample rate] ")
	for i, rate := range r.SubsampleRates {
		if i > 0 {
			fmt.Fprintf(&sb, "; ")
		}
		fmt.Fprintf(&sb, "%.2g → mdn %.2f%%, %v", rate, 100*r.SubsampleMdnErr[i],
			r.SubsampleSelectLatency[i].Round(time.Microsecond))
	}
	fmt.Fprintf(&sb, "\n[workload-driven sampling] uniform mdn %.2f%% vs workload-driven %.2f%%\n",
		100*r.UniformWorkloadErr, 100*r.DrivenWorkloadErr)
	return sb.String()
}

// RunAblations runs the three studies on TPCD-Skew.
func RunAblations(ctx context.Context, sc Scale) (*AblationReport, error) {
	rep := &AblationReport{Scale: sc}
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: sc.TPCDRows, Seed: sc.Seed})
	s, err := sample.NewUniform(tbl, sc.SampleRate, sc.Seed+101)
	if err != nil {
		return nil, err
	}

	// --- equal partition vs hill climbing on a correlated attribute ---
	// l_shipdate correlates with l_extendedprice by construction.
	tmpl := cube.Template{Agg: "l_extendedprice", Dims: []string{"l_shipdate"}}
	queries, err := workload.Generate(tbl, workload.Config{
		Template: tmpl, Count: sc.Queries, Seed: sc.Seed + 102,
	})
	if err != nil {
		return nil, err
	}
	k1 := sc.K / 20
	if k1 < 10 {
		k1 = 10
	}
	for _, eqOnly := range []bool{true, false} {
		proc, _, err := core.Build(ctx, tbl, core.BuildConfig{
			Template: tmpl, CellBudget: k1, Seed: sc.Seed + 103,
			PrebuiltSample: s, EqualPartitionOnly: eqOnly,
		})
		if err != nil {
			return nil, err
		}
		cmp, err := CompareOnWorkload(ctx, tbl, proc, queries)
		if err != nil {
			return nil, err
		}
		if eqOnly {
			rep.MdnErrEqual = cmp.MedianErrAQPPP
		} else {
			rep.MdnErrHillClimb = cmp.MedianErrAQPPP
		}
	}

	// --- P⁻ vs brute force over P⁺ (small 1-D cube so P⁺ is tractable) ---
	smallCube, _, err := core.Build(ctx, tbl, core.BuildConfig{
		Template:   cube.Template{Agg: "l_extendedprice", Dims: []string{"l_orderkey"}},
		CellBudget: 8, Seed: sc.Seed + 104, PrebuiltSample: s,
	})
	if err != nil {
		return nil, err
	}
	idQueries, err := workload.Generate(tbl, workload.Config{
		Template: cube.Template{Agg: "l_extendedprice", Dims: []string{"l_orderkey"}},
		Count:    minI(sc.Queries, 40), Seed: sc.Seed + 105,
	})
	if err != nil {
		return nil, err
	}
	sub := s.Subsample(0.25, sc.Seed+106)
	agree := 0
	var fastN, bruteN float64
	var fastT, bruteT time.Duration
	for _, q := range idQueries {
		t0 := time.Now()
		fast, err := ident.SelectBest(smallCube.Cube, q, sub, 0.95)
		if err != nil {
			return nil, err
		}
		fastT += time.Since(t0)
		t1 := time.Now()
		brute, err := ident.BruteForceBest(smallCube.Cube, q, sub, 0.95)
		if err != nil {
			return nil, err
		}
		bruteT += time.Since(t1)
		fastN += float64(fast.Considered)
		bruteN += float64(brute.Considered)
		if fast.SubsampleError <= brute.SubsampleError*1.0001+1e-9 {
			agree++
		}
	}
	nq := len(idQueries)
	rep.BruteAgreeRate = float64(agree) / float64(nq)
	rep.CandidatesFast = fastN / float64(nq)
	rep.CandidatesBrute = bruteN / float64(nq)
	rep.FastSelectTime = fastT / time.Duration(nq)
	rep.BruteSelectTime = bruteT / time.Duration(nq)

	// --- subsample-rate sweep ---
	tmpl2 := cube.Template{Agg: "l_extendedprice", Dims: []string{"l_orderkey", "l_suppkey"}}
	queries2, err := workload.Generate(tbl, workload.Config{
		Template: tmpl2, Count: minI(sc.Queries, 50), Seed: sc.Seed + 107,
	})
	if err != nil {
		return nil, err
	}
	for _, rate := range []float64{0.02, 0.0625, 0.25, 1.0} {
		proc, _, err := core.Build(ctx, tbl, core.BuildConfig{
			Template: tmpl2, CellBudget: sc.K, Seed: sc.Seed + 108,
			PrebuiltSample: s, SubsampleRate: rate,
		})
		if err != nil {
			return nil, err
		}
		var errs []float64
		var selT time.Duration
		for _, q := range queries2 {
			truth, err := tbl.Execute(ctx, q)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			ans, err := proc.Answer(q)
			if err != nil {
				return nil, err
			}
			selT += time.Since(t0)
			errs = append(errs, clampErr(ans.Estimate.RelativeError(truth.Value)))
		}
		rep.SubsampleRates = append(rep.SubsampleRates, rate)
		rep.SubsampleMdnErr = append(rep.SubsampleMdnErr, stats.Median(errs))
		rep.SubsampleSelectLatency = append(rep.SubsampleSelectLatency, selT/time.Duration(len(queries2)))
	}
	// --- workload-driven vs uniform sampling on a hot workload ---
	hotTmpl := cube.Template{Agg: "l_extendedprice", Dims: []string{"l_orderkey"}}
	hot, err := workload.Generate(tbl, workload.Config{
		Template: hotTmpl, Count: minI(sc.Queries, 30), Seed: sc.Seed + 109,
	})
	if err != nil {
		return nil, err
	}
	driven, err := sample.NewWorkloadDriven(tbl, hot, sc.SampleRate, 1, sc.Seed+110)
	if err != nil {
		return nil, err
	}
	uniErrs := make([]float64, 0, len(hot))
	drvErrs := make([]float64, 0, len(hot))
	for _, q := range hot {
		truth, err := tbl.Execute(ctx, q)
		if err != nil {
			return nil, err
		}
		ue, err := aqp.EstimateSum(s, q, 0.95)
		if err != nil {
			return nil, err
		}
		de, err := aqp.EstimateSum(driven, q, 0.95)
		if err != nil {
			return nil, err
		}
		uniErrs = append(uniErrs, clampErr(ue.RelativeError(truth.Value)))
		drvErrs = append(drvErrs, clampErr(de.RelativeError(truth.Value)))
	}
	rep.UniformWorkloadErr = stats.Median(uniErrs)
	rep.DrivenWorkloadErr = stats.Median(drvErrs)
	return rep, nil
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
