package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/ident"
	"aqppp/internal/sample"
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
	tbl := tpcd(sc)
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
	var partitions []system
	for _, eqOnly := range []bool{true, false} {
		proc, _, err := core.Build(ctx, tbl, core.BuildConfig{
			Template: tmpl, CellBudget: max(sc.K/20, 10), Seed: sc.Seed + 103,
			PrebuiltSample: s, EqualPartitionOnly: eqOnly,
		})
		if err != nil {
			return nil, err
		}
		partitions = append(partitions, aqpppOn(proc))
	}
	m, err := measure(ctx, tbl, queries, partitions...)
	if err != nil {
		return nil, err
	}
	rep.MdnErrEqual, rep.MdnErrHillClimb = m[0].mdnErr(), m[1].mdnErr()

	// --- P⁻ vs brute force over P⁺ (small 1-D cube so P⁺ is tractable) ---
	orderkey := cube.Template{Agg: "l_extendedprice", Dims: []string{"l_orderkey"}}
	smallCube, _, err := core.Build(ctx, tbl, core.BuildConfig{
		Template: orderkey, CellBudget: 8, Seed: sc.Seed + 104, PrebuiltSample: s,
	})
	if err != nil {
		return nil, err
	}
	idQueries, err := workload.Generate(tbl, workload.Config{
		Template: orderkey, Count: min(sc.Queries, 40), Seed: sc.Seed + 105,
	})
	if err != nil {
		return nil, err
	}
	sub := s.Subsample(0.25, sc.Seed+106)
	for _, q := range idQueries {
		t0 := time.Now()
		fast, err := ident.SelectBest(smallCube.Cube, q, sub, 0.95)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		brute, err := ident.BruteForceBest(smallCube.Cube, q, sub, 0.95)
		if err != nil {
			return nil, err
		}
		rep.FastSelectTime += t1.Sub(t0)
		rep.BruteSelectTime += time.Since(t1)
		rep.CandidatesFast += float64(fast.Considered)
		rep.CandidatesBrute += float64(brute.Considered)
		if fast.SubsampleError <= brute.SubsampleError*1.0001+1e-9 {
			rep.BruteAgreeRate++
		}
	}
	// Totals to per-query means.
	nq := len(idQueries)
	rep.BruteAgreeRate /= float64(nq)
	rep.CandidatesFast /= float64(nq)
	rep.CandidatesBrute /= float64(nq)
	rep.FastSelectTime /= time.Duration(nq)
	rep.BruteSelectTime /= time.Duration(nq)

	// --- subsample-rate sweep ---
	tmpl2 := cube.Template{Agg: "l_extendedprice", Dims: []string{"l_orderkey", "l_suppkey"}}
	queries2, err := workload.Generate(tbl, workload.Config{
		Template: tmpl2, Count: min(sc.Queries, 50), Seed: sc.Seed + 107,
	})
	if err != nil {
		return nil, err
	}
	rep.SubsampleRates = []float64{0.02, 0.0625, 0.25, 1.0}
	var subsampled []system
	for _, rate := range rep.SubsampleRates {
		proc, _, err := core.Build(ctx, tbl, core.BuildConfig{
			Template: tmpl2, CellBudget: sc.K, Seed: sc.Seed + 108,
			PrebuiltSample: s, SubsampleRate: rate,
		})
		if err != nil {
			return nil, err
		}
		subsampled = append(subsampled, aqpppOn(proc))
	}
	if m, err = measure(ctx, tbl, queries2, subsampled...); err != nil {
		return nil, err
	}
	for _, mi := range m {
		rep.SubsampleMdnErr = append(rep.SubsampleMdnErr, mi.mdnErr())
		rep.SubsampleSelectLatency = append(rep.SubsampleSelectLatency, mi.resp)
	}
	// --- workload-driven vs uniform sampling on a hot workload ---
	hot, err := workload.Generate(tbl, workload.Config{
		Template: orderkey, Count: min(sc.Queries, 30), Seed: sc.Seed + 109,
	})
	if err != nil {
		return nil, err
	}
	driven, err := sample.NewWorkloadDriven(tbl, hot, sc.SampleRate, 1, sc.Seed+110)
	if err != nil {
		return nil, err
	}
	if m, err = measure(ctx, tbl, hot, aqpOn(s), aqpOn(driven)); err != nil {
		return nil, err
	}
	rep.UniformWorkloadErr = m[0].mdnErr()
	rep.DrivenWorkloadErr = m[1].mdnErr()
	return rep, nil
}
