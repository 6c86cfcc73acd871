package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"aqppp/internal/dataset"
	"aqppp/internal/engine"
)

// The experiment runners are exercised at Small scale so the suite stays
// fast; the full-scale runs live in bench_test.go and cmd/aqppp-bench.

func TestRunTable1Small(t *testing.T) {
	rep, err := RunTable1(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 (AQP, AggPre, AQP++, AQP(large), APA+)", len(rep.Rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rep.Rows {
		byName[r.System] = r
	}
	ppRow := byName["AQP++"]
	aggRow := byName["AggPre"]
	if !aggRow.Estimated {
		t.Error("AggPre row should be estimated")
	}
	if aggRow.SpaceBytes <= ppRow.SpaceBytes {
		t.Error("full P-Cube not bigger than BP-Cube")
	}
	if aggRow.MdnErr != 0 {
		t.Error("AggPre is exact")
	}
	if rep.FullCubeCells <= int64(rep.Scale.K) {
		t.Errorf("full cube cells %d suspiciously small", rep.FullCubeCells)
	}
	out := rep.String()
	for _, want := range []string{"AQP++", "AggPre", "APA+", "mdn err"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// sweepSmall runs the named sweep figure at Small scale.
func sweepSmall(t *testing.T, name string, maxDims int) *sweepReport {
	t.Helper()
	rep, err := runSweep(context.Background(), sweeps[name], Options{Scale: Small(), MaxDims: maxDims})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunFigure7Small(t *testing.T) {
	rep := sweepSmall(t, "figure7", 3)
	if len(rep.points) != 3 {
		t.Fatalf("points = %d", len(rep.points))
	}
	for i, p := range rep.points {
		if p.x != i+1 {
			t.Errorf("point %d has dims %d", i, p.x)
		}
		if p.prepAQPPP <= p.prepAQP {
			t.Errorf("d=%d: AQP++ preprocessing not above AQP's", p.x)
		}
		if p.aqp.mdnErr() <= 0 {
			t.Errorf("d=%d: AQP error zero", p.x)
		}
		// AQP++ can legitimately reach 0 when most queries align exactly
		// with partition points (k approaches the sample's resolution).
		if p.aqppp.mdnErr() < 0 {
			t.Errorf("d=%d: negative AQP++ error", p.x)
		}
	}
	// 1D should show the largest improvement (fixed k spreads thin as d
	// grows) — allow slack but require 1D to beat AQP.
	if rep.points[0].aqppp.mdnErr() >= rep.points[0].aqp.mdnErr() {
		t.Error("1D AQP++ not better than AQP")
	}
	if !strings.Contains(rep.String(), "Figure 7") {
		t.Error("report header missing")
	}
}

func TestRunFigure8Small(t *testing.T) {
	rep, err := RunFigure8(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dims) != 2 {
		t.Fatalf("dims = %d", len(rep.Dims))
	}
	for _, d := range rep.Dims {
		if len(d.GlobalTrace) == 0 || len(d.LocalTrace) == 0 {
			t.Fatal("empty trace")
		}
		gFinal := d.GlobalTrace[len(d.GlobalTrace)-1]
		lFinal := d.LocalTrace[len(d.LocalTrace)-1]
		if gFinal > lFinal*1.0001 {
			t.Errorf("%s: global (%v) worse than local (%v)", d.Dim, gFinal, lFinal)
		}
		// Both start from the same equal partition.
		if d.GlobalTrace[0] != d.LocalTrace[0] {
			t.Errorf("%s: traces start differently", d.Dim)
		}
	}
	if !strings.Contains(rep.String(), "global") {
		t.Error("report missing traces")
	}
}

// TestRunFigure9Small: Q1..Q6 all run against the one cube, which the
// -max-dims cap (for sweeps that build a cube per point) leaves alone.
func TestRunFigure9Small(t *testing.T) {
	rep := sweepSmall(t, "figure9", 3)
	if len(rep.points) != 6 {
		t.Fatalf("points = %d, want Q1..Q6", len(rep.points))
	}
	if !strings.Contains(rep.String(), "Q6") {
		t.Error("report missing rows")
	}
}

// TestRunFigure10aSmall: the k axis is k/20 … k/2, each raised to a
// floor, and the workload keeps only outlier-covering queries.
func TestRunFigure10aSmall(t *testing.T) {
	rep := sweepSmall(t, "figure10a", 0)
	var ks []int
	for _, p := range rep.points {
		ks = append(ks, p.x)
	}
	if fmt.Sprint(ks) != "[10 20 40 100]" {
		t.Errorf("k axis = %v at k=200", ks)
	}
	if n := len(rep.points[0].aqp.errs); n == 0 || n > Small().Queries {
		t.Errorf("%d outlier-covering queries of %d", n, Small().Queries)
	}
	if !strings.Contains(rep.String(), "measure-biased") {
		t.Error("report header missing")
	}
}

// gain is a point's median-error ratio AQP / AQP++: +Inf when only AQP++
// is exact, 1 when both are.
func gain(p sweepPoint) float64 {
	if p.aqp.mdnErr() == 0 && p.aqppp.mdnErr() == 0 {
		return 1
	}
	return p.aqp.mdnErr() / p.aqppp.mdnErr()
}

// TestShapesSmall asserts the paper's headline shapes as inequalities at
// Small scale over three seeds, so a change to an estimator or interval
// cannot silently cost the reproduction a figure: Table 1 and Figures 7,
// 8, 9, 10(a), 10(b), 11(a) and 11(b). APA+ ≤ AQP and
// AQP(large) against AQP++ are not asserted: seed 43 breaks both at this
// scale.
func TestShapesSmall(t *testing.T) {
	ctx := context.Background()
	shapes := []struct {
		name  string
		check func(t *testing.T, o Options)
	}{
		// Table 1: AQP++ beats AQP on the same sample.
		{"table1", func(t *testing.T, o Options) {
			rep, err := RunTable1(ctx, o.Scale)
			if err != nil {
				t.Fatal(err)
			}
			if aqp, pp := rep.Rows[0].MdnErr, rep.Rows[2].MdnErr; pp >= aqp {
				t.Errorf("AQP++ mdn %.2f%% not below AQP's %.2f%%", 100*pp, 100*aqp)
			}
		}},
		// Figure 9: Q3, the cube's own template, gains strictly the most,
		// and more than 1x.
		{"figure9", func(t *testing.T, o Options) {
			rep, err := runSweep(ctx, sweeps["figure9"], o)
			if err != nil {
				t.Fatal(err)
			}
			q3 := gain(rep.points[2])
			for _, p := range rep.points {
				if p.x != 3 && gain(p) >= q3 {
					t.Errorf("Q%d gains %.2fx, Q3 only %.2fx", p.x, gain(p), q3)
				}
			}
			if q3 <= 1 {
				t.Errorf("Q3 gains %.2fx", q3)
			}
		}},
		// Figure 7: AQP++ is never worse than AQP, and the gain decays
		// with dimensions: AQP++ at d = 1 beats AQP++ at the largest d.
		{"figure7", func(t *testing.T, o Options) {
			rep, err := runSweep(ctx, sweeps["figure7"], o)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.points {
				if p.aqppp.mdnErr() > p.aqp.mdnErr() {
					t.Errorf("d=%d: AQP++ %.2f%% above AQP's %.2f%%", p.x, 100*p.aqppp.mdnErr(), 100*p.aqp.mdnErr())
				}
			}
			first, last := rep.points[0], rep.points[len(rep.points)-1]
			if first.aqppp.mdnErr() >= last.aqppp.mdnErr() {
				t.Errorf("AQP++ at d=1 %.2f%% not below d=%d's %.2f%%",
					100*first.aqppp.mdnErr(), last.x, 100*last.aqppp.mdnErr())
			}
		}},
		// Figure 8: on both dimensions the global climb ends below the
		// equal partition it starts from, and no worse than the local one.
		{"figure8", func(t *testing.T, o Options) {
			rep, err := RunFigure8(ctx, o.Scale)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range rep.Dims {
				g, l := d.GlobalTrace, d.LocalTrace
				if final := g[len(g)-1]; final >= g[0] || final > l[len(l)-1] {
					t.Errorf("%s: global ends at %.4g from %.4g; local ends at %.4g", d.Dim, final, g[0], l[len(l)-1])
				}
			}
		}},
		// Figure 10(a): the largest cube beats the smallest, and AQP.
		{"figure10a", func(t *testing.T, o Options) {
			rep, err := runSweep(ctx, sweeps["figure10a"], o)
			if err != nil {
				t.Fatal(err)
			}
			first, last := rep.points[0], rep.points[len(rep.points)-1]
			if last.aqppp.mdnErr() >= first.aqppp.mdnErr() {
				t.Errorf("AQP++ at k=%d %.2f%% not below k=%d's %.2f%%",
					last.x, 100*last.aqppp.mdnErr(), first.x, 100*first.aqppp.mdnErr())
			}
			if last.aqppp.mdnErr() >= last.aqp.mdnErr() {
				t.Errorf("AQP++ at k=%d %.2f%% not below AQP's %.2f%%", last.x, 100*last.aqppp.mdnErr(), 100*last.aqp.mdnErr())
			}
		}},
		// Figure 10(b): AQP++ is no worse than AQP on any group and
		// strictly better on one; a fully sampled group is exact for both.
		{"figure10b", func(t *testing.T, o Options) {
			rep, err := RunFigure10b(ctx, o.Scale)
			if err != nil {
				t.Fatal(err)
			}
			better, full := false, false
			for _, g := range rep.Groups {
				if g.MdnErrAQPPP > g.MdnErrAQP {
					t.Errorf("<%s>: AQP++ %.2f%% above AQP's %.2f%%", g.Key, 100*g.MdnErrAQPPP, 100*g.MdnErrAQP)
				}
				better = better || g.MdnErrAQPPP < g.MdnErrAQP
				if g.FullySampled {
					full = true
					if g.MdnErrAQP != 0 || g.MdnErrAQPPP != 0 {
						t.Errorf("fully sampled <%s>: AQP %.2f%%, AQP++ %.2f%%", g.Key, 100*g.MdnErrAQP, 100*g.MdnErrAQPPP)
					}
				}
			}
			if !better || !full {
				t.Errorf("a strictly better group: %v; a fully sampled group: %v", better, full)
			}
		}},
		// Figure 11(a): on BigBench, AQP++ at the largest k beats AQP.
		{"figure11a", func(t *testing.T, o Options) {
			rep, err := runSweep(ctx, sweeps["figure11a"], o)
			if err != nil {
				t.Fatal(err)
			}
			last := rep.points[len(rep.points)-1]
			if last.aqppp.mdnErr() >= last.aqp.mdnErr() {
				t.Errorf("AQP++ at k=%d %.2f%% not below AQP's %.2f%%", last.x, 100*last.aqppp.mdnErr(), 100*last.aqp.mdnErr())
			}
		}},
		// Figure 11(b): on TLCTrip, AQP++ beats AQP at d = 1.
		{"figure11b", func(t *testing.T, o Options) {
			o.MaxDims = 1
			rep, err := runSweep(ctx, sweeps["figure11b"], o)
			if err != nil {
				t.Fatal(err)
			}
			if p := rep.points[0]; p.aqppp.mdnErr() >= p.aqp.mdnErr() {
				t.Errorf("d=1: AQP++ %.2f%% not below AQP's %.2f%%", 100*p.aqppp.mdnErr(), 100*p.aqp.mdnErr())
			}
		}},
	}
	for _, seed := range []uint64{42, 43, 44} {
		o := Options{Scale: Small()}
		o.Seed = seed
		for _, sh := range shapes {
			t.Run(fmt.Sprintf("%s/seed=%d", sh.name, seed), func(t *testing.T) { sh.check(t, o) })
		}
	}
}

func TestRunFigure10bSmall(t *testing.T) {
	rep, err := RunFigure10b(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) < 3 {
		t.Fatalf("groups = %d", len(rep.Groups))
	}
	fullySampledSeen := false
	for _, g := range rep.Groups {
		if g.FullySampled {
			fullySampledSeen = true
			if g.MdnErrAQP > 1e-9 || g.MdnErrAQPPP > 1e-9 {
				t.Errorf("fully sampled group %q has nonzero errors", g.Key)
			}
		}
	}
	_ = fullySampledSeen // rare group may or may not be fully covered at tiny scale
	if !strings.Contains(rep.String(), "stratified") {
		t.Error("report header missing")
	}
}

func TestRunFigure11aSmall(t *testing.T) {
	rep := sweepSmall(t, "figure11a", 0)
	if len(rep.points) != 4 {
		t.Fatalf("points = %d", len(rep.points))
	}
	for _, p := range rep.points {
		if p.aqp.mdnErr() <= 0 {
			t.Error("AQP error zero")
		}
	}
	if !strings.Contains(rep.String(), "BigBench") {
		t.Error("report header missing")
	}
}

func TestRunFigure11bSmall(t *testing.T) {
	rep := sweepSmall(t, "figure11b", 3)
	if len(rep.points) != 3 {
		t.Fatalf("points = %d", len(rep.points))
	}
	if rep.points[0].aqppp.mdnErr() >= rep.points[0].aqp.mdnErr() {
		t.Error("1D TLC: AQP++ not better than AQP")
	}
	if !strings.Contains(rep.String(), "TLCTrip") {
		t.Error("report header missing")
	}
}

func TestScales(t *testing.T) {
	d := Default()
	s := Small()
	if s.TPCDRows >= d.TPCDRows {
		t.Error("Small not smaller than Default")
	}
	t.Setenv("AQPPP_TPCD_ROWS", "777")
	t.Setenv("AQPPP_SAMPLE_RATE", "0.5")
	t.Setenv("AQPPP_SEED", "9")
	sc := FromEnv()
	if sc.TPCDRows != 777 || sc.SampleRate != 0.5 || sc.Seed != 9 {
		t.Errorf("env overrides ignored: %+v", sc)
	}
	t.Setenv("AQPPP_SAMPLE_RATE", "nonsense")
	sc = FromEnv()
	if sc.SampleRate != Default().SampleRate {
		t.Error("bad env value not ignored")
	}
}

func TestComparisonHelpers(t *testing.T) {
	for _, c := range []struct {
		aqp, aqppp float64
		want       string
	}{{0.1, 0.02, "  5.0x"}, {0.1, 0, "     ∞"}, {0, 0, "     –"}} {
		if got := gainCell(c.aqp, c.aqppp); got != c.want {
			t.Errorf("gainCell(%v, %v) = %q, want %q", c.aqp, c.aqppp, got, c.want)
		}
	}
	if clampErr(math.Inf(1)) != 10 {
		t.Error("clampErr did not clamp Inf")
	}
	if clampErr(math.NaN()) != 10 {
		t.Error("clampErr did not clamp NaN")
	}
}

func TestRunAblationsSmall(t *testing.T) {
	rep, err := RunAblations(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	// Hill climbing must not lose to the equal partition on correlated
	// data (it starts from it and only accepts improvements).
	if rep.MdnErrHillClimb > rep.MdnErrEqual*1.1 {
		t.Errorf("hill climb %.3f%% worse than equal partition %.3f%%",
			100*rep.MdnErrHillClimb, 100*rep.MdnErrEqual)
	}
	if rep.BruteAgreeRate < 0.9 {
		t.Errorf("P⁻ matched brute force on only %.0f%% of queries", 100*rep.BruteAgreeRate)
	}
	if rep.CandidatesBrute <= rep.CandidatesFast {
		t.Error("brute force considered no more candidates than P⁻")
	}
	if len(rep.SubsampleRates) != 4 {
		t.Fatalf("subsample sweep has %d points", len(rep.SubsampleRates))
	}
	if !strings.Contains(rep.String(), "identification") {
		t.Error("report text broken")
	}
}

func TestAblationsWorkloadDriven(t *testing.T) {
	rep, err := RunAblations(context.Background(), Small())
	if err != nil {
		t.Fatal(err)
	}
	if rep.UniformWorkloadErr <= 0 || rep.DrivenWorkloadErr <= 0 {
		t.Fatalf("workload study missing: %+v vs %+v", rep.UniformWorkloadErr, rep.DrivenWorkloadErr)
	}
	// Workload-driven sampling should not be dramatically worse on the
	// workload it was built for (it usually wins; small scales are noisy).
	if rep.DrivenWorkloadErr > rep.UniformWorkloadErr*1.5 {
		t.Errorf("workload-driven %.2f%% much worse than uniform %.2f%%",
			100*rep.DrivenWorkloadErr, 100*rep.UniformWorkloadErr)
	}
	if !strings.Contains(rep.String(), "workload-driven") {
		t.Error("report missing workload section")
	}
}

// TestGroundTruthScanHonorsCancel: the runners' ground-truth scans run
// under the caller's ctx, so `aqppp-bench -timeout` stops them. measure,
// the loop every scalar error comes from, is checked on its own because a
// runner that builds first returns core.Build's cancellation either way.
func TestGroundTruthScanHonorsCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunTable1(ctx, Small()); !errors.Is(err, context.Canceled) {
		t.Errorf("RunTable1 under a canceled ctx: err = %v, want context.Canceled", err)
	}
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: 5000, Seed: 1})
	q := engine.Query{Func: engine.Sum, Col: "l_extendedprice"}
	if _, err := measure(ctx, tbl, []engine.Query{q}); !errors.Is(err, context.Canceled) {
		t.Errorf("measure under a canceled ctx: err = %v, want context.Canceled", err)
	}
}
