package shard

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

func buildPrepared(t *testing.T, s *Sharded, cfg core.BuildConfig) *Prepared {
	t.Helper()
	p, err := Prepare(context.Background(), s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func approxConfig() core.BuildConfig {
	return core.BuildConfig{
		Template:   cube.Template{Agg: "v", Dims: []string{"c"}},
		SampleRate: 0.2,
		CellBudget: 64,
		Seed:       7,
	}
}

func TestPrepareBasics(t *testing.T) {
	tbl := intTable(t, 10000, 11)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 4})
	p := buildPrepared(t, s, approxConfig())
	if p.Confidence != 0.95 {
		t.Errorf("default confidence = %v", p.Confidence)
	}
	if len(p.Procs) != 4 {
		t.Fatalf("%d procs, want 4", len(p.Procs))
	}
	total := 0
	for h, proc := range p.Procs {
		if proc == nil {
			t.Fatalf("shard %d (non-empty) has no processor", h)
		}
		total += proc.Sample.Size()
	}
	if total != p.SampleSize() {
		t.Errorf("SampleSize = %d, per-shard sum = %d", p.SampleSize(), total)
	}
	// Each shard drew ~rate·rows; the total should be near rate·n.
	if want := int(0.2 * 10000); total < want/2 || total > want*2 {
		t.Errorf("total sample rows = %d, want near %d", total, want)
	}

	// A prebuilt global sample cannot be split across shards.
	cfg := approxConfig()
	sm, err := sample.NewUniform(tbl, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PrebuiltSample = sm
	if _, err := Prepare(context.Background(), s, cfg, 1); err == nil {
		t.Error("PrebuiltSample was not rejected")
	}
}

// TestMergeFormula pins the stratified composition itself: the merged
// point estimate must equal the sum of per-shard answers and the merged
// half-width must equal λ·sqrt(Σ (hw_h/λ)²), both to ~1e-12 — the
// deterministic part of the CI merge, independent of whether any
// estimator is well calibrated.
func TestMergeFormula(t *testing.T) {
	tbl := intTable(t, 12000, 12)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 4})
	p := buildPrepared(t, s, approxConfig())
	q := engine.Query{Func: engine.Sum, Col: "v",
		Ranges: []engine.Range{{Col: "c", Lo: 5, Hi: 40}}}

	merged, err := p.Answer(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}

	lambda := stats.ZScore(p.Confidence)
	var wantValue, varSum float64
	for _, h := range p.group(0).active(q.Ranges) {
		a, err := p.Procs[h].Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		wantValue += a.Estimate.Value
		w := a.Estimate.HalfWidth / lambda
		varSum += w * w
	}
	wantHW := lambda * math.Sqrt(varSum)

	if !stats.ApproxEqual(merged.Estimate.Value, wantValue, 1e-12) {
		t.Errorf("merged value %v, per-shard sum %v", merged.Estimate.Value, wantValue)
	}
	if !stats.ApproxEqual(merged.Estimate.HalfWidth, wantHW, 1e-12) {
		t.Errorf("merged hw %v, composed hw %v", merged.Estimate.HalfWidth, wantHW)
	}
	if merged.Estimate.Confidence != p.Confidence {
		t.Errorf("merged confidence = %v", merged.Estimate.Confidence)
	}
}

// TestAnswerVsSingleStratum compares the sharded estimator against the
// unsharded one on the same queries: the point estimates must agree to
// a few percent of the truth, the truth must be covered by (an inflated
// multiple of) each interval, and the merged half-width must be the
// same order of magnitude as the single-stratum one. The estimators
// differ legitimately — per-shard samples are independent draws and the
// stratified sum applies a finite-population correction the per-shard
// uniform CLT does not — so the width check is a factor band, not an
// equality.
func TestAnswerVsSingleStratum(t *testing.T) {
	tbl := intTable(t, 30000, 13)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 4})
	p := buildPrepared(t, s, approxConfig())

	single, _, err := core.Build(context.Background(), tbl, approxConfig())
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range []engine.Query{
		{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{Col: "c", Lo: 5, Hi: 40}}},
		{Func: engine.Count, Col: "", Ranges: []engine.Range{{Col: "c", Lo: 10, Hi: 30}}},
	} {
		truth, err := tbl.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		merged, err := p.Answer(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		base, err := single.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		scale := math.Max(math.Abs(truth.Value), 1)
		if rel := math.Abs(merged.Estimate.Value-truth.Value) / scale; rel > 0.05 {
			t.Errorf("%v: sharded estimate off truth by %v", q, rel)
		}
		if math.Abs(merged.Estimate.Value-truth.Value) > 4*merged.Estimate.HalfWidth+1e-9 {
			t.Errorf("%v: truth %v far outside sharded CI %v ± %v",
				q, truth.Value, merged.Estimate.Value, merged.Estimate.HalfWidth)
		}
		if base.Estimate.HalfWidth > 0 {
			ratio := merged.Estimate.HalfWidth / base.Estimate.HalfWidth
			if ratio < 0.1 || ratio > 10 {
				t.Errorf("%v: sharded hw %v vs single-stratum hw %v (ratio %v)",
					q, merged.Estimate.HalfWidth, base.Estimate.HalfWidth, ratio)
			}
		}
	}
}

func TestAnswerAvg(t *testing.T) {
	tbl := intTable(t, 20000, 14)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 4})
	p := buildPrepared(t, s, approxConfig())
	q := engine.Query{Func: engine.Avg, Col: "v",
		Ranges: []engine.Range{{Col: "c", Lo: 5, Hi: 45}}}
	truth, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.Answer(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The measure averages ~25 over a [-50, 150) support; a few units of
	// absolute error is the right scale here.
	if math.Abs(ans.Estimate.Value-truth.Value) > 5 {
		t.Errorf("AVG estimate %v, truth %v", ans.Estimate.Value, truth.Value)
	}
	if ans.Estimate.HalfWidth <= 0 {
		t.Errorf("AVG half-width = %v", ans.Estimate.HalfWidth)
	}
}

func TestAnswerMinMax(t *testing.T) {
	tbl := intTable(t, 8000, 15)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 4})
	cfg := approxConfig()
	cfg.WithMinMax = true
	p := buildPrepared(t, s, cfg)
	for _, f := range []engine.AggFunc{engine.Min, engine.Max} {
		q := engine.Query{Func: f, Col: "v",
			Ranges: []engine.Range{{Col: "c", Lo: 10, Hi: 35}}}
		truth, err := tbl.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		ans, err := p.Answer(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Extrema answers are exact (served from per-shard indexes).
		if !stats.ExactEqual(ans.Estimate.Value, truth.Value) {
			t.Errorf("%v: sharded %v != exact %v", f, ans.Estimate.Value, truth.Value)
		}
	}
}

func TestAnswerGroups(t *testing.T) {
	tbl := intTable(t, 24000, 16)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 4})
	p := buildPrepared(t, s, approxConfig())
	q := engine.Query{Func: engine.Sum, Col: "v", GroupBy: []string{"g"},
		Ranges: []engine.Range{{Col: "c", Lo: 0, Hi: 45}}}
	truth, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]float64, len(truth.Groups))
	for _, g := range truth.Groups {
		byKey[g.Key] = g.Value
	}
	groups, err := p.AnswerGroups(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) == 0 {
		t.Fatal("no group answers")
	}
	for i := 1; i < len(groups); i++ {
		if groups[i-1].Key >= groups[i].Key {
			t.Fatalf("group answers not sorted: %q before %q", groups[i-1].Key, groups[i].Key)
		}
	}
	for _, g := range groups {
		want, ok := byKey[g.Key]
		if !ok {
			t.Errorf("group %q not in truth", g.Key)
			continue
		}
		scale := math.Max(math.Abs(want), 1)
		if rel := math.Abs(g.Answer.Estimate.Value-want) / scale; rel > 0.25 {
			t.Errorf("group %q estimate %v, truth %v (rel %v)", g.Key, g.Answer.Estimate.Value, want, rel)
		}
	}

	// Answer refuses GROUP BY; AnswerGroups refuses its absence.
	if _, err := p.Answer(context.Background(), q, 1); err == nil {
		t.Error("Answer accepted a GROUP BY query")
	}
	scalar := q
	scalar.GroupBy = nil
	if _, err := p.AnswerGroups(context.Background(), scalar, 1); err == nil {
		t.Error("AnswerGroups accepted a scalar query")
	}
}

// TestBootstrapMerge pins the bootstrap composition: points add, widths
// compose as sqrt(Σ hw²) over per-shard bootstraps with independent
// seeded streams — recomputing each shard's bootstrap with the same
// derived seed must reproduce the merged answer exactly.
func TestBootstrapMerge(t *testing.T) {
	tbl := intTable(t, 12000, 17)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 3})
	p := buildPrepared(t, s, approxConfig())
	q := engine.Query{Func: engine.Sum, Col: "v",
		Ranges: []engine.Range{{Col: "c", Lo: 5, Hi: 40}}}
	const resamples = 200
	const seed = 0xfeed

	merged, err := p.AnswerBootstrap(context.Background(), q, resamples, seed, 2)
	if err != nil {
		t.Fatal(err)
	}

	var wantValue, hw2 float64
	for _, h := range p.group(0).active(q.Ranges) {
		a, err := p.Procs[h].AnswerBootstrap(context.Background(), q, resamples,
			seed+uint64(h+1)*seedStride, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantValue += a.Estimate.Value
		hw2 += a.Estimate.HalfWidth * a.Estimate.HalfWidth
	}
	if !stats.ApproxEqual(merged.Estimate.Value, wantValue, 1e-12) {
		t.Errorf("bootstrap merged value %v, per-shard sum %v", merged.Estimate.Value, wantValue)
	}
	if !stats.ApproxEqual(merged.Estimate.HalfWidth, math.Sqrt(hw2), 1e-12) {
		t.Errorf("bootstrap merged hw %v, composed %v", merged.Estimate.HalfWidth, math.Sqrt(hw2))
	}

	// Determinism: the same seed reproduces the same interval.
	again, err := p.AnswerBootstrap(context.Background(), q, resamples, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ExactEqual(merged.Estimate.Value, again.Estimate.Value) ||
		!stats.ExactEqual(merged.Estimate.HalfWidth, again.Estimate.HalfWidth) {
		t.Error("bootstrap answer not reproducible under a fixed seed")
	}

	// Coverage sanity against the exact answer.
	truth, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(merged.Estimate.Value-truth.Value) > 4*merged.Estimate.HalfWidth+1e-9 {
		t.Errorf("truth %v far outside bootstrap CI %v ± %v",
			truth.Value, merged.Estimate.Value, merged.Estimate.HalfWidth)
	}

	// Unsupported shapes refuse.
	if _, err := p.AnswerBootstrap(context.Background(), engine.Query{Func: engine.Avg, Col: "v"}, 10, 1, 1); err == nil {
		t.Error("bootstrap accepted AVG")
	}
	gq := q
	gq.GroupBy = []string{"g"}
	if _, err := p.AnswerBootstrap(context.Background(), gq, 10, 1, 1); err == nil {
		t.Error("bootstrap accepted GROUP BY")
	}
}

// TestPruningTightensCI: a query whose range prunes shards must not
// widen the interval — pruned shards contribute exactly zero, so the
// merged variance only drops.
func TestPruningTightensCI(t *testing.T) {
	tbl := intTable(t, 16000, 18)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 8})
	p := buildPrepared(t, s, approxConfig())
	q := engine.Query{Func: engine.Sum, Col: "v",
		Ranges: []engine.Range{{Col: "k", Lo: 100, Hi: 140}}}
	if got := len(p.group(0).active(q.Ranges)); got >= 8 {
		t.Fatalf("selective range kept %d of 8 shards active", got)
	}
	ans, err := p.Answer(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans.Estimate.Value-truth.Value) > 4*ans.Estimate.HalfWidth+math.Abs(truth.Value)*0.1+1e-9 {
		t.Errorf("pruned answer %v ± %v vs truth %v", ans.Estimate.Value, ans.Estimate.HalfWidth, truth.Value)
	}
}
