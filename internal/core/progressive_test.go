package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

func TestProgressiveShrinkingIntervals(t *testing.T) {
	tbl := testTable(30000, 80)
	// Build a cube separately (simulating the warehouse's precomputed
	// aggregates existing before the online session).
	built, _, err := Build(context.Background(), tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"c1"}},
		SampleRate: 0.01, CellBudget: 15, Seed: 81,
	})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := NewProgressive(tbl, built.Cube, 0.95, 82)
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 17, Hi: 73}}}
	truth, _ := tbl.Execute(context.Background(), q)
	answers, err := pg.Trace(context.Background(), q, []int{200, 400, 800, 1600})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 4 {
		t.Fatalf("trace = %d answers", len(answers))
	}
	// Intervals shrink roughly as 1/√n: require strict overall decrease.
	first := answers[0].Estimate.HalfWidth
	last := answers[3].Estimate.HalfWidth
	if last >= first {
		t.Errorf("interval did not shrink: %v -> %v", first, last)
	}
	// Final estimate is close to the truth.
	final := answers[3].Estimate
	if rel := math.Abs(final.Value-truth.Value) / truth.Value; rel > 0.1 {
		t.Errorf("final estimate off by %v", rel)
	}
	if pg.SampleSize() != 3000 {
		t.Errorf("sample size = %d", pg.SampleSize())
	}
}

func TestProgressiveExhaustsTable(t *testing.T) {
	tbl := testTable(500, 83)
	pg, err := NewProgressive(tbl, nil, 0.95, 84)
	if err != nil {
		t.Fatal(err)
	}
	if got := pg.Step(10000); got != 500 {
		t.Errorf("Step beyond table = %d", got)
	}
	// With every row sampled, the estimate is exact.
	q := engine.Query{Func: engine.Sum, Col: "a"}
	truth, _ := tbl.Execute(context.Background(), q)
	ans, err := pg.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ans.Estimate.Value-truth.Value) > 1e-6*math.Abs(truth.Value) {
		t.Errorf("full-sample estimate %v != truth %v", ans.Estimate.Value, truth.Value)
	}
}

func TestProgressiveErrors(t *testing.T) {
	tbl := testTable(100, 85)
	pg, err := NewProgressive(tbl, nil, 0.95, 86)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pg.Answer(engine.Query{Func: engine.Sum, Col: "a"}); err == nil {
		t.Error("empty sample answered")
	}
	pg.Step(10)
	if _, err := pg.Answer(engine.Query{Func: engine.Avg, Col: "a"}); err == nil {
		t.Error("AVG accepted")
	}
	empty := engine.MustNewTable("e", engine.NewFloatColumn("a", nil))
	if _, err := NewProgressive(empty, nil, 0.95, 87); err == nil {
		t.Error("empty table accepted")
	}
}

func TestMinMaxThroughProcessor(t *testing.T) {
	tbl := testTable(10000, 88)
	p, _, err := Build(context.Background(), tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"c1"}},
		SampleRate: 0.05, CellBudget: 10, Seed: 89, WithMinMax: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.MinMax) != 1 {
		t.Fatalf("built %d MinMax indexes", len(p.MinMax))
	}
	q := engine.Query{Func: engine.Max, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 20, Hi: 60}}}
	truth, _ := tbl.Execute(context.Background(), q)
	ans, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Estimate.Value != truth.Value {
		t.Errorf("MAX = %v, want %v", ans.Estimate.Value, truth.Value)
	}
	if ans.Estimate.HalfWidth != 0 {
		t.Error("exact MAX carries uncertainty")
	}
	// Queries over a non-indexed dimension are rejected with guidance.
	q2 := engine.Query{Func: engine.Min, Col: "a",
		Ranges: []engine.Range{{Col: "c2", Lo: 1, Hi: 5}}}
	if _, err := p.Answer(q2); err == nil {
		t.Error("uncovered MIN accepted")
	}
}

// TestProgressiveMatchesGatheredPrefix: the growing sample is the same
// sample Gather builds over the same row prefix, so every round answers
// exactly as a Processor over that prefix does — for an int, a float and
// a string predicate. The string one is the repro: the growing sample
// used to re-intern strings into its own dictionary, so its ranks were
// ranks among the strings seen so far while the query's bounds are ranks
// in the table's dictionary, and a high-cardinality range answered 0 ± 0.
func TestProgressiveMatchesGatheredPrefix(t *testing.T) {
	const n, keys = 60000, 15000
	r := stats.NewRNG(91)
	ci := make([]int64, n)
	cf := make([]float64, n)
	cs := make([]string, n)
	m := make([]float64, n)
	for i := 0; i < n; i++ {
		ci[i] = int64(r.Intn(1000))
		cf[i] = r.Float64() * 1000
		cs[i] = fmt.Sprintf("key%05d", r.Intn(keys))
		m[i] = 1
	}
	tbl := engine.MustNewTable("t",
		engine.NewIntColumn("ci", ci), engine.NewFloatColumn("cf", cf),
		engine.NewStringColumn("cs", cs), engine.NewFloatColumn("m", m))
	queries := []engine.Query{
		{Func: engine.Sum, Col: "m", Ranges: []engine.Range{{Col: "ci", Lo: 200, Hi: 700}}},
		{Func: engine.Sum, Col: "m", Ranges: []engine.Range{{Col: "cf", Lo: 123.5, Hi: 612.25}}},
		// The upper half of the keys by rank: about n/2 rows.
		{Func: engine.Sum, Col: "m", Ranges: []engine.Range{{Col: "cs", Lo: keys / 2, Hi: keys - 1}}},
	}
	pg, err := NewProgressive(tbl, nil, 0.95, 92)
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 4; round++ {
		size := pg.Step(3000)
		prefix := pg.perm[:size]
		invP := make([]float64, size)
		for i := range invP {
			invP[i] = n
		}
		ref := &Processor{Confidence: 0.95, Sample: &sample.Sample{
			Kind: sample.Uniform, Table: tbl.Gather("prefix", prefix), SourceRows: n, InvP: invP,
		}}
		for _, q := range queries {
			got, err := pg.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			if !stats.ExactEqual(got.Estimate.Value, want.Estimate.Value) ||
				!stats.ExactEqual(got.Estimate.HalfWidth, want.Estimate.HalfWidth) {
				t.Errorf("round %d %v: progressive %v ± %v, gathered prefix %v ± %v", round, q,
					got.Estimate.Value, got.Estimate.HalfWidth, want.Estimate.Value, want.Estimate.HalfWidth)
			}
			if got.Estimate.Value <= 0 || got.Estimate.HalfWidth <= 0 {
				t.Errorf("round %d %v: answered %v ± %v on a selection of about half the rows",
					round, q, got.Estimate.Value, got.Estimate.HalfWidth)
			}
		}
	}
}
