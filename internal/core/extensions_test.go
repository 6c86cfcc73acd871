package core

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// --- Bootstrap answers (§4.2.2) ---

func TestAnswerBootstrapMatchesClosedForm(t *testing.T) {
	tbl := testTable(30000, 70)
	p := buildProcessor(t, tbl, []string{"c1"}, 20)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 13, Hi: 67}}}
	closed, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := p.AnswerBootstrap(context.Background(), q, 300, 71, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(boot.Estimate.Value-closed.Estimate.Value) > 1e-6*math.Abs(closed.Estimate.Value)+1e-9 {
		t.Errorf("bootstrap point %v != closed %v", boot.Estimate.Value, closed.Estimate.Value)
	}
	// Intervals agree within a modest factor (unless both are ~exact).
	if closed.Estimate.HalfWidth > 0 {
		ratio := boot.Estimate.HalfWidth / closed.Estimate.HalfWidth
		if ratio < 0.5 || ratio > 2 {
			t.Errorf("bootstrap ε %v vs closed ε %v", boot.Estimate.HalfWidth, closed.Estimate.HalfWidth)
		}
	}

	// A stratified sample is resampled within its strata, the fixed-n_h
	// design stratifiedSum's variance assumes. At a 5 % sampling
	// fraction its finite-population correction is small, and the two
	// half-widths agree closely.
	s, err := sample.NewStratified(tbl, []string{"g"}, 0.05, 30, 72)
	if err != nil {
		t.Fatal(err)
	}
	strat := &Processor{Sample: s}
	closed, err = strat.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	boot, err = strat.AnswerBootstrap(context.Background(), q, 2000, 73, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := boot.Estimate.HalfWidth / closed.Estimate.HalfWidth; !(ratio >= 0.8 && ratio <= 1.25) {
		t.Errorf("stratified: bootstrap ε %v vs closed ε %v", boot.Estimate.HalfWidth, closed.Estimate.HalfWidth)
	}
}

func TestAnswerBootstrapRejects(t *testing.T) {
	tbl := testTable(2000, 72)
	p := buildProcessor(t, tbl, []string{"c1"}, 5)
	if _, err := p.AnswerBootstrap(context.Background(), engine.Query{Func: engine.Avg, Col: "a"}, 10, 1, nil); err == nil {
		t.Error("AVG accepted")
	}
	if _, err := p.AnswerBootstrap(context.Background(), engine.Query{Func: engine.Sum, Col: "a", GroupBy: []string{"g"}}, 10, 1, nil); err == nil {
		t.Error("GROUP BY accepted")
	}
}

// TestAnswerBootstrapOtherAggregateIsPlainAQP: a SUM over a column the
// cube does not aggregate has no cube anchor, as in Answer — the
// bootstrap answers it exactly as a processor without the cube does.
// It used to identify a pre on the cube and add the cube aggregate's
// pre(D) to a sum of another column.
func TestAnswerBootstrapOtherAggregateIsPlainAQP(t *testing.T) {
	tbl := testTable(20000, 74)
	p := buildProcessor(t, tbl, []string{"c1"}, 20)
	plain := &Processor{Sample: p.Sample, Sub: p.Sub, Confidence: p.Confidence}
	q := engine.Query{Func: engine.Sum, Col: "c2",
		Ranges: []engine.Range{{Col: "c1", Lo: 20, Hi: 70}}}
	got, err := p.AnswerBootstrap(context.Background(), q, 100, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := plain.AnswerBootstrap(context.Background(), q, 100, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Pre.IsPhi() || got.PreValue != 0 || got.Estimate != want.Estimate {
		t.Errorf("SUM(c2) on a SUM(a) cube: %+v (pre %v, pre(D) %v), plain AQP %+v",
			got.Estimate, got.Pre, got.PreValue, want.Estimate)
	}
	closed, err := p.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ExactEqual(got.Estimate.Value, closed.Estimate.Value) {
		t.Errorf("bootstrap point %v, Answer %v", got.Estimate.Value, closed.Estimate.Value)
	}
}

func TestAnswerBootstrapDeterministic(t *testing.T) {
	tbl := testTable(5000, 73)
	p := buildProcessor(t, tbl, []string{"c1"}, 10)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 20, Hi: 70}}}
	a, err := p.AnswerBootstrap(context.Background(), q, 50, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.AnswerBootstrap(context.Background(), q, 50, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Estimate != b.Estimate {
		t.Errorf("same seed gave %+v and %+v", a.Estimate, b.Estimate)
	}
}
