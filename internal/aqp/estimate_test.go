package aqp

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// buildTable builds a deterministic table with a key, a value correlated
// with the key, and a small group column.
func buildTable(n int, seed uint64) *engine.Table {
	r := stats.NewRNG(seed)
	keys := make([]int64, n)
	vals := make([]float64, n)
	grp := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = int64(r.Intn(1000) + 1)
		vals[i] = 50 + 0.1*float64(keys[i]) + 10*r.NormFloat64()
		if i%3 == 0 {
			grp[i] = "a"
		} else {
			grp[i] = "b"
		}
	}
	return engine.MustNewTable("t",
		engine.NewIntColumn("k", keys),
		engine.NewFloatColumn("v", vals),
		engine.NewStringColumn("g", grp),
	)
}

func TestEstimateSumCloseToTruth(t *testing.T) {
	tbl := buildTable(50000, 1)
	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 100, Hi: 400}}}
	truth, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sample.NewUniform(tbl, 0.05, 42)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateQuery(s, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-truth.Value) > 3*est.HalfWidth/1.96*4 {
		t.Errorf("estimate %v too far from truth %v (ε=%v)", est.Value, truth.Value, est.HalfWidth)
	}
	if est.HalfWidth <= 0 {
		t.Error("zero half-width for a nontrivial query")
	}
	if est.Low() >= est.High() {
		t.Error("degenerate interval")
	}
}

func TestEstimateCount(t *testing.T) {
	tbl := buildTable(20000, 2)
	q := engine.Query{Func: engine.Count, Ranges: []engine.Range{{Col: "k", Lo: 1, Hi: 500}}}
	truth, _ := tbl.Execute(context.Background(), q)
	s, _ := sample.NewUniform(tbl, 0.1, 7)
	est, err := EstimateQuery(s, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est.Value-truth.Value) / truth.Value; rel > 0.1 {
		t.Errorf("COUNT estimate off by %v", rel)
	}
}

func TestCoverageCalibration(t *testing.T) {
	// The 95% CI should cover the truth close to 95% of the time; we
	// tolerate [85%, 100%] over 100 trials to keep the test fast and
	// non-flaky.
	tbl := buildTable(20000, 4)
	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 200, Hi: 700}}}
	truth, _ := tbl.Execute(context.Background(), q)
	covered := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		s, err := sample.NewUniform(tbl, 0.02, uint64(1000+i))
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateQuery(s, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if est.Low() <= truth.Value && truth.Value <= est.High() {
			covered++
		}
	}
	if covered < 85 {
		t.Errorf("95%% CI covered truth in %d/%d trials", covered, trials)
	}
}

func TestUnbiasednessAcrossSeeds(t *testing.T) {
	// Lemma 2's premise: the plain AQP estimator is unbiased. Average the
	// estimate over many independent samples and compare to the truth.
	tbl := buildTable(10000, 5)
	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 1, Hi: 300}}}
	truth, _ := tbl.Execute(context.Background(), q)
	var mean stats.Moments
	for i := 0; i < 60; i++ {
		s, _ := sample.NewUniform(tbl, 0.02, uint64(2000+i))
		est, _ := EstimateQuery(s, q, 0.95)
		mean.Add(est.Value)
	}
	if rel := math.Abs(mean.Mean()-truth.Value) / truth.Value; rel > 0.03 {
		t.Errorf("mean estimate off truth by %v; estimator looks biased", rel)
	}
}

func TestMeasureBiasedEstimator(t *testing.T) {
	tbl := buildTable(30000, 6)
	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 100, Hi: 600}}}
	truth, _ := tbl.Execute(context.Background(), q)
	s, err := sample.NewMeasureBiased(tbl, "v", 0.05, 9)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateQuery(s, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est.Value-truth.Value) / truth.Value; rel > 0.1 {
		t.Errorf("measure-biased estimate off by %v", rel)
	}
}

func TestStratifiedEstimator(t *testing.T) {
	tbl := buildTable(30000, 7)
	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 100, Hi: 600}}}
	truth, _ := tbl.Execute(context.Background(), q)
	s, err := sample.NewStratified(tbl, []string{"g"}, 0.05, 50, 11)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateQuery(s, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est.Value-truth.Value) / truth.Value; rel > 0.1 {
		t.Errorf("stratified estimate off by %v", rel)
	}
	if est.HalfWidth <= 0 {
		t.Error("stratified half-width zero")
	}
}

func TestStratifiedFullySampledStratumExact(t *testing.T) {
	// A fully sampled stratum must contribute zero variance; with every
	// stratum fully sampled, the estimate is exact and ε = 0.
	tbl := buildTable(500, 8)
	s, err := sample.NewStratified(tbl, []string{"g"}, 1.0, 1, 12)
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 1, Hi: 1000}}}
	truth, _ := tbl.Execute(context.Background(), q)
	est, err := EstimateQuery(s, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Value-truth.Value) > 1e-6*math.Abs(truth.Value) {
		t.Errorf("full sample estimate %v != truth %v", est.Value, truth.Value)
	}
	if est.HalfWidth != 0 {
		t.Errorf("full sample ε = %v, want 0", est.HalfWidth)
	}
}

func TestEstimateAvg(t *testing.T) {
	tbl := buildTable(40000, 9)
	q := engine.Query{Func: engine.Avg, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 100, Hi: 800}}}
	truth, _ := tbl.Execute(context.Background(), q)
	s, _ := sample.NewUniform(tbl, 0.05, 13)
	est, err := EstimateQuery(s, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est.Value-truth.Value) / truth.Value; rel > 0.05 {
		t.Errorf("AVG estimate off by %v", rel)
	}
	if est.HalfWidth <= 0 || est.HalfWidth > truth.Value {
		t.Errorf("AVG ε = %v implausible", est.HalfWidth)
	}
}

func TestEstimateAvgEmptyCondition(t *testing.T) {
	tbl := buildTable(1000, 10)
	s, _ := sample.NewUniform(tbl, 0.1, 14)
	q := engine.Query{Func: engine.Avg, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 5000, Hi: 6000}}}
	est, err := EstimateQuery(s, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if est.Value != 0 || est.HalfWidth != 0 {
		t.Errorf("empty AVG = %+v, want zero estimate", est)
	}
}

func TestEstimateQueryDispatch(t *testing.T) {
	tbl := buildTable(1000, 11)
	s, _ := sample.NewUniform(tbl, 0.2, 15)
	for _, f := range []engine.AggFunc{engine.Sum, engine.Count, engine.Avg} {
		if _, err := EstimateQuery(s, engine.Query{Func: f, Col: "v"}, 0.95); err != nil {
			t.Errorf("%v: %v", f, err)
		}
	}
	if _, err := EstimateQuery(s, engine.Query{Func: engine.Min, Col: "v"}, 0.95); err == nil {
		t.Error("MIN accepted by EstimateQuery")
	}
	if _, err := EstimateQuery(s, engine.Query{Func: engine.Sum, Col: "v", GroupBy: []string{"g"}}, 0.95); err == nil {
		t.Error("GROUP BY accepted by EstimateQuery")
	}
}

func TestConditionVectorValues(t *testing.T) {
	tbl := engine.MustNewTable("t",
		engine.NewIntColumn("k", []int64{1, 2, 3, 4}),
		engine.NewFloatColumn("v", []float64{10, 20, 30, 40}),
	)
	s, _ := sample.NewUniform(tbl, 1.0, 1)
	l, err := ConditionLane(s, engine.Query{Func: engine.Sum, Col: "v",
		Ranges: []engine.Range{{Col: "k", Lo: 2, Hi: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	// The full-rate sample preserves row order (indices sorted): rows 1
	// and 2 are selected, a_i is read from v, and nothing is subtracted.
	if len(l.Plus) != 1 || l.Plus[0] != 0b0110 || l.Minus != nil || l.Col != tbl.MustColumn("v") && l.Col.Floats[1] != 20 {
		t.Errorf("ConditionLane = %+v", l)
	}
	if l.Col == nil || l.Col.Float(1) != 20 || l.Col.Float(2) != 30 {
		t.Errorf("ConditionLane measure = %+v", l.Col)
	}
	cl, err := ConditionLane(s, engine.Query{Func: engine.Count, Ranges: []engine.Range{{Col: "k", Lo: 2, Hi: 3}}})
	if err != nil || cl.Col != nil || cl.Plus[0] != 0b0110 {
		t.Errorf("COUNT ConditionLane = %+v, %v", cl, err)
	}
}

func TestRelativeError(t *testing.T) {
	e := Estimate{Value: 100, HalfWidth: 5}
	if got := e.RelativeError(50); got != 0.1 {
		t.Errorf("RelativeError = %v", got)
	}
	if got := e.RelativeError(0); !math.IsInf(got, 1) {
		t.Errorf("RelativeError(0) = %v", got)
	}
	zero := Estimate{}
	if got := zero.RelativeError(0); got != 0 {
		t.Errorf("zero/zero RelativeError = %v", got)
	}
}

func TestStratifiedCoverageCalibration(t *testing.T) {
	// The stratified CI should also cover the truth ~95% of the time.
	tbl := buildTable(20000, 40)
	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 200, Hi: 700}}}
	truth, _ := tbl.Execute(context.Background(), q)
	covered := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		s, err := sample.NewStratified(tbl, []string{"g"}, 0.02, 50, uint64(3000+i))
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateQuery(s, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if est.Low() <= truth.Value && truth.Value <= est.High() {
			covered++
		}
	}
	if covered < trials*80/100 {
		t.Errorf("stratified 95%% CI covered truth in %d/%d trials", covered, trials)
	}
}

func TestMeasureBiasedCoverageCalibration(t *testing.T) {
	tbl := buildTable(20000, 41)
	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 100, Hi: 600}}}
	truth, _ := tbl.Execute(context.Background(), q)
	covered := 0
	const trials = 60
	for i := 0; i < trials; i++ {
		s, err := sample.NewMeasureBiased(tbl, "v", 0.02, uint64(4000+i))
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateQuery(s, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if est.Low() <= truth.Value && truth.Value <= est.High() {
			covered++
		}
	}
	if covered < trials*80/100 {
		t.Errorf("measure-biased 95%% CI covered truth in %d/%d trials", covered, trials)
	}
}
