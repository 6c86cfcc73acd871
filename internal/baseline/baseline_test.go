package baseline

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

func testTable(n int, seed uint64) *engine.Table {
	r := stats.NewRNG(seed)
	c1 := make([]int64, n)
	c2 := make([]int64, n)
	a := make([]float64, n)
	for i := 0; i < n; i++ {
		c1[i] = int64(r.Intn(50) + 1)
		c2[i] = int64(r.Intn(20) + 1)
		a[i] = 100 + 2*float64(c1[i]) + 10*r.NormFloat64()
	}
	return engine.MustNewTable("t",
		engine.NewIntColumn("c1", c1),
		engine.NewIntColumn("c2", c2),
		engine.NewFloatColumn("a", a),
	)
}

func TestFullCubeCells(t *testing.T) {
	tbl := testTable(5000, 3)
	cells, err := FullCubeCells(tbl, cube.Template{Agg: "a", Dims: []string{"c1", "c2"}})
	if err != nil {
		t.Fatal(err)
	}
	if cells != 50*20 {
		t.Errorf("cells = %d, want 1000", cells)
	}
	if _, err := FullCubeCells(tbl, cube.Template{Agg: "a", Dims: []string{"nope"}}); err == nil {
		t.Error("missing column accepted")
	}
}

func TestAPACalibrationSatisfiesFacts(t *testing.T) {
	tbl := testTable(20000, 4)
	s, err := sample.NewUniform(tbl, 0.05, 7)
	if err != nil {
		t.Fatal(err)
	}
	apa, err := NewAPA(context.Background(), tbl, s, APAConfig{
		Measure: "a", Dims: []string{"c1"}, FactsPerDim: 8, Resamples: 10, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The calibrated weights must reproduce every fact exactly.
	for _, fa := range apa.facts {
		q := engine.Query{Func: engine.Sum, Col: "a",
			Ranges: []engine.Range{{Col: fa.dim, Lo: fa.lo, Hi: fa.hi}}}
		got, err := apa.estimateWith(apa.s, apa.weights, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-fa.value) > 1e-4*math.Max(math.Abs(fa.value), 1) {
			t.Errorf("fact [%v,%v]: calibrated %v != exact %v", fa.lo, fa.hi, got, fa.value)
		}
	}
}

func TestAPAImprovesOnPlainAQPForFactAlignedQueries(t *testing.T) {
	tbl := testTable(30000, 5)
	s, _ := sample.NewUniform(tbl, 0.03, 11)
	apa, err := NewAPA(context.Background(), tbl, s, APAConfig{
		Measure: "a", Dims: []string{"c1"}, FactsPerDim: 10, Resamples: 30, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// A query spanning whole fact blocks is answered (nearly) exactly.
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 1, Hi: 25}}}
	truth, _ := tbl.Execute(context.Background(), q)
	est, err := apa.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est.Value-truth.Value) / truth.Value; rel > 0.02 {
		t.Errorf("fact-aligned APA answer off by %v", rel)
	}
}

func TestAPAAnswerGeneralQuery(t *testing.T) {
	tbl := testTable(30000, 6)
	s, _ := sample.NewUniform(tbl, 0.05, 15)
	apa, err := NewAPA(context.Background(), tbl, s, APAConfig{
		Measure: "a", Dims: []string{"c1"}, FactsPerDim: 8, Resamples: 20, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 13, Hi: 37}}}
	truth, _ := tbl.Execute(context.Background(), q)
	est, err := apa.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(est.Value-truth.Value) / truth.Value; rel > 0.1 {
		t.Errorf("APA answer off by %v", rel)
	}
	if est.HalfWidth <= 0 {
		t.Error("APA interval empty")
	}
}

func TestAPAValidation(t *testing.T) {
	tbl := testTable(1000, 7)
	s, _ := sample.NewUniform(tbl, 0.1, 19)
	if _, err := NewAPA(context.Background(), tbl, s, APAConfig{Measure: "a"}); err == nil {
		t.Error("no dims accepted")
	}
	if _, err := NewAPA(context.Background(), tbl, s, APAConfig{Measure: "nope", Dims: []string{"c1"}}); err == nil {
		t.Error("bad measure accepted")
	}
	mb, _ := sample.NewMeasureBiased(tbl, "a", 0.1, 21)
	if _, err := NewAPA(context.Background(), tbl, mb, APAConfig{Measure: "a", Dims: []string{"c1"}}); err == nil {
		t.Error("non-uniform sample accepted")
	}
	apa, err := NewAPA(context.Background(), tbl, s, APAConfig{Measure: "a", Dims: []string{"c1"}, Resamples: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apa.Answer(engine.Query{Func: engine.Count}); err == nil {
		t.Error("COUNT accepted")
	}
}
