package core

import (
	"context"
	"testing"

	"aqppp/internal/aqp"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// TestAnswerNeverWorseThanAQP verifies the φ-guard invariant: for every
// query, the AQP++ interval on the full sample is at most plain AQP's on
// the same sample (φ ∈ P⁺, and the final selection re-checks it).
func TestAnswerNeverWorseThanAQP(t *testing.T) {
	tbl := testTable(30000, 90)
	p, _, err := Build(context.Background(), tbl, BuildConfig{
		Template:   cube.Template{Agg: "a", Dims: []string{"c1", "c2"}},
		SampleRate: 0.05, CellBudget: 60, Seed: 91,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(92)
	for trial := 0; trial < 80; trial++ {
		lo1 := float64(r.Intn(90) + 1)
		hi1 := lo1 + float64(r.Intn(20))
		lo2 := float64(r.Intn(30) + 1)
		hi2 := lo2 + float64(r.Intn(10))
		q := engine.Query{Func: engine.Sum, Col: "a", Ranges: []engine.Range{
			{Col: "c1", Lo: lo1, Hi: hi1}, {Col: "c2", Lo: lo2, Hi: hi2},
		}}
		ans, err := p.Answer(q)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := aqp.EstimateQuery(p.Sample, q, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Estimate.HalfWidth > plain.HalfWidth+1e-9 {
			t.Fatalf("trial %d: AQP++ ε %v worse than AQP ε %v (pre %v)",
				trial, ans.Estimate.HalfWidth, plain.HalfWidth, ans.Pre)
		}
	}
}

// TestMorePartitionPointsNeverHurt verifies the monotonicity that
// underlies the k-sweep figures: growing the cube budget does not
// increase the full-sample interval for a fixed workload (up to
// identification noise, which the φ-guard and the shared sample bound).
func TestMorePartitionPointsNeverHurt(t *testing.T) {
	tbl := testTable(30000, 93)
	var prevMedian float64
	queries := make([]engine.Query, 0, 30)
	r := stats.NewRNG(94)
	for i := 0; i < 30; i++ {
		lo := float64(r.Intn(80) + 1)
		queries = append(queries, engine.Query{Func: engine.Sum, Col: "a",
			Ranges: []engine.Range{{Col: "c1", Lo: lo, Hi: lo + float64(r.Intn(20)+2)}}})
	}
	for ki, k := range []int{5, 20, 80} {
		p, _, err := Build(context.Background(), tbl, BuildConfig{
			Template:   cube.Template{Agg: "a", Dims: []string{"c1"}},
			SampleRate: 0.05, CellBudget: k, Seed: 95,
		})
		if err != nil {
			t.Fatal(err)
		}
		var widths []float64
		for _, q := range queries {
			ans, err := p.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			widths = append(widths, ans.Estimate.HalfWidth)
		}
		med := stats.Median(widths)
		if ki > 0 && med > prevMedian*1.2 {
			t.Errorf("k=%d: median ε %v grew from %v", k, med, prevMedian)
		}
		prevMedian = med
	}
}
