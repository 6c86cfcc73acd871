package aqp

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

func TestBootstrapSumAgreesWithClosedForm(t *testing.T) {
	tbl := buildTable(20000, 20)
	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 100, Hi: 500}}}
	s, _ := sample.NewUniform(tbl, 0.05, 21)
	closed, err := EstimateSum(s, q, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	boot, err := Bootstrap(context.Background(), s, q, 0.95, 300, 22)
	if err != nil {
		t.Fatal(err)
	}
	if boot.Value != closed.Value {
		t.Errorf("bootstrap point %v != closed form %v", boot.Value, closed.Value)
	}
	// The widths should agree within a modest factor.
	ratio := boot.HalfWidth / closed.HalfWidth
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("bootstrap ε %v vs closed-form ε %v (ratio %v)", boot.HalfWidth, closed.HalfWidth, ratio)
	}
}

func TestBootstrapVar(t *testing.T) {
	tbl := buildTable(20000, 23)
	q := engine.Query{Func: engine.Var, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 1, Hi: 800}}}
	truth, _ := tbl.Execute(context.Background(), q)
	s, _ := sample.NewUniform(tbl, 0.05, 24)
	boot, err := Bootstrap(context.Background(), s, q, 0.95, 200, 25)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(boot.Value-truth.Value) / truth.Value; rel > 0.15 {
		t.Errorf("VAR plug-in off by %v", rel)
	}
	if boot.HalfWidth <= 0 {
		t.Error("VAR bootstrap ε = 0")
	}
}

func TestBootstrapRejectsGroupBy(t *testing.T) {
	tbl := buildTable(100, 26)
	s, _ := sample.NewUniform(tbl, 0.5, 27)
	q := engine.Query{Func: engine.Sum, Col: "v", GroupBy: []string{"g"}}
	if _, err := Bootstrap(context.Background(), s, q, 0.95, 10, 1); err == nil {
		t.Error("GROUP BY accepted")
	}
}

// gatherAll is the bootstrap resample as it was before resampleRows
// gathered only the query's columns: every sample column at idx, with
// weights and stratum labels carried along.
func gatherAll(s *sample.Sample, idx []int) *sample.Sample {
	out := &sample.Sample{Kind: s.Kind, Table: s.Table.Gather(s.Table.Name+"_boot", idx), SourceRows: s.SourceRows}
	if s.InvP != nil {
		out.InvP = make([]float64, len(idx))
		for i, j := range idx {
			out.InvP[i] = s.InvP[j]
		}
	}
	if s.Strata != nil {
		out.Strata = append([]sample.Stratum(nil), s.Strata...)
		for i := range out.Strata {
			out.Strata[i].SampleRows = 0
		}
		out.StratumOf = make([]int, len(idx))
		for i, j := range idx {
			out.StratumOf[i] = s.StratumOf[j]
			out.Strata[s.StratumOf[j]].SampleRows++
		}
	}
	return out
}

// bootstrapOracle is Bootstrap with every replicate a full-table gather.
func bootstrapOracle(s *sample.Sample, q engine.Query, confidence float64, resamples int, seed uint64) (Estimate, error) {
	ctx := context.Background()
	plug, err := plugInEstimate(ctx, s, q)
	if err != nil {
		return Estimate{}, err
	}
	n := s.Size()
	r := stats.NewRNG(seed)
	reps := make([]float64, 0, resamples)
	idx := make([]int, n)
	for rep := 0; rep < resamples; rep++ {
		for i := range idx {
			idx[i] = r.Intn(n)
		}
		v, err := plugInEstimate(ctx, gatherAll(s, idx), q)
		if err != nil {
			return Estimate{}, err
		}
		reps = append(reps, v)
	}
	alpha := (1 - confidence) / 2
	lo, hi := stats.Quantile(reps, alpha), stats.Quantile(reps, 1-alpha)
	return Estimate{Value: plug, HalfWidth: (hi - lo) / 2, Confidence: confidence, SampleRows: n}, nil
}

// TestBootstrapEquivalence holds Bootstrap, whose resamples gather only
// the columns the query reads, to the full-table gather: SUM, COUNT (with
// and without a column or ranges), AVG, VAR, MIN and MAX over all three
// samplers, bit for bit.
func TestBootstrapEquivalence(t *testing.T) {
	tbl := buildTable(6000, 30)
	samples := map[sample.Kind]*sample.Sample{}
	var err error
	if samples[sample.Uniform], err = sample.NewUniform(tbl, 0.05, 31); err != nil {
		t.Fatal(err)
	}
	if samples[sample.MeasureBiased], err = sample.NewMeasureBiased(tbl, "v", 0.05, 32); err != nil {
		t.Fatal(err)
	}
	if samples[sample.Stratified], err = sample.NewStratified(tbl, []string{"g"}, 0.05, 20, 33); err != nil {
		t.Fatal(err)
	}
	keys := engine.Range{Col: "k", Lo: 200, Hi: 700}
	queries := []engine.Query{
		{Func: engine.Sum, Col: "v", Ranges: []engine.Range{keys}},
		{Func: engine.Count, Ranges: []engine.Range{keys}},
		{Func: engine.Count},
		{Func: engine.Avg, Col: "v", Ranges: []engine.Range{keys}},
		{Func: engine.Var, Col: "v", Ranges: []engine.Range{keys}},
		{Func: engine.Var, Col: "k", Ranges: []engine.Range{keys, {Col: "v", Lo: 40, Hi: 140}}},
		{Func: engine.Min, Col: "v", Ranges: []engine.Range{keys}},
		{Func: engine.Max, Col: "v", Ranges: []engine.Range{keys}},
	}
	for _, kind := range []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified} {
		s := samples[kind]
		for i, q := range queries {
			seed := uint64(40 + i)
			got, err := Bootstrap(context.Background(), s, q, 0.9, 30, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := bootstrapOracle(s, q, 0.9, 30, seed)
			if err != nil {
				t.Fatal(err)
			}
			if !sameEstimate(got, want) {
				t.Errorf("%v %v: Bootstrap = %+v, full-gather oracle %+v", kind, q, got, want)
			}
			if q.Func != engine.Count && got.HalfWidth == 0 {
				t.Errorf("%v %v: zero-width interval says nothing", kind, q)
			}
		}
	}
}

// TestResampledKernelsEquivalence holds the bootstrap's gather-free
// replicate kernels to SumOfValues over the gathered resample: every
// lane of ResampledMeans for one to Lanes index vectors, and
// ResampledStratifiedSum, bit for bit on hostile values.
func TestResampledKernelsEquivalence(t *testing.T) {
	r := stats.NewRNG(0xb0b)
	for _, kind := range []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified} {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 3000} {
			s := equivalenceSample(kind, n, r)
			for lanes := 1; lanes <= Lanes; lanes++ {
				vals := equivalenceValues(n, r)
				idx := make([][]int, lanes)
				for l := range idx {
					idx[l] = make([]int, n)
					for i := range idx[l] {
						idx[l][i] = r.Intn(n)
					}
				}
				var got [Lanes]float64
				if kind == sample.Stratified {
					sums, counts := make([]float64, len(s.Strata)), make([]int64, len(s.Strata))
					for l, ix := range idx {
						got[l] = ResampledStratifiedSum(s, vals, ix, sums, counts)
					}
				} else {
					xs := make([]float64, n)
					PseudoValues(s, vals, xs)
					got = ResampledMeans(xs, idx)
				}
				for l, ix := range idx {
					rvals := make([]float64, n)
					for i, j := range ix {
						rvals[i] = vals[j]
					}
					if want := SumOfValues(gatherAll(s, ix), rvals, 0.95).Value; !sameBits(got[l], want) {
						t.Fatalf("%v n=%d lanes=%d lane %d: %v, gathered SumOfValues %v", kind, n, lanes, l, got[l], want)
					}
				}
			}
		}
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	tbl := buildTable(2000, 28)
	s, _ := sample.NewUniform(tbl, 0.1, 29)
	q := engine.Query{Func: engine.Sum, Col: "v"}
	a, _ := Bootstrap(context.Background(), s, q, 0.95, 50, 7)
	b, _ := Bootstrap(context.Background(), s, q, 0.95, 50, 7)
	if a != b {
		t.Errorf("same seed gave %+v and %+v", a, b)
	}
}
