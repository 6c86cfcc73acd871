package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// nonFiniteTable is 5,000 rows with a float dimension f, an int
// dimension k and a float measure a, with the given measure values
// planted at random rows.
func nonFiniteTable(planted []float64, r *stats.RNG) *engine.Table {
	const n = 5000
	f, k, a := make([]float64, n), make([]int64, n), make([]float64, n)
	for i := range a {
		f[i] = math.Floor(r.Float64()*1000) / 4
		k[i] = int64(r.Intn(200))
		a[i] = 10 + 90*r.Float64()
	}
	for _, v := range planted {
		a[r.Intn(n)] = v
	}
	return engine.MustNewTable("t", engine.NewFloatColumn("f", f), engine.NewIntColumn("k", k), engine.NewFloatColumn("a", a))
}

// TestNonFiniteMeasuresMatchScan reproduces ROADMAP item 16's table (c):
// with a 100 % uniform sample the unification property (§4.2.1) makes
// the exact scan an oracle for every approximate answer, so on a table
// holding a +Inf (or NaN) measure row, SUM, COUNT and AVG must equal
// the scan within 1e-9 relative — +Inf where it answers +Inf, NaN where
// it answers NaN — and MIN/MAX, served exactly by the extrema index,
// must equal it. A pre whose pre(D) is not finite is answered as φ, so
// no answer subtracts infinities; an exact pre is still taken wherever
// its pre(D) is finite.
func TestNonFiniteMeasuresMatchScan(t *testing.T) {
	ctx := context.Background()
	for _, planted := range [][]float64{{math.Inf(1)}, {math.NaN(), math.NaN()}} {
		t.Run(fmt.Sprint(planted), func(t *testing.T) {
			r := stats.NewRNG(0xc0ffee)
			tbl := nonFiniteTable(planted, r)
			p, _, err := Build(ctx, tbl, BuildConfig{
				Template:   cube.Template{Agg: "a", Dims: []string{"f", "k"}},
				SampleRate: 1, CellBudget: 200, Seed: 3,
				WithCountCube: true, WithMinMax: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			nonFinite, identified := 0, 0
			for trial := 0; trial < 300; trial++ {
				lf, lk := math.Floor(r.Float64()*1000)/4, float64(r.Intn(200))
				ranges := []engine.Range{
					{Col: "f", Lo: lf, Hi: lf + math.Floor(r.Float64()*600)/4},
					{Col: "k", Lo: lk, Hi: lk + float64(r.Intn(150))},
				}
				funcs := []engine.AggFunc{engine.Sum, engine.Count, engine.Avg}
				if trial%2 == 0 {
					// The extrema indexes cover one dimension each.
					ranges = ranges[:1]
					funcs = append(funcs, engine.Min, engine.Max)
				}
				for _, f := range funcs {
					q := engine.Query{Func: f, Col: "a", Ranges: ranges}
					truth, err := tbl.Execute(ctx, q)
					if err != nil {
						t.Fatal(err)
					}
					if f == engine.Count && truth.Value == 0 {
						break // an empty selection: nothing to compare
					}
					ans, err := p.Answer(q)
					if err != nil {
						t.Fatalf("%v: %v", q, err)
					}
					got, want := ans.Estimate.Value, truth.Value
					switch {
					case math.IsNaN(want) || math.IsInf(want, 0):
						nonFinite++
						if !(math.IsNaN(want) && math.IsNaN(got)) && got != want {
							t.Fatalf("%v = %v (pre %v, pre(D) %v), scan %v", q, got, ans.Pre, ans.PreValue, want)
						}
					case !stats.ApproxEqual(got, want, 1e-9):
						t.Fatalf("%v = %v (pre %v, pre(D) %v), scan %v", q, got, ans.Pre, ans.PreValue, want)
					}
					if !ans.Pre.IsPhi() {
						identified++
					}
				}
			}
			// The draws must reach both sides: non-finite truths, and
			// answers anchored on a pre.
			if nonFinite < 10 || identified < 50 {
				t.Errorf("%d non-finite truths, %d answers with a pre", nonFinite, identified)
			}
		})
	}
}
