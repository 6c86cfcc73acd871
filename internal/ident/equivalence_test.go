package ident

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"aqppp/internal/aqp"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// oracleDiffVector is the diff vector a_i · (cond_q(i) − cond_pre(i))
// the way it was built before lanes: the query's condition row by row,
// the pre's whole box as one Filter, and a per-row membership test.
func oracleDiffVector(s *sample.Sample, c *cube.BPCube, q engine.Query, pre Pre) ([]float64, error) {
	cond, err := s.Table.Filter(q.Ranges)
	if err != nil {
		return nil, err
	}
	var col *engine.Column
	if q.Func != engine.Count {
		if col, err = s.Table.Column(q.Col); err != nil {
			return nil, err
		}
	}
	a := func(i int) float64 {
		if col == nil {
			return 1
		}
		return col.Float(i)
	}
	vals := make([]float64, s.Size())
	for i := range vals {
		if cond.Get(i) {
			vals[i] = a(i)
		}
	}
	if pre.IsPhi() {
		return vals, nil
	}
	inPre, err := s.Table.Filter(oracleBox(c, pre))
	if err != nil {
		return nil, err
	}
	for i := range vals {
		if inPre.Get(i) {
			vals[i] -= a(i)
		}
	}
	return vals, nil
}

// oracleBox is the pre's region as one d-range box.
func oracleBox(c *cube.BPCube, pre Pre) []engine.Range {
	box := make([]engine.Range, len(c.Template.Dims))
	for i, name := range c.Template.Dims {
		lo := math.Inf(-1)
		if pre.Lo[i] >= 0 {
			lo = math.Nextafter(c.Points[i][pre.Lo[i]], math.Inf(1))
		}
		box[i] = engine.Range{Col: name, Lo: lo, Hi: c.Points[i][pre.Hi[i]]}
	}
	return box
}

// denseLane expands a lane into its per-row values: a_i on Plus alone,
// 0 − a_i on Minus alone (what subtracting a_i from an unselected row
// gives), 0 elsewhere.
func denseLane(l aqp.Lane, n int) []float64 {
	in := func(sel []uint64, i int) bool { return sel != nil && sel[i>>6]&(1<<(uint(i)&63)) != 0 }
	vals := make([]float64, n)
	for i := range vals {
		a := 1.0
		if l.Col != nil {
			a = l.Col.Float(i)
		}
		switch plus, minus := in(l.Plus, i), in(l.Minus, i); {
		case plus && !minus:
			vals[i] = a
		case minus && !plus:
			vals[i] = 0 - a
		}
	}
	return vals
}

// oracleBest is the per-candidate scoring loop SelectBest and
// BruteForceBest used to run, on the support kernel: per candidate, a
// fresh condition lane, the pre's whole box as one Filter for Minus,
// and a fresh Estimator, keeping the first strict minimum.
func oracleBest(s *sample.Sample, c *cube.BPCube, q engine.Query, cands []Pre, conf float64) (Selection, error) {
	best := Selection{Considered: len(cands)}
	for k, pre := range cands {
		l, err := aqp.ConditionLane(s, q)
		if err != nil {
			return Selection{}, err
		}
		if !pre.IsPhi() {
			inPre, err := s.Table.Filter(oracleBox(c, pre))
			if err != nil {
				return Selection{}, err
			}
			l.Minus = inPre.Words()
		}
		e := aqp.NewEstimator(s, conf)
		est, _ := e.Total(l)
		if k == 0 || est.HalfWidth < best.SubsampleError {
			best.Pre = pre
			best.SubsampleError = est.HalfWidth
		}
	}
	return best, nil
}

// allPre enumerates P⁺ in BruteForceBest's order: φ, then every (u, v)
// pair per dimension, the last dimension varying fastest.
func allPre(c *cube.BPCube) []Pre {
	out := []Pre{{Phi: true}}
	d := c.Dims()
	lo, hi := make([]int, d), make([]int, d)
	var rec func(i int)
	rec = func(i int) {
		if i == d {
			out = append(out, Pre{Lo: slices.Clone(lo), Hi: slices.Clone(hi)})
			return
		}
		for u := -1; u < len(c.Points[i]); u++ {
			for v := u + 1; v < len(c.Points[i]); v++ {
				lo[i], hi[i] = u, v
				rec(i + 1)
			}
		}
	}
	rec(0)
	return out
}

func samePre(a, b Pre) bool {
	return a.Phi == b.Phi && slices.Equal(a.Lo, b.Lo) && slices.Equal(a.Hi, b.Hi)
}

func sameSelection(a, b Selection) bool {
	bitsEqual := math.Float64bits(a.SubsampleError) == math.Float64bits(b.SubsampleError) ||
		(math.IsNaN(a.SubsampleError) && math.IsNaN(b.SubsampleError))
	return samePre(a.Pre, b.Pre) && bitsEqual && a.Considered == b.Considered
}

// equivalenceTable has three integer dimensions of different widths, a
// string dimension, a non-cube column x, a group column for strata, and
// a measure that is sometimes negative (never drawn by the
// measure-biased sampler, which is what it does with such rows).
func equivalenceTable(n int, r *stats.RNG) *engine.Table {
	c1, c2, c3, x := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	s, g := make([]string, n), make([]string, n)
	a := make([]float64, n)
	for i := 0; i < n; i++ {
		c1[i] = int64(r.Intn(100) + 1)
		c2[i] = int64(r.Intn(30) + 1)
		c3[i] = int64(r.Intn(8))
		x[i] = int64(r.Intn(1000))
		s[i] = fmt.Sprintf("s%02d", r.Intn(20))
		g[i] = []string{"a", "b", "b", "c"}[r.Intn(4)]
		a[i] = 50 + 0.3*float64(c1[i]) + 20*r.NormFloat64()
	}
	return engine.MustNewTable("t",
		engine.NewIntColumn("c1", c1), engine.NewIntColumn("c2", c2), engine.NewIntColumn("c3", c3),
		engine.NewIntColumn("x", x), engine.NewStringColumn("s", s), engine.NewStringColumn("g", g),
		engine.NewFloatColumn("a", a),
	)
}

// equivalenceDims are the cube dimensions the randomized tests draw
// from, with each one's ordinal domain [lo, hi] (string ranks for s).
var equivalenceDims = []struct {
	name   string
	lo, hi int
}{{"c1", 1, 100}, {"c2", 1, 30}, {"c3", 0, 7}, {"s", 0, 19}}

// randomCube builds a cube over d distinct random dimensions with 2–6
// random, strictly ascending partition points each.
func randomCube(t *testing.T, tbl *engine.Table, d int, agg string, r *stats.RNG) *cube.BPCube {
	t.Helper()
	perm := r.Perm(len(equivalenceDims))[:d]
	dims := make([]string, d)
	points := make([][]float64, d)
	for i, j := range perm {
		dim := equivalenceDims[j]
		dims[i] = dim.name
		k := 2 + r.Intn(5)
		seen := map[int]bool{}
		for len(points[i]) < k && len(seen) < dim.hi-dim.lo+1 {
			p := dim.lo + r.Intn(dim.hi-dim.lo+1)
			if !seen[p] {
				seen[p] = true
				points[i] = append(points[i], float64(p))
			}
		}
		slices.Sort(points[i])
	}
	c, err := cube.Build(tbl, cube.Template{Agg: agg, Dims: dims}, points)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// randomQuery draws ranges on a random subset of the cube's dimensions
// — endpoints on, next to, or between partition points — and sometimes
// one on the non-cube column x.
func randomQuery(c *cube.BPCube, f engine.AggFunc, r *stats.RNG) engine.Query {
	q := engine.Query{Func: f, Col: "a"}
	if f == engine.Count {
		q.Col = ""
	}
	endpoint := func(dim int, lo, hi int) float64 {
		pts := c.Points[dim]
		switch r.Intn(3) {
		case 0:
			return pts[r.Intn(len(pts))]
		case 1:
			return pts[r.Intn(len(pts))] + float64(r.Intn(3)-1)
		default:
			return float64(lo + r.Intn(hi-lo+1))
		}
	}
	for i, name := range c.Template.Dims {
		if r.Intn(4) == 0 {
			continue
		}
		var lo, hi int
		for _, d := range equivalenceDims {
			if d.name == name {
				lo, hi = d.lo, d.hi
			}
		}
		a, b := endpoint(i, lo, hi), endpoint(i, lo, hi)
		if a > b {
			a, b = b, a
		}
		q.Ranges = append(q.Ranges, engine.Range{Col: name, Lo: a, Hi: b})
	}
	if r.Intn(3) == 0 {
		lo := float64(r.Intn(900))
		q.Ranges = append(q.Ranges, engine.Range{Col: "x", Lo: lo, Hi: lo + float64(r.Intn(400))})
	}
	return q
}

// equivalenceSamples draws one sample per sampler over tbl.
func equivalenceSamples(t *testing.T, tbl *engine.Table, seed uint64) []*sample.Sample {
	t.Helper()
	u, err := sample.NewUniform(tbl, 0.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := sample.NewMeasureBiased(tbl, "a", 0.1, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sample.NewStratified(tbl, []string{"g"}, 0.1, 40, seed+2)
	if err != nil {
		t.Fatal(err)
	}
	return []*sample.Sample{u, mb, st}
}

// TestSelectBestEquivalenceRandomized holds SelectBest (shared condition
// lane and estimator, bracket bitsets) and BruteForceBest to the
// per-candidate loop they replaced: identical Pre, SubsampleError bits
// and Considered, over d = 1..3, SUM and COUNT, a string dimension,
// ranges on a non-cube column, and all three samplers.
func TestSelectBestEquivalenceRandomized(t *testing.T) {
	r := stats.NewRNG(0x1de7)
	tbl := equivalenceTable(4000, r)
	for si, s := range equivalenceSamples(t, tbl, 11) {
		sub := s.Subsample(0.4, uint64(20+si))
		for trial := 0; trial < 60; trial++ {
			d := 1 + trial%3
			f := []engine.AggFunc{engine.Sum, engine.Count}[r.Intn(2)]
			agg := "a"
			if f == engine.Count {
				agg = ""
			}
			c := randomCube(t, tbl, d, agg, r)
			q := randomQuery(c, f, r)
			for _, on := range []*sample.Sample{sub, s} {
				got, err := SelectBest(c, q, on, 0.95)
				if err != nil {
					t.Fatal(err)
				}
				cands, err := Candidates(c, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracleBest(on, c, q, cands, 0.95)
				if err != nil {
					t.Fatal(err)
				}
				if !sameSelection(got, want) {
					t.Fatalf("%v sample, dims %v, %v: SelectBest = %+v, oracle %+v", on.Kind, c.Template.Dims, q, got, want)
				}
			}
			if d > 2 {
				continue
			}
			got, err := BruteForceBest(c, q, sub, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleBest(sub, c, q, allPre(c), 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if !sameSelection(got, want) {
				t.Fatalf("%v sample, dims %v, %v: BruteForceBest = %+v, oracle %+v", sub.Kind, c.Template.Dims, q, got, want)
			}
		}
	}
}

// TestDiffVectorEquivalenceRandomized holds DiffLane's values to the
// row-at-a-time diff vector on random pres of random cubes.
func TestDiffVectorEquivalenceRandomized(t *testing.T) {
	r := stats.NewRNG(0xd1ff)
	tbl := equivalenceTable(3000, r)
	for _, s := range equivalenceSamples(t, tbl, 5) {
		for trial := 0; trial < 40; trial++ {
			f := []engine.AggFunc{engine.Sum, engine.Count}[r.Intn(2)]
			c := randomCube(t, tbl, 1+trial%3, "a", r)
			q := randomQuery(c, f, r)
			all := allPre(c)
			pre := all[r.Intn(len(all))]
			l, err := DiffLane(s, c, q, pre)
			if err != nil {
				t.Fatal(err)
			}
			got := denseLane(l, s.Size())
			want, err := oracleDiffVector(s, c, q, pre)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%v, pre %v, row %d: %v, want %v", q, pre, i, got[i], want[i])
				}
			}
		}
	}
}
