package ident

import (
	"context"
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

func buildData(n int, seed uint64) *engine.Table {
	r := stats.NewRNG(seed)
	c1 := make([]int64, n)
	c2 := make([]int64, n)
	a := make([]float64, n)
	for i := 0; i < n; i++ {
		c1[i] = int64(r.Intn(100) + 1)
		c2[i] = int64(r.Intn(50) + 1)
		a[i] = 100 + 20*r.NormFloat64()
	}
	return engine.MustNewTable("t",
		engine.NewIntColumn("c1", c1),
		engine.NewIntColumn("c2", c2),
		engine.NewFloatColumn("a", a),
	)
}

func equalPoints(k int, dom int) []float64 {
	pts := make([]float64, k)
	for i := range pts {
		pts[i] = float64((i + 1) * dom / k)
	}
	return pts
}

func TestCandidatesCount1D(t *testing.T) {
	tbl := buildData(2000, 1)
	c, err := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	if err != nil {
		t.Fatal(err)
	}
	// Paper Figure 2 analogue: both endpoints strictly inside blocks give
	// |P⁻| = 4 + 1.
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 15, Hi: 41}}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 5 {
		t.Errorf("|P⁻| = %d, want 5: %v", len(cands), cands)
	}
	if !cands[0].IsPhi() {
		t.Error("φ missing from P⁻")
	}
}

func TestCandidatesCount2D(t *testing.T) {
	tbl := buildData(3000, 2)
	c, err := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1", "c2"}},
		[][]float64{equalPoints(10, 100), equalPoints(5, 50)})
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Func: engine.Sum, Col: "a", Ranges: []engine.Range{
		{Col: "c1", Lo: 15, Hi: 41}, {Col: "c2", Lo: 12, Hi: 33},
	}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	// Up to 4^2 + 1 = 17, fewer if combinations are degenerate.
	if len(cands) > 17 || len(cands) < 10 {
		t.Errorf("|P⁻| = %d, want close to 17", len(cands))
	}
}

func TestCandidatesAlignedEndpoints(t *testing.T) {
	tbl := buildData(2000, 3)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	// Query exactly aligned to block boundaries: (10, 40] == [11, 40].
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 11, Hi: 40}}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	// One candidate must be the exactly aligned pre (1:3 in indices).
	found := false
	for _, p := range cands {
		if !p.IsPhi() && p.Lo[0] == 0 && p.Hi[0] == 3 {
			found = true
		}
	}
	if !found {
		t.Errorf("aligned pre missing from %v", cands)
	}
}

func TestCandidatesUnrestrictedDim(t *testing.T) {
	tbl := buildData(2000, 4)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1", "c2"}},
		[][]float64{equalPoints(10, 100), equalPoints(5, 50)})
	// Only c1 restricted: c2 contributes its full range to every pre.
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 15, Hi: 41}}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 5 {
		t.Errorf("|P⁻| = %d, want 5", len(cands))
	}
	for _, p := range cands {
		if p.IsPhi() {
			continue
		}
		if p.Lo[1] != -1 || p.Hi[1] != len(c.Points[1])-1 {
			t.Errorf("unrestricted dim not full-range: %v", p)
		}
	}
}

func TestCandidatesNonCubeColumnIgnored(t *testing.T) {
	tbl := buildData(2000, 5)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	q := engine.Query{Func: engine.Sum, Col: "a", Ranges: []engine.Range{
		{Col: "c1", Lo: 15, Hi: 41}, {Col: "c2", Lo: 1, Hi: 10},
	}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 5 {
		t.Errorf("|P⁻| = %d, want 5 (c2 is not a cube dim)", len(cands))
	}
}

func TestCandidatesNarrowQueryInsideOneBlock(t *testing.T) {
	tbl := buildData(2000, 6)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	// Query entirely inside block (10, 20]: l_x = l_y, some combinations
	// collapse; φ must still be there.
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 12, Hi: 18}}}
	cands, err := Candidates(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 || len(cands) > 5 {
		t.Errorf("|P⁻| = %d for in-block query", len(cands))
	}
	hasPhi := false
	for _, p := range cands {
		if p.IsPhi() {
			hasPhi = true
		}
	}
	if !hasPhi {
		t.Error("φ missing")
	}
}

func TestDiffVectorPhiEqualsConditionVector(t *testing.T) {
	tbl := buildData(2000, 7)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	s, _ := sample.NewUniform(tbl, 0.2, 9)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 15, Hi: 41}}}
	dl, err := DiffLane(s, c, q, Pre{Phi: true})
	if err != nil {
		t.Fatal(err)
	}
	cl, _ := aqp.ConditionLane(s, q)
	if !slices.Equal(dl.Plus, cl.Plus) || dl.Minus != nil || dl.Col != cl.Col {
		t.Fatalf("φ diff lane %+v != condition lane %+v", dl, cl)
	}
}

func TestDiffVectorExactPreIsZero(t *testing.T) {
	// When pre == q exactly (aligned endpoints), the diff lane selects
	// the same rows twice, so its support is empty and AQP++ answers
	// exactly (the paper's "subsumes AggPre").
	tbl := buildData(2000, 8)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	s, _ := sample.NewUniform(tbl, 0.2, 10)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 11, Hi: 40}}}
	pre := Pre{Lo: []int{0}, Hi: []int{3}}
	dl, err := DiffLane(s, c, q, pre)
	if err != nil {
		t.Fatal(err)
	}
	e := aqp.NewEstimator(s, 0.95)
	if est, support := e.Total(dl); support != 0 || est.Value != 0 || est.HalfWidth != 0 {
		t.Fatalf("exact pre: support %d, estimate %+v; want an empty diff", support, est)
	}
	// And pre.Value matches the exact answer.
	truth, _ := tbl.Execute(context.Background(), q)
	if math.Abs(pre.Value(c)-truth.Value) > 1e-9 {
		t.Errorf("pre value %v != truth %v", pre.Value(c), truth.Value)
	}
}

func TestSelectBestPrefersAlignedPre(t *testing.T) {
	tbl := buildData(5000, 11)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	s, _ := sample.NewUniform(tbl, 0.2, 12)
	sub := s.Subsample(0.25, 13)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 11, Hi: 40}}}
	sel, err := SelectBest(c, q, sub, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Pre.IsPhi() {
		t.Error("φ chosen despite an exactly aligned pre being available")
	}
	if sel.SubsampleError != 0 {
		t.Errorf("aligned pre error = %v, want 0", sel.SubsampleError)
	}
	if sel.Considered != 5 {
		t.Errorf("considered %d candidates", sel.Considered)
	}
}

func TestSelectBestBeatsPhiOnCoveredQueries(t *testing.T) {
	// A query mostly covered by a precomputed block should pick a non-φ
	// pre with a smaller estimated error than φ's.
	tbl := buildData(20000, 14)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(10, 100)})
	s, _ := sample.NewUniform(tbl, 0.1, 15)
	sub := s.Subsample(0.25, 16)
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 12, Hi: 69}}}
	sel, err := SelectBest(c, q, sub, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Pre.IsPhi() {
		t.Error("expected a non-φ selection for a block-covered query")
	}
	phiLane, _ := DiffLane(sub, c, q, Pre{Phi: true})
	e := aqp.NewEstimator(sub, 0.95)
	phiEst, _ := e.Total(phiLane)
	phiErr := phiEst.HalfWidth
	if sel.SubsampleError >= phiErr {
		t.Errorf("chosen error %v not better than φ's %v", sel.SubsampleError, phiErr)
	}
}

func TestSelectBestMatchesBruteForce(t *testing.T) {
	// Lemma 3 empirically: the P⁻ argmin equals the P⁺ argmin error on
	// the same subsample (ties may differ in identity, not in error).
	for trial := uint64(0); trial < 5; trial++ {
		tbl := buildData(5000, 20+trial)
		c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
			[][]float64{equalPoints(6, 100)})
		s, _ := sample.NewUniform(tbl, 0.1, 30+trial)
		sub := s.Subsample(0.5, 40+trial)
		r := stats.NewRNG(50 + trial)
		lo := float64(r.Intn(80) + 1)
		hi := lo + float64(r.Intn(20)+5)
		q := engine.Query{Func: engine.Sum, Col: "a",
			Ranges: []engine.Range{{Col: "c1", Lo: lo, Hi: hi}}}
		fast, err := SelectBest(c, q, sub, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		brute, err := BruteForceBest(c, q, sub, 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if fast.SubsampleError > brute.SubsampleError*1.0001+1e-9 {
			t.Errorf("trial %d (q=[%v,%v]): P⁻ best %v worse than P⁺ best %v",
				trial, lo, hi, fast.SubsampleError, brute.SubsampleError)
		}
		if brute.Considered <= fast.Considered {
			t.Errorf("brute force considered %d <= fast %d", brute.Considered, fast.Considered)
		}
	}
}

func TestPreStringAndValue(t *testing.T) {
	if got := (Pre{Phi: true}).String(); got != "φ" {
		t.Errorf("phi String = %q", got)
	}
	p := Pre{Lo: []int{-1, 2}, Hi: []int{3, 4}}
	s := p.String()
	if s == "" || s == "φ" {
		t.Errorf("String = %q", s)
	}
	tbl := buildData(100, 30)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(4, 100)})
	if got := (Pre{Phi: true}).Value(c); got != 0 {
		t.Errorf("φ value = %v", got)
	}
	full := Pre{Lo: []int{-1}, Hi: []int{len(c.Points[0]) - 1}}
	if math.Abs(full.Value(c)-c.TotalSum()) > 1e-9 {
		t.Errorf("full pre value %v != total %v", full.Value(c), c.TotalSum())
	}
}

func TestCandidatesInvertedRange(t *testing.T) {
	tbl := buildData(100, 31)
	c, _ := cube.Build(tbl, cube.Template{Agg: "a", Dims: []string{"c1"}},
		[][]float64{equalPoints(4, 100)})
	q := engine.Query{Func: engine.Sum, Col: "a",
		Ranges: []engine.Range{{Col: "c1", Lo: 50, Hi: 10}}}
	if _, err := Candidates(c, q); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestCandidatesCappedHighDims(t *testing.T) {
	// An 8-D cube: the exact P⁻ would be 4^8 + 1 = 65537; the cap must
	// shrink it while keeping φ and at least one non-φ candidate.
	n := 4000
	r := stats.NewRNG(77)
	cols := make([]*engine.Column, 0, 9)
	a := make([]float64, n)
	for i := range a {
		a[i] = 10 + r.NormFloat64()
	}
	cols = append(cols, engine.NewFloatColumn("a", a))
	dims := make([]string, 8)
	points := make([][]float64, 8)
	for d := 0; d < 8; d++ {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(r.Intn(20) + 1)
		}
		name := fmt.Sprintf("d%d", d)
		cols = append(cols, engine.NewIntColumn(name, vals))
		dims[d] = name
		points[d] = []float64{5, 10, 15, 20}
	}
	tbl := engine.MustNewTable("t", cols...)
	c, err := cube.Build(tbl, cube.Template{Agg: "a", Dims: dims}, points)
	if err != nil {
		t.Fatal(err)
	}
	var ranges []engine.Range
	for d := 0; d < 8; d++ {
		ranges = append(ranges, engine.Range{Col: dims[d], Lo: 3, Hi: 17})
	}
	q := engine.Query{Func: engine.Sum, Col: "a", Ranges: ranges}
	cands, err := CandidatesCapped(c, q, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) > 257 {
		t.Errorf("cap ignored: |P⁻| = %d", len(cands))
	}
	if len(cands) < 2 {
		t.Errorf("cap too aggressive: |P⁻| = %d", len(cands))
	}
	// Unlimited enumeration really is huge.
	full, err := CandidatesCapped(c, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) <= len(cands) {
		t.Errorf("unlimited %d <= capped %d", len(full), len(cands))
	}
}

// TestCandidatesUnique pins what lets CandidatesCapped skip
// deduplication: per dimension the left and right choices are distinct,
// so the cross product never repeats a candidate. φ appears once, first;
// no (Lo, Hi) repeats; and the candidates are the full cross product of
// their per-dimension (lo, hi) choices — which, without a cap, are the
// bracket pairs u < v of Equation 7.
func TestCandidatesUnique(t *testing.T) {
	r := stats.NewRNG(0xca4d)
	tbl := equivalenceTable(2000, r)
	for trial := 0; trial < 200; trial++ {
		d := 1 + trial%4
		c := randomCube(t, tbl, d, "a", r)
		q := randomQuery(c, engine.Sum, r)
		for _, budget := range []int{0, DefaultMaxCandidates, 1, 2, 3, 5, 16} {
			cands, err := CandidatesCapped(c, q, budget)
			if err != nil {
				t.Fatal(err)
			}
			if !cands[0].IsPhi() {
				t.Fatalf("%v budget %d: first candidate %v, want φ", q, budget, cands[0])
			}
			seen := map[string]bool{}
			choices := make([]map[[2]int]bool, d)
			for i := range choices {
				choices[i] = map[[2]int]bool{}
			}
			for _, p := range cands[1:] {
				if p.IsPhi() {
					t.Fatalf("%v budget %d: φ repeated", q, budget)
				}
				if k := p.String(); seen[k] {
					t.Fatalf("%v budget %d: %v repeated", q, budget, p)
				} else {
					seen[k] = true
				}
				for i := range choices {
					choices[i][[2]int{p.Lo[i], p.Hi[i]}] = true
				}
			}
			product := 1
			for _, ch := range choices {
				product *= len(ch)
			}
			if len(cands) > 1 && len(cands)-1 != product {
				t.Fatalf("%v budget %d: %d candidates, want the %d-element cross product of per-dimension choices",
					q, budget, len(cands)-1, product)
			}
			if budget > 0 && len(cands)-1 > budget {
				t.Fatalf("%v budget %d: %d candidates", q, budget, len(cands)-1)
			}
			if budget != 0 {
				continue
			}
			// Uncapped, each dimension's choices are Equation 7's brackets.
			want := 1
			for i, name := range c.Template.Dims {
				left, right := []int{-1}, []int{len(c.Points[i]) - 1}
				for _, rg := range q.Ranges {
					if rg.Col == name {
						lLo, lHi := c.BracketLeft(i, rg.Lo)
						rLo, rHi := c.BracketRight(i, rg.Hi)
						left, right = []int{lLo, lHi}, []int{rLo, rHi}
					}
				}
				pairs := map[[2]int]bool{}
				for _, u := range left {
					for _, v := range right {
						if u < v {
							pairs[[2]int{u, v}] = true
						}
					}
				}
				want *= len(pairs)
				if len(cands) > 1 && len(pairs) != len(choices[i]) {
					t.Fatalf("%v dim %s: choices %v, want %v", q, name, choices[i], pairs)
				}
			}
			if len(cands)-1 != want {
				t.Fatalf("%v: %d candidates, want %d", q, len(cands)-1, want)
			}
		}
	}
}

// preMembershipByRow is the row-at-a-time definition of a pre's region,
// (loOrd, hiOrd] per dimension — the reference Membership's one
// conjunctive filter must reproduce bit for bit.
func preMembershipByRow(s *sample.Sample, c *cube.BPCube, pre Pre) *engine.Bitset {
	n := s.Size()
	in := engine.NewBitset(n)
	in.SetAll()
	for i, name := range c.Template.Dims {
		col := s.Table.MustColumn(name)
		hasLo := pre.Lo[i] >= 0
		var loOrd float64
		if hasLo {
			loOrd = c.Points[i][pre.Lo[i]]
		}
		hiOrd := c.Points[i][pre.Hi[i]]
		for row := 0; row < n; row++ {
			if ord := col.Ordinal(row); !(ord <= hiOrd && (!hasLo || ord > loOrd)) {
				in.Clear(row)
			}
		}
	}
	return in
}

func TestPreMembershipMatchesRowLoop(t *testing.T) {
	r := stats.NewRNG(77)
	// Above and below the engine's zone-map threshold.
	for _, n := range []int{500, 3*4096 + 11} {
		ci := make([]int64, n)
		cf := make([]float64, n)
		cs := make([]string, n)
		for i := 0; i < n; i++ {
			// Quarter steps land rows exactly on partition points, where
			// the open lower and closed upper ends differ.
			ci[i] = int64(r.Intn(120)) - 10
			cf[i] = float64(r.Intn(400)) / 4
			cs[i] = fmt.Sprintf("s%03d", r.Intn(150))
		}
		cf[n/2] = math.NaN()
		tbl := engine.MustNewTable("t", engine.NewIntColumn("ci", ci),
			engine.NewFloatColumn("cf", cf), engine.NewStringColumn("cs", cs))
		s := &sample.Sample{Kind: sample.Uniform, Table: tbl, SourceRows: n}
		c := &cube.BPCube{
			Template: cube.Template{Agg: "", Dims: []string{"ci", "cf", "cs"}},
			Points:   [][]float64{equalPoints(11, 110), {0, 2.5, 17.25, 50, 99.75, 100}, equalPoints(10, 150)},
		}
		for trial := 0; trial < 200; trial++ {
			pre := Pre{Lo: make([]int, 3), Hi: make([]int, 3)}
			for i, pts := range c.Points {
				pre.Lo[i] = r.Intn(len(pts)) - 1
				pre.Hi[i] = pre.Lo[i] + 1 + r.Intn(len(pts)-1-pre.Lo[i])
			}
			got, err := Membership(s, c, pre)
			if err != nil {
				t.Fatal(err)
			}
			want := preMembershipByRow(s, c, pre)
			for row := 0; row < n; row++ {
				if got.Get(row) != want.Get(row) {
					t.Fatalf("n=%d pre %v row %d (%v, %v, %v): in = %v, want %v", n, pre, row,
						ci[row], cf[row], cs[row], got.Get(row), want.Get(row))
				}
			}
		}
	}
}
