package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"aqppp/internal/aqp"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/ident"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// The oracle below is the answer pipeline as it was before the φ vector
// was shared: answerWithPre built the pre's diff vector and the φ
// vector separately and estimated each with its own SumOfValues, and
// AVG rebuilt both pipelines' vectors afterwards. Its building blocks
// (ident.SelectBest, ident.DiffVector, aqp.SumOfValues) are held to
// their own pre-rewrite oracles in their packages' equivalence tests.

func oracleAnswer(p *Processor, q engine.Query) (Answer, error) {
	switch q.Func {
	case engine.Sum:
		return oracleAnswerSum(p, q, p.Cube, q.Col)
	case engine.Count:
		return oracleAnswerSum(p, q, p.countCube(), "")
	case engine.Avg:
		return oracleAnswerAvg(p, q)
	}
	return Answer{}, fmt.Errorf("oracle: %v", q.Func)
}

func oracleAnswerSum(p *Processor, q engine.Query, c *cube.BPCube, cubeAgg string) (Answer, error) {
	conf := p.confidence()
	if c == nil || c.Template.Agg != cubeAgg {
		est, err := aqp.EstimateSum(p.Sample, q, conf)
		if err != nil {
			return Answer{}, err
		}
		return Answer{Estimate: est, Pre: ident.Pre{Phi: true}, Candidates: 1}, nil
	}
	sel, err := ident.SelectBest(c, q, p.subsample(), conf)
	if err != nil {
		return Answer{}, err
	}
	return oracleAnswerWithPre(p, q, c, sel.Pre, sel.Considered)
}

func oracleAnswerWithPre(p *Processor, q engine.Query, c *cube.BPCube, pre ident.Pre, considered int) (Answer, error) {
	conf := p.confidence()
	vals, err := ident.DiffVector(p.Sample, c, q, pre)
	if err != nil {
		return Answer{}, err
	}
	diff := aqp.SumOfValues(p.Sample, vals, conf)
	if !pre.IsPhi() {
		phiVals, err := aqp.ConditionVector(p.Sample, q)
		if err != nil {
			return Answer{}, err
		}
		phiEst := aqp.SumOfValues(p.Sample, phiVals, conf)
		if phiEst.HalfWidth < diff.HalfWidth {
			pre = ident.Pre{Phi: true}
			diff = phiEst
		}
	}
	preVal := pre.Value(c)
	return Answer{
		Estimate: aqp.Estimate{
			Value:      preVal + diff.Value,
			HalfWidth:  diff.HalfWidth,
			Confidence: conf,
			SampleRows: diff.SampleRows,
		},
		Pre:        pre,
		PreValue:   preVal,
		Candidates: considered,
	}, nil
}

func oracleDiffOrCond(p *Processor, q engine.Query, c *cube.BPCube, pre ident.Pre) ([]float64, error) {
	if c == nil || pre.IsPhi() {
		return aqp.ConditionVector(p.Sample, q)
	}
	return ident.DiffVector(p.Sample, c, q, pre)
}

func oracleAnswerAvg(p *Processor, q engine.Query) (Answer, error) {
	conf := p.confidence()
	sumQ, cntQ := q, q
	sumQ.Func, cntQ.Func = engine.Sum, engine.Count
	sumAns, err := oracleAnswerSum(p, sumQ, p.Cube, q.Col)
	if err != nil {
		return Answer{}, err
	}
	cntAns, err := oracleAnswerSum(p, cntQ, p.countCube(), "")
	if err != nil {
		return Answer{}, err
	}
	if cntAns.Estimate.Value == 0 {
		return Answer{
			Estimate: aqp.Estimate{Confidence: conf, SampleRows: p.Sample.Size()},
			Pre:      sumAns.Pre,
		}, nil
	}
	r := sumAns.Estimate.Value / cntAns.Estimate.Value
	sumVals, err := oracleDiffOrCond(p, sumQ, p.Cube, sumAns.Pre)
	if err != nil {
		return Answer{}, err
	}
	cntVals, err := oracleDiffOrCond(p, cntQ, p.countCube(), cntAns.Pre)
	if err != nil {
		return Answer{}, err
	}
	resid := make([]float64, len(sumVals))
	for i := range resid {
		resid[i] = sumVals[i] - r*cntVals[i]
	}
	re := aqp.SumOfValues(p.Sample, resid, conf)
	return Answer{
		Estimate: aqp.Estimate{
			Value:      r,
			HalfWidth:  re.HalfWidth / math.Abs(cntAns.Estimate.Value),
			Confidence: conf,
			SampleRows: p.Sample.Size(),
		},
		Pre:        sumAns.Pre,
		PreValue:   sumAns.PreValue,
		Candidates: sumAns.Candidates + cntAns.Candidates,
	}, nil
}

func oracleAnswerGroups(p *Processor, q engine.Query) ([]GroupAnswer, error) {
	keys, ords, err := p.sampleGroups(q.GroupBy)
	if err != nil {
		return nil, err
	}
	var out []GroupAnswer
	for gi, key := range keys {
		gq := q
		gq.GroupBy = nil
		gq.Ranges = append(slices.Clone(q.Ranges), pinRanges(q.GroupBy, ords[gi])...)
		ans, err := oracleAnswer(p, gq)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupAnswer{Key: key, Answer: ans})
	}
	return out, nil
}

func oracleAnswerGroupsFast(p *Processor, q engine.Query) ([]GroupAnswer, error) {
	if p.Cube == nil || q.Func != engine.Sum || p.Cube.Template.Agg != q.Col {
		return oracleAnswerGroups(p, q)
	}
	scalar := q
	scalar.GroupBy = nil
	sel, err := ident.SelectBest(p.Cube, scalar, p.subsample(), p.confidence())
	if err != nil {
		return nil, err
	}
	var groupDims []dimBinding
	for gi, g := range q.GroupBy {
		for di, d := range p.Cube.Template.Dims {
			if d == g {
				groupDims = append(groupDims, dimBinding{dim: di, col: gi})
			}
		}
	}
	keys, ords, err := p.sampleGroups(q.GroupBy)
	if err != nil {
		return nil, err
	}
	var out []GroupAnswer
	for gi, key := range keys {
		gq := scalar
		gq.Ranges = append(slices.Clone(scalar.Ranges), pinRanges(q.GroupBy, ords[gi])...)
		pre := sel.Pre
		if !pre.IsPhi() && len(groupDims) > 0 {
			pre = pinPreToGroup(p, pre, groupDims, ords[gi])
		}
		ans, err := oracleAnswerWithPre(p, gq, p.Cube, pre, sel.Considered)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupAnswer{Key: key, Answer: ans})
	}
	return out, nil
}

func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameAnswer(a, b Answer) bool {
	ea, eb := a.Estimate, b.Estimate
	return sameFloat(ea.Value, eb.Value) && sameFloat(ea.HalfWidth, eb.HalfWidth) &&
		sameFloat(ea.Confidence, eb.Confidence) && ea.SampleRows == eb.SampleRows &&
		a.Pre.Phi == b.Pre.Phi && slices.Equal(a.Pre.Lo, b.Pre.Lo) && slices.Equal(a.Pre.Hi, b.Pre.Hi) &&
		sameFloat(a.PreValue, b.PreValue) && a.Candidates == b.Candidates
}

func sameGroups(a, b []GroupAnswer) bool {
	return slices.EqualFunc(a, b, func(x, y GroupAnswer) bool {
		return x.Key == y.Key && sameAnswer(x.Answer, y.Answer)
	})
}

// equivalenceProcessorTable has integer dimensions c1..c3, a string
// dimension s, a non-cube column x, a stratum/group column g, and two
// measures: a (the cubes' aggregate) and b (no cube: plain AQP).
func equivalenceProcessorTable(n int, r *stats.RNG) *engine.Table {
	c1, c2, c3, x := make([]int64, n), make([]int64, n), make([]int64, n), make([]int64, n)
	s, g := make([]string, n), make([]string, n)
	a, b := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		c1[i] = int64(r.Intn(100) + 1)
		c2[i] = int64(r.Intn(30) + 1)
		c3[i] = int64(r.Intn(6))
		x[i] = int64(r.Intn(1000))
		s[i] = fmt.Sprintf("s%02d", r.Intn(12))
		g[i] = []string{"a", "b", "b", "c"}[r.Intn(4)]
		a[i] = 50 + 0.3*float64(c1[i]) + 20*r.NormFloat64()
		b[i] = 10 + r.Float64()*5
	}
	return engine.MustNewTable("t",
		engine.NewIntColumn("c1", c1), engine.NewIntColumn("c2", c2), engine.NewIntColumn("c3", c3),
		engine.NewIntColumn("x", x), engine.NewStringColumn("s", s), engine.NewStringColumn("g", g),
		engine.NewFloatColumn("a", a), engine.NewFloatColumn("b", b),
	)
}

var equivalenceProcessorDims = []struct {
	name   string
	lo, hi int
}{{"c1", 1, 100}, {"c2", 1, 30}, {"c3", 0, 5}, {"s", 0, 11}}

// randomProcessor builds a Processor over one of the three samplers,
// with a SUM cube (and usually a COUNT cube) over 1–3 random dimensions,
// and an identification subsample or none.
func randomProcessor(t *testing.T, tbl *engine.Table, kind sample.Kind, r *stats.RNG) *Processor {
	t.Helper()
	seed := r.Uint64()
	var s *sample.Sample
	var err error
	switch kind {
	case sample.Uniform:
		s, err = sample.NewUniform(tbl, 0.1, seed)
	case sample.MeasureBiased:
		s, err = sample.NewMeasureBiased(tbl, "a", 0.1, seed)
	default:
		s, err = sample.NewStratified(tbl, []string{"g"}, 0.1, 30, seed)
	}
	if err != nil {
		t.Fatal(err)
	}
	d := 1 + r.Intn(3)
	dims := make([]string, d)
	points := make([][]float64, d)
	for i, j := range r.Perm(len(equivalenceProcessorDims))[:d] {
		dim := equivalenceProcessorDims[j]
		dims[i] = dim.name
		seen := map[int]bool{}
		for k := 2 + r.Intn(4); len(points[i]) < k; {
			if p := dim.lo + r.Intn(dim.hi-dim.lo+1); !seen[p] {
				seen[p] = true
				points[i] = append(points[i], float64(p))
			}
		}
		slices.Sort(points[i])
	}
	c, err := cube.Build(tbl, cube.Template{Agg: "a", Dims: dims}, points)
	if err != nil {
		t.Fatal(err)
	}
	p := &Processor{Sample: s, Cube: c, Confidence: []float64{0, 0.9, 0.99}[r.Intn(3)]}
	if r.Intn(4) != 0 {
		if p.CountCube, err = cube.Build(tbl, cube.Template{Dims: dims}, points); err != nil {
			t.Fatal(err)
		}
	}
	if r.Intn(3) != 0 {
		p.Sub = s.Subsample(0.3, seed+1)
	}
	return p
}

// randomProcessorQuery draws a SUM, COUNT or AVG over a (cube-backed)
// or b (no cube), ranges on random cube dimensions with endpoints on,
// next to or between partition points, and sometimes a range on x.
func randomProcessorQuery(p *Processor, r *stats.RNG) engine.Query {
	q := engine.Query{
		Func: []engine.AggFunc{engine.Sum, engine.Count, engine.Avg}[r.Intn(3)],
		Col:  []string{"a", "a", "a", "b"}[r.Intn(4)],
	}
	c := p.Cube
	for i, name := range c.Template.Dims {
		if r.Intn(4) == 0 {
			continue
		}
		var lo, hi int
		for _, d := range equivalenceProcessorDims {
			if d.name == name {
				lo, hi = d.lo, d.hi
			}
		}
		pts := c.Points[i]
		endpoint := func() float64 {
			switch r.Intn(3) {
			case 0:
				return pts[r.Intn(len(pts))]
			case 1:
				return pts[r.Intn(len(pts))] + float64(r.Intn(3)-1)
			default:
				return float64(lo + r.Intn(hi-lo+1))
			}
		}
		a, b := endpoint(), endpoint()
		q.Ranges = append(q.Ranges, engine.Range{Col: name, Lo: min(a, b), Hi: max(a, b)})
	}
	if r.Intn(3) == 0 {
		lo := float64(r.Intn(900))
		q.Ranges = append(q.Ranges, engine.Range{Col: "x", Lo: lo, Hi: lo + float64(r.Intn(400))})
	}
	return q
}

// TestAnswerEquivalenceRandomized holds Answer (SUM, COUNT, AVG),
// AnswerGroups and AnswerGroupsFast to the pre-rewrite pipeline above:
// every Estimate, Pre, PreValue and candidate count identical, over all
// three samplers, with and without a COUNT cube or a subsample, on
// cube-backed and cube-less measures, grouping by cube dimensions and
// by a non-cube column.
func TestAnswerEquivalenceRandomized(t *testing.T) {
	r := stats.NewRNG(0xa75)
	tbl := equivalenceProcessorTable(3000, r)
	ctx := context.Background()
	for _, kind := range []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified} {
		for trial := 0; trial < 60; trial++ {
			p := randomProcessor(t, tbl, kind, r)
			q := randomProcessorQuery(p, r)
			got, err := p.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleAnswer(p, q)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswer(got, want) {
				t.Fatalf("%v, %v: Answer = %+v, oracle %+v", kind, q, got, want)
			}
			if trial%3 != 0 {
				continue
			}
			gq := q
			gq.GroupBy = []string{[]string{"g", "c3", "s", p.Cube.Template.Dims[0]}[r.Intn(4)]}
			groups, err := p.AnswerGroups(ctx, gq)
			if err != nil {
				t.Fatal(err)
			}
			wantGroups, err := oracleAnswerGroups(p, gq)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGroups(groups, wantGroups) {
				t.Fatalf("%v, %v: AnswerGroups differs from the oracle", kind, gq)
			}
			gq.Func, gq.Col = engine.Sum, "a"
			fast, err := p.AnswerGroupsFast(ctx, gq)
			if err != nil {
				t.Fatal(err)
			}
			wantFast, err := oracleAnswerGroupsFast(p, gq)
			if err != nil {
				t.Fatal(err)
			}
			if !sameGroups(fast, wantFast) {
				t.Fatalf("%v, %v: AnswerGroupsFast differs from the oracle", kind, gq)
			}
		}
	}
}
