package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"testing"

	"aqppp/internal/aqp"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/ident"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// The oracle below is the answer pipeline as it was before the φ lane
// and the estimator were shared: answerWithPre built the pre's diff
// lane and the φ lane separately and estimated each on its own
// Estimator, and AVG rebuilt both pipelines' lanes afterwards. Its
// building blocks (ident.SelectBest, ident.DiffLane, aqp.Estimator) are
// held to their own oracles in their packages' equivalence tests.

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
		est, err := aqp.EstimateQuery(p.Sample, q, conf)
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
	if v := pre.Value(c); math.IsInf(v, 0) || math.IsNaN(v) {
		pre = ident.Pre{Phi: true}
	}
	diff, err := oracleTotal(p, c, q, pre)
	if err != nil {
		return Answer{}, err
	}
	if !pre.IsPhi() {
		phiEst, err := oracleTotal(p, c, q, ident.Pre{Phi: true})
		if err != nil {
			return Answer{}, err
		}
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

// oracleTotal estimates pre's diff lane for q on its own Estimator.
func oracleTotal(p *Processor, c *cube.BPCube, q engine.Query, pre ident.Pre) (aqp.Estimate, error) {
	l, err := ident.DiffLane(p.Sample, c, q, pre)
	if err != nil {
		return aqp.Estimate{}, err
	}
	e := aqp.NewEstimator(p.Sample, p.confidence())
	est, _ := e.Total(l)
	return est, nil
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
	sumLane, err := ident.DiffLane(p.Sample, p.Cube, sumQ, sumAns.Pre)
	if err != nil {
		return Answer{}, err
	}
	cntLane, err := ident.DiffLane(p.Sample, p.countCube(), cntQ, cntAns.Pre)
	if err != nil {
		return Answer{}, err
	}
	e := aqp.NewEstimator(p.Sample, conf)
	return Answer{
		Estimate:   e.Ratio(sumAns.Estimate.Value, cntAns.Estimate.Value, sumLane, cntLane),
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

// oracleResampleRows gathers a resample in full: every sample column at
// idx, with weights and stratum labels carried along.
func oracleResampleRows(s *sample.Sample, idx []int) *sample.Sample {
	out := &sample.Sample{
		Kind:       s.Kind,
		Table:      s.Table.Gather(s.Table.Name+"_boot", idx),
		SourceRows: s.SourceRows,
	}
	if s.InvP != nil {
		out.InvP = make([]float64, len(idx))
		for i, j := range idx {
			out.InvP[i] = s.InvP[j]
		}
	}
	if s.Strata != nil {
		out.Strata = make([]sample.Stratum, len(s.Strata))
		copy(out.Strata, s.Strata)
		for i := range out.Strata {
			out.Strata[i].SampleRows = 0
		}
		out.StratumOf = make([]int, len(idx))
		for i, j := range idx {
			si := s.StratumOf[j]
			out.StratumOf[i] = si
			out.Strata[si].SampleRows++
		}
	}
	return out
}

// oracleAnswerBootstrap is AnswerBootstrap as a gather-per-replicate
// loop: each replicate draws all n rows (a stratified sample's within
// their strata, n_h each), gathers the drawn rows' diff values and
// weights, and estimates the resample densely. It is the O(n) resample
// the support-only kernel must match in distribution.
func oracleAnswerBootstrap(p *Processor, q engine.Query, resamples int, seed uint64) (Answer, error) {
	conf := p.confidence()
	c := p.cubeFor(q)
	pre := ident.Pre{Phi: true}
	considered := 1
	if c != nil {
		sel, err := ident.SelectBest(c, q, p.subsample(), conf)
		if err != nil {
			return Answer{}, err
		}
		pre = sel.Pre
		considered = sel.Considered
	}
	var preVal float64
	if !pre.IsPhi() {
		if preVal = pre.Value(c); math.IsInf(preVal, 0) || math.IsNaN(preVal) {
			pre, preVal = ident.Pre{Phi: true}, 0
		}
	}
	lane, err := ident.DiffLane(p.Sample, c, q, pre)
	if err != nil {
		return Answer{}, err
	}
	e := aqp.NewEstimator(p.Sample, conf)
	est, _ := e.Total(lane)
	point := preVal + est.Value
	vals := denseLane(lane, p.Sample.Size())
	if resamples <= 0 {
		resamples = DefaultResamples
	}
	r := stats.NewRNG(seed)
	n := p.Sample.Size()
	byStratum := make([][]int, len(p.Sample.Strata))
	for i, h := range p.Sample.StratumOf {
		byStratum[h] = append(byStratum[h], i)
	}
	// The resample keeps s's row count, strata and stratum labels (a row's
	// stand-in comes from its own stratum); its values and weights are
	// gathered from the drawn rows.
	rs := *p.Sample
	rs.InvP = slices.Clone(p.Sample.InvP)
	rvals := make([]float64, n)
	reps := make([]float64, 0, resamples)
	for rep := 0; rep < resamples; rep++ {
		for i := range rvals {
			j := 0
			if p.Sample.Kind == sample.Stratified {
				rows := byStratum[p.Sample.StratumOf[i]]
				j = rows[r.Intn(len(rows))]
			} else {
				j = r.Intn(n)
				rs.InvP[i] = p.Sample.InvP[j]
			}
			rvals[i] = vals[j]
		}
		reps = append(reps, preVal+denseValue(&rs, rvals))
	}
	alpha := (1 - conf) / 2
	lo := stats.Quantile(reps, alpha)
	hi := stats.Quantile(reps, 1-alpha)
	return Answer{
		Estimate:   aqp.Estimate{Value: point, HalfWidth: (hi - lo) / 2, Confidence: conf, SampleRows: n},
		Pre:        pre,
		PreValue:   preVal,
		Candidates: considered,
	}, nil
}

// denseLane expands a lane into its per-row values: a_i on Plus alone,
// −a_i on Minus alone, 0 elsewhere.
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
			vals[i] = -a
		}
	}
	return vals
}

// denseValue is the point estimate of dense values v on s — mean(v·InvP)
// or Σ_h N_h/n_h·Σ_{i∈h} v_i — summed row by row.
func denseValue(s *sample.Sample, v []float64) float64 {
	if s.Kind != sample.Stratified {
		sum := 0.0
		for i, x := range v {
			sum += x * s.InvP[i]
		}
		return sum / float64(len(v))
	}
	sums, rows := make([]float64, len(s.Strata)), make([]int, len(s.Strata))
	for i, x := range v {
		sums[s.StratumOf[i]] += x
		rows[s.StratumOf[i]]++
	}
	est := 0.0
	for h, st := range s.Strata {
		if rows[h] > 0 {
			est += float64(st.SourceRows) / float64(rows[h]) * sums[h]
		}
	}
	return est
}

// resizedSample draws an n-row with-replacement resample of s: a sample
// of any size, including 0, with s's kind, weights and strata.
func resizedSample(s *sample.Sample, n int, r *stats.RNG) *sample.Sample {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = r.Intn(s.Size())
	}
	return oracleResampleRows(s, idx)
}

// poisonMeasures overwrites about 1 % of the sample rows' measures (at
// least one row) with NaN or ±Inf.
func poisonMeasures(s *sample.Sample, r *stats.RNG) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, col := range []string{"a", "b"} {
		vals := s.Table.MustColumn(col).Floats
		for k := 0; len(vals) > 0 && k < max(1, len(vals)/100); k++ {
			vals[r.Intn(len(vals))] = bad[r.Intn(len(bad))]
		}
	}
}

// bootstrapReplicates is the replicate count of the distributional
// bootstrap checks: def, or AQPPP_BOOTSTRAP_REPLICATES when set (the
// nightly run raises it).
func bootstrapReplicates(def int) int {
	if r, err := strconv.Atoi(os.Getenv("AQPPP_BOOTSTRAP_REPLICATES")); err == nil && r > 0 {
		return r
	}
	return def
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// TestAnswerBootstrapEquivalenceRandomized holds AnswerBootstrap to the
// gather-per-replicate loop above, over SUM and COUNT, all three
// samplers, sample sizes 0, 1, 2, 65 and 3000, replicate counts 1–200,
// an identified pre and φ, and NaN/±Inf measures. Replicates are drawn
// differently, so the half-width is held to the oracle's in
// distribution only; the rest is exact:
//   - one seed gives one answer, bit for bit, whatever the last argument;
//   - the point, pre, pre(D) and candidate count are the oracle's;
//   - an empty sample answers pre(D) ± 0;
//   - from 50 replicates on, the half-width is finite exactly when the
//     point is (a NaN or ±Inf row in the diff vector reaches both);
//   - at 1,000 replicates (AQPPP_BOOTSTRAP_REPLICATES overrides), on
//     3,000-row samples with support, the half-width is within a factor
//     0.8–1.25 of the oracle's.
func TestAnswerBootstrapEquivalenceRandomized(t *testing.T) {
	r := stats.NewRNG(0xb007)
	tbl := equivalenceProcessorTable(3000, r)
	ctx := context.Background()
	var identified, nonFinite, spread int
	for _, kind := range []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified} {
		for _, n := range []int{0, 1, 2, 65, 3000} {
			for _, resamples := range []int{1, 2, 3, 4, 5, 7, 8, 50, 200} {
				for trial := 0; trial < 3; trial++ {
					p := randomProcessor(t, tbl, kind, r)
					q := randomProcessorQuery(p, r)
					q.Func = []engine.AggFunc{engine.Sum, engine.Count}[r.Intn(2)]
					p.Sample, p.Sub = resizedSample(p.Sample, n, r), nil
					if r.Intn(3) == 0 {
						poisonMeasures(p.Sample, r)
					}
					if n > 0 && r.Intn(2) == 0 {
						p.Sub = p.Sample.Subsample(0.3, r.Uint64())
					}
					if r.Intn(4) == 0 {
						p.Cube, p.CountCube = nil, nil
					}
					seed := r.Uint64()
					got, err := p.AnswerBootstrap(ctx, q, resamples, seed, nil)
					if err != nil {
						t.Fatalf("%v n=%d R=%d %v: %v", kind, n, resamples, q, err)
					}
					again, err := p.AnswerBootstrap(ctx, q, resamples, seed, &BootstrapScratch{})
					if err != nil || !sameAnswer(got, again) {
						t.Fatalf("%v n=%d R=%d %v: seed %d answered %+v, then %+v (%v)", kind, n, resamples, q, seed, got, again, err)
					}
					// Everything but the half-width is the oracle's; one
					// oracle replicate is enough to get it.
					want, err := oracleAnswerBootstrap(p, q, 1, seed)
					if err != nil {
						t.Fatalf("%v n=%d R=%d %v: oracle: %v", kind, n, resamples, q, err)
					}
					want.Estimate.HalfWidth = got.Estimate.HalfWidth
					if !sameAnswer(got, want) {
						t.Fatalf("%v n=%d R=%d %v: AnswerBootstrap = %+v, oracle %+v", kind, n, resamples, q, got, want)
					}
					hw, point := got.Estimate.HalfWidth, got.Estimate.Value
					if n == 0 && (!stats.ExactEqual(hw, 0) || !stats.ExactEqual(point, got.PreValue)) {
						t.Fatalf("%v R=%d %v: empty sample answered %+v, want pre(D) ± 0", kind, resamples, q, got)
					}
					if resamples >= 50 && finite(hw) != finite(point) {
						t.Fatalf("%v n=%d R=%d %v: half-width %v for point %v", kind, n, resamples, q, hw, point)
					}
					switch {
					case !finite(hw):
						nonFinite++
					case hw > 0:
						spread++
					}
					if !got.Pre.IsPhi() {
						identified++
					}
				}
			}
		}
	}
	// The draws must reach the cases the test names, not only 0 ± 0.
	if identified < 30 || nonFinite < 10 || spread < 80 {
		t.Errorf("coverage: %d identified pres, %d non-finite and %d positive half-widths", identified, nonFinite, spread)
	}

	resamples := bootstrapReplicates(1000)
	for _, kind := range []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified} {
		for trial := 0; trial < 2; trial++ {
			// Draw until the diff vector has support, so there is a
			// spread to compare.
			var p *Processor
			var q engine.Query
			var got Answer
			for tries := 0; tries < 50 && !(got.Estimate.HalfWidth > 0); tries++ {
				p = randomProcessor(t, tbl, kind, r)
				q = randomProcessorQuery(p, r)
				q.Func = []engine.AggFunc{engine.Sum, engine.Count}[trial]
				p.Sample = resizedSample(p.Sample, 3000, r)
				var err error
				if got, err = p.AnswerBootstrap(ctx, q, resamples, r.Uint64(), nil); err != nil {
					t.Fatal(err)
				}
			}
			want, err := oracleAnswerBootstrap(p, q, resamples, r.Uint64())
			if err != nil {
				t.Fatal(err)
			}
			ratio := got.Estimate.HalfWidth / want.Estimate.HalfWidth
			if !(ratio >= 0.8 && ratio <= 1.25) {
				t.Errorf("%v R=%d %v: half-width %v, oracle %v", kind, resamples, q, got.Estimate.HalfWidth, want.Estimate.HalfWidth)
			}
		}
	}
}

// TestAnswerEquivalenceRandomized holds Answer (SUM, COUNT, AVG) and
// AnswerGroups to the pre-rewrite pipeline above:
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
		}
	}
}

// plainAQPQuery draws a SUM, COUNT or AVG over a or b with zero to three
// ranges on c1, c2, c3 and x; a range beyond every value (no qualifying
// row) makes the empty-condition AVG case common.
func plainAQPQuery(r *stats.RNG) engine.Query {
	q := engine.Query{
		Func: []engine.AggFunc{engine.Sum, engine.Count, engine.Avg}[r.Intn(3)],
		Col:  []string{"a", "b"}[r.Intn(2)],
	}
	for _, d := range []struct {
		name string
		hi   int
	}{{"c1", 100}, {"c2", 30}, {"c3", 5}, {"x", 999}} {
		if r.Intn(2) == 0 {
			continue
		}
		lo := float64(r.Intn(d.hi + 1))
		if r.Intn(8) == 0 {
			lo += float64(d.hi + 1)
		}
		q.Ranges = append(q.Ranges, engine.Range{Col: d.name, Lo: lo, Hi: lo + float64(r.Intn(d.hi/2+1))})
	}
	return q
}

// TestPlainAQPIsProcessorWithoutCube pins the unification property's
// φ end (§4.2.1): aqp.EstimateQuery is bit for bit what a Processor with
// no cube answers, for SUM, COUNT and AVG over all three samplers.
func TestPlainAQPIsProcessorWithoutCube(t *testing.T) {
	r := stats.NewRNG(0xf1)
	tbl := equivalenceProcessorTable(3000, r)
	emptyAvg := 0
	for _, kind := range []sample.Kind{sample.Uniform, sample.MeasureBiased, sample.Stratified} {
		var s *sample.Sample
		var err error
		switch kind {
		case sample.Uniform:
			s, err = sample.NewUniform(tbl, 0.1, r.Uint64())
		case sample.MeasureBiased:
			s, err = sample.NewMeasureBiased(tbl, "a", 0.1, r.Uint64())
		default:
			s, err = sample.NewStratified(tbl, []string{"g"}, 0.1, 30, r.Uint64())
		}
		if err != nil {
			t.Fatal(err)
		}
		conf := []float64{0.9, 0.95, 0.99}[r.Intn(3)]
		p := &Processor{Sample: s, Confidence: conf}
		for trial := 0; trial < 60; trial++ {
			q := plainAQPQuery(r)
			ans, err := p.Answer(q)
			if err != nil {
				t.Fatal(err)
			}
			est, err := aqp.EstimateQuery(s, q, conf)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswer(Answer{Estimate: est}, Answer{Estimate: ans.Estimate}) || !ans.Pre.IsPhi() {
				t.Fatalf("%v, %v: Processor = %+v, EstimateQuery %+v", kind, q, ans, est)
			}
			if q.Func == engine.Avg && est.Value == 0 {
				emptyAvg++
			}
		}
	}
	if emptyAvg == 0 {
		t.Error("no AVG over an empty condition was drawn")
	}
}
