// Package core is the AQP++ query processor (§4 of the paper): it answers
// aggregation queries by combining a precomputed BP-Cube with a sample,
// estimating the *difference* between the user query and the identified
// precomputed aggregate (Equation 4):
//
//	q(D) ≈ pre(D) + (q̂(S) − prê(S))
//
// With pre = φ it degenerates to plain AQP; with pre = q it returns the
// exact precomputed answer — the unification property of §4.2.1.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"aqppp/internal/aqp"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/ident"
	"aqppp/internal/sample"
)

// ErrUnsupported marks well-formed requests the processor cannot serve
// (an aggregate outside a path's repertoire, a GROUP BY where none is
// handled, a MIN/MAX with no covering index). Error sites wrap it so
// the exec layer can classify without string matching.
var ErrUnsupported = errors.New("unsupported")

// Processor answers queries for one query template using a sample and an
// optional BP-Cube.
type Processor struct {
	// Sample is the full sample used for final estimates.
	Sample *sample.Sample
	// Sub is the identification subsample (§5.2); if nil, identification
	// scores candidates on the full sample.
	Sub *sample.Sample
	// Cube is the SUM BP-Cube for the template; nil disables
	// precomputation entirely (pure AQP).
	Cube *cube.BPCube
	// CountCube optionally holds a COUNT cube over the same partition
	// points, enabling AQP++ AVG answers.
	CountCube *cube.BPCube
	// MinMax holds optional per-dimension range-extrema indexes for
	// exact MIN/MAX answers (the §8 future-work direction: these
	// aggregates are easy for precomputation and impossible for
	// sampling).
	MinMax []*cube.MinMaxIndex
	// Confidence is the CI level (default 0.95 when zero).
	Confidence float64
}

// Answer is an AQP++ query result.
type Answer struct {
	// Estimate is the point estimate and confidence interval.
	Estimate aqp.Estimate
	// Pre is the identified precomputed aggregate (φ when none helped).
	Pre ident.Pre
	// PreValue is pre(D), the exact precomputed constant that anchored
	// the estimate.
	PreValue float64
	// Candidates is |P⁻|, the number of aggregates considered.
	Candidates int
}

// GroupAnswer is one group's answer for group-by queries.
type GroupAnswer struct {
	Key    string
	Answer Answer
}

func (p *Processor) confidence() float64 {
	if p.Confidence == 0 {
		return 0.95
	}
	return p.Confidence
}

func (p *Processor) subsample() *sample.Sample {
	if p.Sub != nil {
		return p.Sub
	}
	return p.Sample
}

// Answer answers a SUM, COUNT or AVG query. SUM/COUNT run the full AQP++
// pipeline (identify pre on the subsample, estimate the diff on the full
// sample, add pre(D)); AVG combines a SUM and a COUNT answer with a
// delta-method interval (Appendix C).
func (p *Processor) Answer(q engine.Query) (Answer, error) {
	if len(q.GroupBy) > 0 {
		return Answer{}, fmt.Errorf("core: use AnswerGroups for GROUP BY queries")
	}
	switch q.Func {
	case engine.Sum, engine.Count:
		e := aqp.NewEstimator(p.Sample, p.confidence())
		ans, _, err := p.answerSum(&e, q)
		return ans, err
	case engine.Avg:
		return p.answerAvg(q)
	case engine.Min, engine.Max:
		return p.answerMinMax(q)
	default:
		return Answer{}, fmt.Errorf("core: %w aggregate %v", ErrUnsupported, q.Func)
	}
}

// answerMinMax serves MIN/MAX exactly from a matching MinMaxIndex: the
// query's range columns must all be the index's single dimension.
func (p *Processor) answerMinMax(q engine.Query) (Answer, error) {
	for _, idx := range p.MinMax {
		if idx.Agg != q.Col {
			continue
		}
		covered := true
		for _, r := range q.Ranges {
			if r.Col != idx.Dim {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		v, err := idx.Answer(q)
		if err != nil {
			return Answer{}, err
		}
		return Answer{
			Estimate: aqp.Estimate{Value: v, Confidence: 1},
			Pre:      ident.Pre{Phi: true},
			PreValue: v,
		}, nil
	}
	return Answer{}, fmt.Errorf("core: %w: no MIN/MAX index covers %v (build one with WithMinMax)", ErrUnsupported, q)
}

// countCube returns the COUNT cube if available.
func (p *Processor) countCube() *cube.BPCube {
	if p.CountCube != nil {
		return p.CountCube
	}
	if p.Cube != nil && p.Cube.Template.Agg == "" {
		return p.Cube
	}
	return nil
}

// cubeFor returns the cube that can anchor a SUM or COUNT query: the SUM
// cube when it aggregates q's column, the COUNT cube for COUNT, or nil
// when neither matches (plain AQP, pre = φ).
func (p *Processor) cubeFor(q engine.Query) *cube.BPCube {
	c, agg := p.Cube, q.Col
	if q.Func == engine.Count {
		c, agg = p.countCube(), ""
	}
	if c == nil || c.Template.Agg != agg {
		return nil
	}
	return c
}

// answerSum runs the SUM/COUNT pipeline against the cube that anchors q,
// estimating on e (an Estimator over p.Sample). It also returns the
// lane the estimate was computed from (the answered pre's diff lane),
// which AVG's interval reuses.
func (p *Processor) answerSum(e *aqp.Estimator, q engine.Query) (Answer, aqp.Lane, error) {
	c := p.cubeFor(q)
	if c == nil {
		// No usable cube: plain AQP (pre = φ).
		l, err := aqp.ConditionLane(p.Sample, q)
		if err != nil {
			return Answer{}, aqp.Lane{}, err
		}
		est, _ := e.Total(l)
		return Answer{Estimate: est, Pre: ident.Pre{Phi: true}, Candidates: 1}, l, nil
	}
	sel, err := ident.SelectBest(c, q, p.subsample(), p.confidence())
	if err != nil {
		return Answer{}, aqp.Lane{}, err
	}
	return p.answerWithPre(e, q, c, sel.Pre, sel.Considered)
}

// answerWithPre evaluates one pre of cube c on the full sample: the diff
// estimate plus pre(D). Identification scored candidates on a small
// subsample, so the chosen pre is re-checked against φ on the full
// sample (error(q, P) minimizes over P⁺, and φ ∈ P⁺ — a noisy subsample
// must not leave us worse than plain AQP). The query's condition lane
// is φ's lane; the pre's lane adds the pre's rows as Minus, so both
// estimates read only their supports. A pre whose pre(D) is not finite
// is answered as φ (see anchor). It also returns the lane of the pre it
// answered with.
func (p *Processor) answerWithPre(e *aqp.Estimator, q engine.Query, c *cube.BPCube, pre ident.Pre, considered int) (Answer, aqp.Lane, error) {
	phi, err := aqp.ConditionLane(p.Sample, q)
	if err != nil {
		return Answer{}, aqp.Lane{}, err
	}
	pre, preVal := anchor(c, pre)
	lane := phi
	diff, _ := e.Total(phi)
	if !pre.IsPhi() {
		in, err := ident.Membership(p.Sample, c, pre)
		if err != nil {
			return Answer{}, aqp.Lane{}, err
		}
		lane.Minus = in.Words()
		phiEst := diff
		if diff, _ = e.Total(lane); phiEst.HalfWidth < diff.HalfWidth {
			pre, preVal = ident.Pre{Phi: true}, 0
			diff = phiEst
			lane = phi
		}
	}
	return Answer{
		Estimate: aqp.Estimate{
			Value:      preVal + diff.Value,
			HalfWidth:  diff.HalfWidth,
			Confidence: p.confidence(),
			SampleRows: diff.SampleRows,
		},
		Pre:        pre,
		PreValue:   preVal,
		Candidates: considered,
	}, lane, nil
}

// anchor returns pre and pre(D), or φ and 0 when pre(D) is not finite.
// A non-finite pre(D) (a ±Inf or NaN measure inside the pre's cells, or
// ∞ − ∞ between prefix-cube corners) would meet the same rows in the
// diff estimate and answer ∞ − ∞ = NaN; plain AQP answers what the
// exact scan does there, ±Inf where the query holds an infinite row.
func anchor(c *cube.BPCube, pre ident.Pre) (ident.Pre, float64) {
	v := pre.Value(c)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return ident.Pre{Phi: true}, 0
	}
	return pre, v
}

// answerAvg answers AVG as the ratio of an AQP++ SUM and an AQP++ COUNT.
// The interval uses linearization: Var(R̂) ≈ Var(D̂_s − R̂·D̂_c)/T̂² where
// D̂_s, D̂_c are the two diff estimators (the pre constants carry no
// variance).
func (p *Processor) answerAvg(q engine.Query) (Answer, error) {
	e := aqp.NewEstimator(p.Sample, p.confidence())
	sumQ := q
	sumQ.Func = engine.Sum
	cntQ := q
	cntQ.Func = engine.Count
	sumAns, sumLane, err := p.answerSum(&e, sumQ)
	if err != nil {
		return Answer{}, err
	}
	cntAns, cntLane, err := p.answerSum(&e, cntQ)
	if err != nil {
		return Answer{}, err
	}
	// The residual is built from the two pipelines' diff lanes:
	// (a_i − R̂)·(cond_q − cond_pre) terms.
	est := e.Ratio(sumAns.Estimate.Value, cntAns.Estimate.Value, sumLane, cntLane)
	if cntAns.Estimate.Value == 0 {
		return Answer{Estimate: est, Pre: sumAns.Pre}, nil
	}
	return Answer{
		Estimate:   est,
		Pre:        sumAns.Pre,
		PreValue:   sumAns.PreValue,
		Candidates: sumAns.Candidates + cntAns.Candidates,
	}, nil
}

// AnswerGroups answers a group-by query (Appendix C): each group observed
// in the sample is answered through the scalar pipeline with the group
// pinned via equality ranges on the group-by columns. When the group-by
// attributes are cube dimensions whose values align with partition
// points, each group's pre region pins them exactly; otherwise the pre
// simply does not restrict them (still unbiased, higher variance, and the
// subsample scoring arbitrates against φ).
//
// ctx is checked once per group, so a canceled caller unwinds within
// one group's pipeline.
func (p *Processor) AnswerGroups(ctx context.Context, q engine.Query) ([]GroupAnswer, error) {
	if len(q.GroupBy) == 0 {
		return nil, fmt.Errorf("core: AnswerGroups needs GROUP BY")
	}
	keys, ords, err := p.sampleGroups(q.GroupBy)
	if err != nil {
		return nil, err
	}
	out := make([]GroupAnswer, 0, len(keys))
	for gi, key := range keys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gq := q
		gq.GroupBy = nil
		gq.Ranges = append(append([]engine.Range(nil), q.Ranges...), pinRanges(q.GroupBy, ords[gi])...)
		ans, err := p.Answer(gq)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupAnswer{Key: key, Answer: ans})
	}
	return out, nil
}

// sampleGroups enumerates the groups the groupBy columns form over the
// sample, in first-seen row order: each group's key (engine.GroupKey,
// as Execute renders it) and the ordinals of its group-by columns.
func (p *Processor) sampleGroups(groupBy []string) (keys []string, ords [][]float64, err error) {
	cols := make([]*engine.Column, len(groupBy))
	for i, g := range groupBy {
		if cols[i], err = p.Sample.Table.Column(g); err != nil {
			return nil, nil, err
		}
	}
	seen := map[string]bool{}
	for i, n := 0, p.Sample.Size(); i < n; i++ {
		key := engine.GroupKey(cols, i)
		if seen[key] {
			continue
		}
		seen[key] = true
		o := make([]float64, len(cols))
		for j, c := range cols {
			o[j] = c.Ordinal(i)
		}
		keys = append(keys, key)
		ords = append(ords, o)
	}
	return keys, ords, nil
}

// pinRanges builds equality ranges pinning each group column to one
// ordinal.
func pinRanges(cols []string, ords []float64) []engine.Range {
	rs := make([]engine.Range, len(cols))
	for i := range cols {
		rs[i] = engine.Range{Col: cols[i], Lo: ords[i], Hi: ords[i]}
	}
	return rs
}
