package core

import (
	"context"
	"fmt"
	"math"

	"aqppp/internal/aqp"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/ident"
)

// AnswerGroupsFast answers a group-by query with the Appendix C
// heuristic: aggregate identification runs once on the group-stripped
// query ("we consider all groups as the same"), and the chosen pre's
// condition-dimension alignment is reused for every group, with the
// group-by dimensions pinned to each group's block. This trades a little
// per-group accuracy for one identification pass instead of one per
// group — the paper's answer to "this may be costly when the number of
// groups is large".
//
// Every per-group answer keeps the φ-guard: a group whose reused pre is
// worse than plain AQP on the full sample falls back to AQP, so the
// result is never worse than AnswerGroups' φ baseline.
func (p *Processor) AnswerGroupsFast(ctx context.Context, q engine.Query) ([]GroupAnswer, error) {
	if len(q.GroupBy) == 0 {
		return nil, fmt.Errorf("core: AnswerGroupsFast needs GROUP BY")
	}
	if p.Cube == nil || q.Func != engine.Sum || p.Cube.Template.Agg != q.Col {
		// Without a usable cube the heuristic has nothing to share.
		return p.AnswerGroups(ctx, q)
	}
	conf := p.confidence()
	scalar := q
	scalar.GroupBy = nil

	sel, err := ident.SelectBest(p.Cube, scalar, p.subsample(), conf)
	if err != nil {
		return nil, err
	}

	// Which cube dimensions are group-by columns? A slice (not a map)
	// keeps the pinning order deterministic.
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

	e := aqp.NewEstimator(p.Sample, conf)
	out := make([]GroupAnswer, 0, len(keys))
	for gi, key := range keys {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		gq := scalar
		gq.Ranges = append(append([]engine.Range(nil), scalar.Ranges...), pinRanges(q.GroupBy, ords[gi])...)

		pre := sel.Pre
		if !pre.IsPhi() && len(groupDims) > 0 {
			pre = pinPreToGroup(p, pre, groupDims, ords[gi])
		}
		ans, _, err := p.answerWithPre(&e, gq, p.Cube, pre, sel.Considered)
		if err != nil {
			return nil, err
		}
		out = append(out, GroupAnswer{Key: key, Answer: ans})
	}
	return out, nil
}

// dimBinding pins one cube dimension (by template index) to a group-by
// column (by position in the GROUP BY list).
type dimBinding struct{ dim, col int }

// pinPreToGroup narrows the shared pre's group dimensions to the block
// containing each group's ordinal.
func pinPreToGroup(p *Processor, pre ident.Pre, groupDims []dimBinding, ords []float64) ident.Pre {
	out := ident.Pre{
		Lo: append([]int(nil), pre.Lo...),
		Hi: append([]int(nil), pre.Hi...),
	}
	for _, b := range groupDims {
		di := b.dim
		ord := ords[b.col]
		// The block containing ord: (largest point < ord, smallest
		// point >= ord], both from BracketLeft's two candidates.
		lo, hi := p.Cube.BracketLeft(di, ord)
		if lo >= hi { // ord above every point: clamp to the last block
			lo = hi - 1
			if lo < -1 {
				return ident.Pre{Phi: true}
			}
		}
		out.Lo[di] = lo
		out.Hi[di] = hi
	}
	return out
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
