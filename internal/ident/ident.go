// Package ident implements aggregate identification (§5 of the paper):
// given a user range query and a BP-Cube, it enumerates the candidate set
// P⁻ of at most 4^d + 1 precomputed aggregates (Equations 6 and 7) and
// selects the one minimizing the estimated query error on a subsample.
package ident

import (
	"fmt"
	"math"
	"strings"

	"aqppp/internal/aqp"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/sample"
)

// Pre identifies one precomputed aggregate in P⁺: per cube dimension i the
// half-open ordinal region (Points[i][Lo[i]], Points[i][Hi[i]]], with
// Lo[i] = -1 extending to the start. The empty aggregate φ is represented
// by Phi == true.
type Pre struct {
	Lo, Hi []int
	Phi    bool
}

// IsPhi reports whether the aggregate is the empty query φ (pre(D) = 0),
// in which case AQP++ degenerates to plain AQP.
func (p Pre) IsPhi() bool { return p.Phi }

// String renders the pre in the paper's SUM(x+1:y) index style.
func (p Pre) String() string {
	if p.Phi {
		return "φ"
	}
	var sb strings.Builder
	sb.WriteString("pre[")
	for i := range p.Lo {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d:%d]", p.Lo[i], p.Hi[i])
	}
	sb.WriteString("]")
	return sb.String()
}

// Value returns pre(D), the exact precomputed aggregate, from the cube.
func (p Pre) Value(c *cube.BPCube) float64 {
	if p.Phi {
		return 0
	}
	return c.RangeSum(p.Lo, p.Hi)
}

// Candidates enumerates P⁻ for the query (Equation 7): for every cube
// dimension restricted by the query, the left endpoint brackets {l_x, h_x}
// cross the right endpoint brackets {l_y, h_y}; unrestricted dimensions
// contribute their full range. Degenerate combinations (u_i >= v_i,
// meaning an empty or inverted region) collapse to φ and are dropped; φ
// itself is always included, so plain AQP remains available.
//
// Ranges in the query on columns outside the cube's dimensions do not
// constrain the pre (the framework permits any pre; the diff estimator
// stays unbiased), and multiple ranges on one dimension are intersected.
func Candidates(c *cube.BPCube, q engine.Query) ([]Pre, error) {
	return CandidatesCapped(c, q, DefaultMaxCandidates)
}

// DefaultMaxCandidates bounds |P⁻| for high-dimensional cubes. The exact
// enumeration is 4^d + 1, which is prohibitive past d ≈ 6; beyond the cap
// the dimensions with the widest bracket gaps keep their full 2×2 choice
// and the rest snap each endpoint to its nearest partition point (a
// single choice per side), mirroring the paper's observation that the
// subsampling rate — and hence the identification effort — must shrink as
// 4^d grows (§7.3).
const DefaultMaxCandidates = 4096

// CandidatesCapped is Candidates with an explicit candidate budget
// (maxCandidates <= 0 means unlimited).
func CandidatesCapped(c *cube.BPCube, q engine.Query, maxCandidates int) ([]Pre, error) {
	d := c.Dims()
	left := make([]bracket, d)
	right := make([]bracket, d)
	for i := 0; i < d; i++ {
		left[i].cands = []int{-1}
		right[i].cands = []int{len(c.Points[i]) - 1}
	}
	queryLo := make([]float64, d)
	queryHi := make([]float64, d)
	restricted := make([]bool, d)
	for _, r := range q.Ranges {
		dim := -1
		for i, name := range c.Template.Dims {
			if name == r.Col {
				dim = i
				break
			}
		}
		if dim < 0 {
			continue // non-cube column: pre cannot restrict it
		}
		if r.Lo > r.Hi {
			return nil, fmt.Errorf("ident: inverted range on %q", r.Col)
		}
		lLo, lHi := c.BracketLeft(dim, r.Lo)
		rLo, rHi := c.BracketRight(dim, r.Hi)
		left[dim].cands = dedupInts(lLo, lHi)
		right[dim].cands = dedupInts(rLo, rHi)
		left[dim].gap = bracketGap(c, dim, lLo, lHi)
		right[dim].gap = bracketGap(c, dim, rLo, rHi)
		queryLo[dim], queryHi[dim] = r.Lo, r.Hi
		restricted[dim] = true
	}
	if maxCandidates > 0 {
		total := 1
		over := false
		for i := 0; i < d; i++ {
			total *= len(left[i].cands) * len(right[i].cands)
			if total > maxCandidates {
				over = true
				break
			}
		}
		if over {
			collapseToBudget(c, left, right, queryLo, queryHi, restricted, maxCandidates)
		}
	}

	// Each dimension's left and right choices are duplicate-free
	// (dedupInts, or one choice each after collapseToBudget), so the
	// cross product below yields every candidate once.
	out := []Pre{{Phi: true}}
	lo := make([]int, d)
	hi := make([]int, d)
	var rec func(i int)
	rec = func(i int) {
		if i == d {
			out = append(out, Pre{Lo: append([]int(nil), lo...), Hi: append([]int(nil), hi...)})
			return
		}
		for _, u := range left[i].cands {
			for _, v := range right[i].cands {
				if u >= v {
					continue // empty region on this dimension → φ
				}
				lo[i], hi[i] = u, v
				rec(i + 1)
			}
		}
	}
	rec(0)
	return out, nil
}

func dedupInts(a, b int) []int {
	if a == b {
		return []int{a}
	}
	return []int{a, b}
}

// bracket holds one endpoint's candidate partition-point indices and the
// ordinal distance between the choices (a large gap means the choice
// matters more under the candidate cap).
type bracket struct {
	cands []int
	gap   float64
}

// bracketGap measures the ordinal spread between two bracket choices; a
// large gap means the choice matters more.
func bracketGap(c *cube.BPCube, dim, a, b int) float64 {
	if a == b {
		return 0
	}
	return pointOrdinal(c, dim, b) - pointOrdinal(c, dim, a)
}

// pointOrdinal returns the ordinal of partition point j, with j = -1
// mapped to a virtual point one average block below the first.
func pointOrdinal(c *cube.BPCube, dim, j int) float64 {
	p := c.Points[dim]
	if j >= 0 {
		return p[j]
	}
	if len(p) > 1 {
		return p[0] - (p[len(p)-1]-p[0])/float64(len(p)-1)
	}
	return p[0] - 1
}

// collapseToBudget shrinks per-dimension bracket choices until the cross
// product fits the budget: dimensions are collapsed in ascending order of
// their bracket gap (least consequential first), each endpoint snapping
// to its nearest partition point.
func collapseToBudget(c *cube.BPCube, left, right []bracket, queryLo, queryHi []float64, restricted []bool, budget int) {
	d := len(left)
	type dimGap struct {
		dim int
		gap float64
	}
	order := make([]dimGap, 0, d)
	for i := 0; i < d; i++ {
		order = append(order, dimGap{dim: i, gap: left[i].gap + right[i].gap})
	}
	// Insertion sort ascending by gap.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && order[j].gap < order[j-1].gap; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	product := func() int {
		total := 1
		for i := 0; i < d; i++ {
			total *= len(left[i].cands) * len(right[i].cands)
			if total > budget {
				return total
			}
		}
		return total
	}
	for _, dg := range order {
		if product() <= budget {
			break
		}
		i := dg.dim
		if !restricted[i] {
			continue
		}
		left[i].cands = []int{nearestChoice(c, i, left[i].cands, queryLo[i])}
		right[i].cands = []int{nearestChoice(c, i, right[i].cands, queryHi[i])}
	}
}

// nearestChoice keeps the bracket index whose partition point lies
// closest to the query endpoint.
func nearestChoice(c *cube.BPCube, dim int, cands []int, endpoint float64) int {
	best := cands[0]
	bestDist := math.Abs(endpoint - pointOrdinal(c, dim, best))
	for _, j := range cands[1:] {
		if dist := math.Abs(endpoint - pointOrdinal(c, dim, j)); dist < bestDist {
			best = j
			bestDist = dist
		}
	}
	return best
}

// DiffLane returns the lane whose estimated total is q(D) − pre(D)
// (Equation 4): q's condition lane (aqp.ConditionLane) with the pre's
// rows as Minus, so its values are a_i · (cond_q(i) − cond_pre(i)).
// COUNT templates use a_i = 1. For φ it is the condition lane.
func DiffLane(s *sample.Sample, c *cube.BPCube, q engine.Query, pre Pre) (aqp.Lane, error) {
	l, err := aqp.ConditionLane(s, q)
	if err != nil || pre.IsPhi() {
		return l, err
	}
	in, err := Membership(s, c, pre)
	if err != nil {
		return aqp.Lane{}, err
	}
	l.Minus = in.Words()
	return l, nil
}

// Membership returns the bitset of sample rows inside the pre's region,
// the conjunction of its per-dimension brackets — so the whole box is
// one conjunctive filter on the engine's compare kernels. pre must not
// be φ.
func Membership(s *sample.Sample, c *cube.BPCube, pre Pre) (*engine.Bitset, error) {
	box := make([]engine.Range, len(c.Template.Dims))
	for i := range box {
		box[i] = bracketRange(c, i, pre.Lo[i], pre.Hi[i])
	}
	return s.Table.Filter(box)
}

// bracketRange is dimension dim's half-open region
// (Points[u], Points[v]] (u = -1: from the start) as an inclusive
// Range: on float64 ordinals the open end is the closed range from its
// successor.
func bracketRange(c *cube.BPCube, dim, u, v int) engine.Range {
	lo := math.Inf(-1)
	if u >= 0 {
		lo = math.Nextafter(c.Points[dim][u], math.Inf(1))
	}
	return engine.Range{Col: c.Template.Dims[dim], Lo: lo, Hi: c.Points[dim][v]}
}

// Selection is the outcome of aggregate identification.
type Selection struct {
	Pre Pre
	// SubsampleError is the estimated query error (CI half-width) of the
	// chosen pre on the scoring subsample.
	SubsampleError float64
	// Considered is |P⁻|, the number of candidates scored.
	Considered int
}

// SelectBest scores every P⁻ candidate on the subsample sub — estimating
// error(q, pre) as the CI half-width of the diff estimator (§5.2) — and
// returns the argmin (the first candidate reaching it, in Candidates
// order). The subsample should be much smaller than the full sample (the
// paper uses rate ≤ 1/4^d) so identification stays cheaper than
// answering.
func SelectBest(c *cube.BPCube, q engine.Query, sub *sample.Sample, confidence float64) (Selection, error) {
	cands, err := Candidates(c, q)
	if err != nil {
		return Selection{}, err
	}
	sc, err := newScorer(c, q, sub, confidence)
	if err != nil {
		return Selection{}, err
	}
	for _, pre := range cands {
		if err := sc.add(pre); err != nil {
			return Selection{}, err
		}
	}
	return sc.result(), nil
}

// BruteForceBest scores every aggregate in P⁺ — every (u, v) index pair
// combination — on the subsample and returns the argmin. It is
// exponentially more expensive than SelectBest and exists to validate the
// P⁻ reduction (Lemma 3) in tests and ablation benchmarks.
func BruteForceBest(c *cube.BPCube, q engine.Query, sub *sample.Sample, confidence float64) (Selection, error) {
	sc, err := newScorer(c, q, sub, confidence)
	if err != nil {
		return Selection{}, err
	}
	if err := sc.add(Pre{Phi: true}); err != nil {
		return Selection{}, err
	}
	d := c.Dims()
	lo := make([]int, d)
	hi := make([]int, d)
	var rec func(i int) error
	rec = func(i int) error {
		if i == d {
			return sc.add(Pre{Lo: append([]int(nil), lo...), Hi: append([]int(nil), hi...)})
		}
		k := len(c.Points[i])
		for u := -1; u < k; u++ {
			for v := u + 1; v < k; v++ {
				lo[i], hi[i] = u, v
				if err := rec(i + 1); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return Selection{}, err
	}
	return sc.result(), nil
}

// scorer estimates error(q, pre) on one subsample for a stream of
// candidates. Everything candidates share is computed once: the query's
// condition lane (φ's own lane), the estimator, and the row set of each
// distinct per-dimension bracket (P⁻ has at most four per dimension). A
// candidate's region is the AND of its d bracket sets, and its diff
// lane is the condition lane with that region as Minus, so scoring it
// reads only the rows where the query and the region disagree.
type scorer struct {
	c   *cube.BPCube
	sub *sample.Sample

	est      aqp.Estimator
	cond     aqp.Lane // φ's lane, and every candidate's start
	brackets map[bracketKey]*engine.Bitset
	inside   []uint64 // scratch: the candidate's bracket AND

	best   Selection
	scored int
}

type bracketKey struct{ dim, u, v int }

func newScorer(c *cube.BPCube, q engine.Query, sub *sample.Sample, conf float64) (*scorer, error) {
	cond, err := aqp.ConditionLane(sub, q)
	if err != nil {
		return nil, err
	}
	return &scorer{
		c: c, sub: sub,
		est:      aqp.NewEstimator(sub, conf),
		cond:     cond,
		brackets: make(map[bracketKey]*engine.Bitset),
		inside:   make([]uint64, len(cond.Plus)),
	}, nil
}

// add scores one candidate, keeping the first strict minimum in the
// order candidates arrive.
func (sc *scorer) add(p Pre) error {
	l := sc.cond
	if !p.IsPhi() {
		region, err := sc.region(p)
		if err != nil {
			return err
		}
		l.Minus = region
	}
	est, _ := sc.est.Total(l)
	if hw := est.HalfWidth; sc.scored == 0 || hw < sc.best.SubsampleError {
		sc.best.Pre = p
		sc.best.SubsampleError = hw
	}
	sc.scored++
	return nil
}

// region returns the selection words of the rows inside p: the AND of
// its per-dimension bracket sets, in scratch reused across candidates.
func (sc *scorer) region(p Pre) ([]uint64, error) {
	for dim := range p.Lo {
		k := bracketKey{dim, p.Lo[dim], p.Hi[dim]}
		b, ok := sc.brackets[k]
		if !ok {
			var err error
			if b, err = sc.sub.Table.Filter([]engine.Range{bracketRange(sc.c, dim, k.u, k.v)}); err != nil {
				return nil, err
			}
			sc.brackets[k] = b
		}
		if dim == 0 {
			copy(sc.inside, b.Words())
			continue
		}
		for i, w := range b.Words() {
			sc.inside[i] &= w
		}
	}
	return sc.inside, nil
}

// result returns the selection.
func (sc *scorer) result() Selection {
	sc.best.Considered = sc.scored
	return sc.best
}
