package precompute

import (
	"context"
	"fmt"
	"math"
	"slices"
)

// AdjustMode selects the hill-climbing adjustment strategy compared in
// Figure 8.
type AdjustMode uint8

const (
	// Global considers every partition point as a removal candidate each
	// iteration (the paper's approach, "Hill Climb (global)").
	Global AdjustMode = iota
	// Local only considers the (up to four) partition points adjacent to
	// the two worst positions i1 and i2 ("Hill Climb (local)"), which
	// converges early to poorer optima.
	Local
)

// String implements fmt.Stringer.
func (m AdjustMode) String() string {
	if m == Local {
		return "local"
	}
	return "global"
}

// ClimbResult reports a hill-climbing run.
type ClimbResult struct {
	// Cuts is the final partition (ascending cut positions, last == n).
	Cuts []int
	// Trace holds error_up(Q, P) before each iteration plus the final
	// value, so Trace[0] is the initial scheme's bound and
	// Trace[len-1] the converged bound (Figure 8's y-axis).
	Trace []float64
	// Iterations is the number of accepted moves.
	Iterations int
}

// ErrorUp returns the paper's upper bound error_up(Q, P) for the given
// cuts: the sum of the two largest error_i over all positions (Lemma 6
// applied at the worst pair of endpoints).
func ErrorUp(v *View, cuts []int) float64 {
	e1, e2, _, _ := worstTwo(v, cuts)
	return e1 + e2
}

// PositionErrors computes error_i for every cut position i in [0, n]:
// the cheaper of estimating the region between i and the next partition
// point, or its complement within the block (§6.1.2(2)), scaled to ε
// units.
//
// Infeasible positions (those splitting duplicate C ordinals) report 0:
// a query endpoint is always a domain value, so it can only land on a
// boundary between distinct ordinals — and a partition point could never
// be placed at an infeasible position anyway.
func PositionErrors(v *View, cuts []int) []float64 {
	n := v.Len()
	errs := make([]float64, n+1)
	scale := v.errScale()
	prev := 0
	ci := 0
	for i := 0; i <= n; i++ {
		for ci < len(cuts) && cuts[ci] < i {
			prev = cuts[ci]
			ci++
		}
		next := n
		if ci < len(cuts) {
			next = cuts[ci]
		}
		if i == prev || i == next || !v.Feasible(i) {
			errs[i] = 0
			continue
		}
		left := v.regionDeviation(prev, i)  // estimate the complement L̄
		right := v.regionDeviation(i, next) // estimate L directly
		errs[i] = scale * math.Min(left, right)
	}
	return errs
}

// worstTwo returns the two largest error_i values and their positions.
func worstTwo(v *View, cuts []int) (e1, e2 float64, i1, i2 int) {
	errs := PositionErrors(v, cuts)
	i1, i2 = -1, -1
	for i, e := range errs {
		if i1 < 0 || e > e1 {
			e2, i2 = e1, i1
			e1, i1 = e, i
		} else if i2 < 0 || e > e2 {
			e2, i2 = e, i
		}
	}
	return e1, e2, i1, i2
}

// ClimbConfig bounds a hill-climbing run.
type ClimbConfig struct {
	// Mode selects Global or Local adjustment.
	Mode AdjustMode
	// MaxIterations caps accepted moves (default 200).
	MaxIterations int
}

// HillClimb refines an initial partition by repeatedly moving one cut:
// the removal candidate whose merged block's worst error_i is smallest is
// moved to (the feasible snap of) i1 or i2, whichever yields the lower
// error_up; the move is kept only if error_up strictly decreases
// (§6.1.2(3)-(4)). The final cut at position n is never moved (footnote
// 5: the full prefix is always kept).
//
// ctx is checked once per climb step, so a canceled Prepare unwinds
// within one iteration and returns ctx's error.
func HillClimb(ctx context.Context, v *View, initial []int, cfg ClimbConfig) (ClimbResult, error) {
	n := v.Len()
	if len(initial) == 0 || initial[len(initial)-1] != n {
		return ClimbResult{}, fmt.Errorf("precompute: initial cuts must end at n=%d", n)
	}
	maxIters := cfg.MaxIterations
	if maxIters <= 0 {
		maxIters = 200
	}
	cuts := append([]int(nil), initial...)
	cur := ErrorUp(v, cuts)
	res := ClimbResult{Trace: []float64{cur}}
	const eps = 1e-12

	for iter := 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return ClimbResult{}, err
		}
		_, _, i1, i2 := worstTwo(v, cuts)
		removable := removalCandidates(v, cuts, i1, i2, cfg.Mode)
		if len(removable) == 0 {
			break
		}
		// Pick the cut whose removal least increases the local error.
		bestJ := -1
		bestCost := math.Inf(1)
		for _, j := range removable {
			cost := removalCost(v, cuts, j)
			if cost < bestCost {
				bestCost = cost
				bestJ = j
			}
		}
		if bestJ < 0 {
			break
		}
		improved := false
		bestNew := cur
		var bestCuts []int
		for _, target := range []int{i1, i2} {
			t := v.SnapFeasible(target)
			if t <= 0 || t >= n || containsInt(cuts, t) {
				continue
			}
			trial := moveCut(cuts, bestJ, t)
			e := ErrorUp(v, trial)
			if e < bestNew-eps {
				bestNew = e
				bestCuts = trial
				improved = true
			}
		}
		if !improved {
			break
		}
		cuts = bestCuts
		cur = bestNew
		res.Iterations++
		res.Trace = append(res.Trace, cur)
	}
	res.Cuts = cuts
	return res, nil
}

// removalCandidates lists indices (into cuts) eligible for removal. The
// final cut is excluded. Local mode keeps only cuts bounding the blocks
// of i1 and i2.
func removalCandidates(v *View, cuts []int, i1, i2 int, mode AdjustMode) []int {
	last := len(cuts) - 1
	if mode == Global {
		out := make([]int, 0, last)
		for j := 0; j < last; j++ {
			out = append(out, j)
		}
		return out
	}
	// At most four candidates (two bounding cuts per position); a sorted
	// slice with dedup keeps the order deterministic.
	var want []int
	for _, pos := range []int{i1, i2} {
		lo, hi := blockCutIndices(cuts, pos)
		if lo >= 0 && lo < last {
			want = append(want, lo)
		}
		if hi >= 0 && hi < last {
			want = append(want, hi)
		}
	}
	slices.Sort(want)
	out := want[:0]
	for i, j := range want {
		if i == 0 || j != want[i-1] {
			out = append(out, j)
		}
	}
	return out
}

// blockCutIndices returns the indices (into cuts) of the cuts bounding the
// block containing position pos: the largest cut < pos and the smallest
// cut >= pos. Either may be -1 when pos lies before the first cut.
func blockCutIndices(cuts []int, pos int) (lo, hi int) {
	lo, hi = -1, -1
	for j, c := range cuts {
		if c < pos {
			lo = j
		} else {
			hi = j
			break
		}
	}
	return lo, hi
}

// removalCost is the maximum error_i within the merged block after
// removing cuts[j] (the paper's "maximum error among the changed points").
func removalCost(v *View, cuts []int, j int) float64 {
	prev := 0
	if j > 0 {
		prev = cuts[j-1]
	}
	next := v.Len()
	if j+1 < len(cuts) {
		next = cuts[j+1]
	}
	scale := v.errScale()
	worst := 0.0
	for i := prev + 1; i < next; i++ {
		if !v.Feasible(i) {
			continue
		}
		left := v.regionDeviation(prev, i)
		right := v.regionDeviation(i, next)
		if e := scale * math.Min(left, right); e > worst {
			worst = e
		}
	}
	return worst
}

// moveCut returns a copy of cuts with index j removed and position t
// inserted, kept sorted.
func moveCut(cuts []int, j, t int) []int {
	out := make([]int, 0, len(cuts))
	for i, c := range cuts {
		if i != j {
			out = append(out, c)
		}
	}
	out = append(out, t)
	slices.Sort(out)
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Optimize1D runs the full 1-D pipeline: equal-partition initialization
// (feasibility-snapped) followed by hill climbing.
func Optimize1D(ctx context.Context, v *View, k int, cfg ClimbConfig) (ClimbResult, error) {
	init, err := EqualPartition(v, k)
	if err != nil {
		return ClimbResult{}, err
	}
	return HillClimb(ctx, v, init, cfg)
}
