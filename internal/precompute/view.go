// Package precompute implements aggregate precomputation (§6 of the
// paper): choosing which BP-Cube to build under a cell budget. It provides
// the equal-partition scheme (optimal under Theorem 1's assumptions), the
// hill-climbing refinement that adapts to data distribution and attribute
// correlation, per-dimension error profiles, the binary-search shape
// determination for multidimensional cubes (Figure 6).
//
// All optimization runs on a sample (the paper's first stage); only the
// final cube construction scans the full data.
package precompute

import (
	"fmt"
	"math"

	"aqppp/internal/engine"
	"aqppp/internal/sample"
	"aqppp/internal/stats"
)

// View is the 1-D optimizer's working representation: the sample's
// aggregation values ordered by one condition attribute's ordinals, with
// prefix sums for O(1) region-variance queries. Rows whose C ordinal is
// NaN match no range, so they hold no position: A and C leave them out,
// and they count only as zeros in each region's variance.
//
// Positions are cut indices in [0, n]: cut i splits rows [0, i) from
// [i, n). A cut is feasible when it does not split equal C ordinals (the
// data-distribution constraint of Figure 4a); cut 0 and cut n are always
// feasible.
type View struct {
	// A holds the aggregation values sorted ascending by C.
	A []float64
	// C holds the corresponding condition ordinals (ascending, never
	// NaN).
	C []float64
	// N is the source table's row count, n is len(A); together with
	// Lambda they scale region deviations into the paper's query errors
	// ε = λ·N·sqrt(Var/n).
	N      int
	Lambda float64

	rows   int       // sample rows, the NaN-C ones included
	prefA  []float64 // prefA[i]  = Σ A[0:i]
	prefA2 []float64 // prefA2[i] = Σ A[0:i]²
}

// NewView builds a view of the sample's aggCol ordered by condCol. An
// empty aggCol means COUNT (all-ones values). Lambda defaults from the
// confidence level (e.g. 0.95 → 1.96).
func NewView(s *sample.Sample, aggCol, condCol string, confidence float64) (*View, error) {
	idx, err := s.Table.SortedIndexByOrdinal(condCol)
	if err != nil {
		return nil, err
	}
	ccol, err := s.Table.Column(condCol)
	if err != nil {
		return nil, err
	}
	v := &View{C: ccol.Ordinals(idx), N: s.SourceRows, Lambda: stats.ZScore(confidence)}
	if aggCol != "" {
		acol, err := s.Table.Column(aggCol)
		if err != nil {
			return nil, err
		}
		v.A = acol.Ordinals(idx)
	} else {
		v.A = make([]float64, len(idx))
		for i := range v.A {
			v.A[i] = 1
		}
	}
	v.finish()
	return v, nil
}

// NewViewFromSlices builds a view directly from parallel A/C slices (not
// necessarily sorted); used by tests and synthetic studies.
func NewViewFromSlices(a, c []float64, sourceRows int, confidence float64) *View {
	if len(a) != len(c) {
		panic("precompute: A/C length mismatch")
	}
	idx := engine.SortedIndexOf(c)
	v := &View{
		A:      make([]float64, len(a)),
		C:      make([]float64, len(c)),
		N:      sourceRows,
		Lambda: stats.ZScore(confidence),
	}
	for i, j := range idx {
		v.A[i] = a[j]
		v.C[i] = c[j]
	}
	v.finish()
	return v
}

// finish drops the trailing run of NaN-C rows the ordinal order leaves,
// keeping them in the row count, and builds the prefix sums.
func (v *View) finish() {
	v.rows = len(v.C)
	n := v.rows
	for n > 0 && math.IsNaN(v.C[n-1]) {
		n--
	}
	v.A, v.C = v.A[:n], v.C[:n]
	v.prefA = make([]float64, n+1)
	v.prefA2 = make([]float64, n+1)
	for i, x := range v.A {
		v.prefA[i+1] = v.prefA[i] + x
		v.prefA2[i+1] = v.prefA2[i] + x*x
	}
}

// Len returns the number of sample rows in the view, which is the last
// cut position; NaN-C rows are not counted.
func (v *View) Len() int { return len(v.A) }

// regionDeviation returns sqrt(Var(A·1[rows lo..hi)])) where the variance
// is over all n sample rows with zeros outside [lo, hi) — the paper's
// Var(A·cond(C∈L)) — in O(1) via prefix sums.
func (v *View) regionDeviation(lo, hi int) float64 {
	n := float64(v.rows)
	if n == 0 || lo >= hi {
		return 0
	}
	s := v.prefA[hi] - v.prefA[lo]
	s2 := v.prefA2[hi] - v.prefA2[lo]
	variance := s2/n - (s/n)*(s/n)
	if variance < 0 {
		variance = 0 // numeric guard
	}
	return math.Sqrt(variance)
}

// errScale converts a deviation into the paper's ε units: λ·N/√n.
func (v *View) errScale() float64 {
	n := float64(v.rows)
	if n == 0 {
		return 0
	}
	return v.Lambda * float64(v.N) / math.Sqrt(n)
}

// Feasible reports whether cut position i does not split duplicate C
// ordinals.
func (v *View) Feasible(i int) bool {
	if i <= 0 || i >= len(v.C) {
		return true
	}
	return !stats.ExactEqual(v.C[i], v.C[i-1])
}

// SnapFeasible returns the feasible cut position closest to i (ties break
// toward the left), or -1 if none exists strictly inside (0, n). This is
// the initialization rule of §6.1.2(1).
func (v *View) SnapFeasible(i int) int {
	n := len(v.C)
	if i < 0 {
		i = 0
	}
	if i > n {
		i = n
	}
	for d := 0; d < n; d++ {
		if l := i - d; l > 0 && l < n && v.Feasible(l) {
			return l
		}
		if r := i + d; r > 0 && r < n && v.Feasible(r) {
			return r
		}
	}
	return -1
}

// CutsToPoints converts cut positions (ascending, last == n) into BP-Cube
// partition-point ordinals: cut c maps to the ordinal of the last row
// before it. Cuts must be feasible so the ordinals are strictly ascending.
func (v *View) CutsToPoints(cuts []int) ([]float64, error) {
	pts := make([]float64, 0, len(cuts))
	for _, c := range cuts {
		if c <= 0 || c > len(v.C) {
			return nil, fmt.Errorf("precompute: cut %d out of range", c)
		}
		if !v.Feasible(c) {
			return nil, fmt.Errorf("precompute: cut %d splits duplicate ordinals", c)
		}
		pts = append(pts, v.C[c-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			return nil, fmt.Errorf("precompute: cuts produce non-ascending ordinals")
		}
	}
	return pts, nil
}
