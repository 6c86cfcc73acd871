package precompute

import (
	"fmt"
	"slices"
)

// EqualPartition returns k feasible cut positions approximating the
// equal-partition scheme P_eq (Theorem 1): cuts at round(j·n/k) for
// j = 1..k, each snapped to the nearest feasible position when the
// condition attribute has duplicate values (Figure 4a). The last cut is
// always n (footnote 5: the full-domain prefix is always precomputed).
//
// Fewer than k cuts may be returned when the attribute has fewer distinct
// values than k.
func EqualPartition(v *View, k int) ([]int, error) {
	n := v.Len()
	if k < 1 {
		return nil, fmt.Errorf("precompute: k = %d < 1", k)
	}
	if n == 0 {
		return nil, fmt.Errorf("precompute: empty view")
	}
	used := make(map[int]bool)
	var cuts []int
	for j := 1; j <= k; j++ {
		want := j * n / k
		if j == k {
			want = n
		}
		c := want
		if c != n {
			c = v.SnapFeasible(want)
			if c < 0 {
				continue
			}
		}
		if !used[c] {
			used[c] = true
			cuts = append(cuts, c)
		}
	}
	if !used[n] {
		cuts = append(cuts, n)
	}
	slices.Sort(cuts)
	return cuts, nil
}
