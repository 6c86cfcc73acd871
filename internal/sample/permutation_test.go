package sample

import (
	"slices"
	"sort"
	"testing"

	"aqppp/internal/stats"
)

// TestPermutationDrawsEachRowOnce: drawing past the end in uneven
// batches yields every row of [0, n) exactly once and leaves no
// displaced entry behind.
func TestPermutationDrawsEachRowOnce(t *testing.T) {
	const n = 40000
	r := stats.NewRNG(95)
	p := NewPermutation(n)
	var rows []int
	for len(rows) < n {
		rows = p.Draw(r, 7919, rows)
	}
	if rows = p.Draw(r, 1, rows); len(rows) != n {
		t.Fatalf("exhausted permutation grew to %d", len(rows))
	}
	sorted := slices.Clone(rows)
	slices.Sort(sorted)
	for i, row := range sorted {
		if row != i {
			t.Fatalf("not a permutation of [0, %d): sorted[%d] = %d", n, i, row)
		}
	}
	if p.displaced.live != 0 {
		t.Errorf("%d displaced entries left after the last position", p.displaced.live)
	}
}

// TestPickDistinctMatchesMapShuffle holds pickDistinct to the map-based
// partial Fisher–Yates the samplers drew with before Permutation: the
// same RNG stream must pick the same rows.
func TestPickDistinctMatchesMapShuffle(t *testing.T) {
	reference := func(r *stats.RNG, n, size int) []int {
		swapped := make(map[int]int, size*2)
		at := func(i int) int {
			if v, ok := swapped[i]; ok {
				return v
			}
			return i
		}
		out := make([]int, size)
		for i := 0; i < size; i++ {
			j := i + r.Intn(n-i)
			out[i] = at(j)
			swapped[j] = at(i)
		}
		sort.Ints(out)
		return out
	}
	for _, c := range [][2]int{{1, 1}, {10, 10}, {100, 7}, {5000, 2500}, {100000, 1000}} {
		for seed := uint64(1); seed <= 3; seed++ {
			want := reference(stats.NewRNG(seed), c[0], c[1])
			if got := pickDistinct(stats.NewRNG(seed), c[0], c[1]); !slices.Equal(got, want) {
				t.Errorf("n=%d size=%d seed=%d: rows differ from the map shuffle", c[0], c[1], seed)
			}
		}
	}
}
