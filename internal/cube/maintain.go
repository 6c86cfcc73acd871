package cube

import (
	"fmt"
	"sort"
)

// ExtendDomain raises dimension dim's last partition point to cover ord
// (a no-op when ord is already covered). Growing data can exceed the
// domain the cube was built over; because the last point always carries
// the full-domain prefix (footnote 5), sliding it outward preserves every
// cell's meaning.
func (c *BPCube) ExtendDomain(dim int, ord float64) {
	p := c.Points[dim]
	if ord > p[len(p)-1] {
		p[len(p)-1] = ord
	}
}

// Insert incrementally maintains the cube for one new row (Appendix C,
// "Data Updates"): the row's aggregate value is added to every prefix
// cell whose corner dominates the row's ordinals. Cost is O(∏ k_i) in the
// worst case but proportional to the dominated sub-grid in practice.
func (c *BPCube) Insert(ordinals []float64, value float64) error {
	d := c.Dims()
	if len(ordinals) != d {
		return fmt.Errorf("cube: Insert got %d ordinals for %d dims", len(ordinals), d)
	}
	start := make([]int, d)
	for i, ord := range ordinals {
		j := sort.SearchFloat64s(c.Points[i], ord) // first point >= ord
		if j == len(c.Points[i]) {
			return fmt.Errorf("cube: ordinal %v above dim %d's last partition point", ord, i)
		}
		start[i] = j
	}
	// Walk the dominated sub-grid [start_i, k_i) in odometer order.
	idx := make([]int, d)
	copy(idx, start)
	for {
		c.Cells[c.cellIndex(idx)] += value
		a := d - 1
		for a >= 0 {
			idx[a]++
			if idx[a] < len(c.Points[a]) {
				break
			}
			idx[a] = start[a]
			a--
		}
		if a < 0 {
			break
		}
	}
	c.SourceRows++
	return nil
}
