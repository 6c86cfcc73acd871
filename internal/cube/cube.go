// Package cube implements aggregate precomputation: the blocked prefix
// cube (BP-Cube) of Ho et al. [34] that the paper builds its AggPre side
// on. The complete P-Cube is the BP-Cube whose partition points are every
// distinct value; only its cell count is ever needed (Table 1).
//
// A BP-Cube over a template [SUM(A), C1..Cd] stores, for every grid point
// (t_1,...,t_d) drawn from per-dimension partition-point lists, the exact
// prefix aggregate SUM over all rows with ord(C_i) <= t_i for every i.
// Any range whose endpoints align with partition points is then answered
// exactly from at most 2^d cells by inclusion-exclusion (§3, Figure 1).
package cube

import (
	"fmt"
	"math"
	"sort"

	"aqppp/internal/engine"
)

// Template names the aggregation column and the condition (dimension)
// columns of a query template. An empty Agg means COUNT: each row
// contributes 1 (the paper's virtual all-ones attribute, Appendix C).
type Template struct {
	Agg  string
	Dims []string
}

// String implements fmt.Stringer in the paper's [SUM(A), C1, ...] style.
func (t Template) String() string {
	agg := t.Agg
	if agg == "" {
		agg = "*"
	}
	s := "[SUM(" + agg + ")"
	for _, d := range t.Dims {
		s += ", " + d
	}
	return s + "]"
}

// BPCube is a blocked prefix cube: dense prefix sums over a
// k_1 × k_2 × ... × k_d grid of partition points.
type BPCube struct {
	Template Template
	// Points[i] is dimension i's ascending partition-point list (the
	// paper's dom(C_i)_small). The last point is always >= the dimension's
	// maximum ordinal so the full-domain prefix is representable
	// (footnote 5: t_k = |dom(C)|).
	Points [][]float64
	// Cells is the dense row-major prefix-sum array of size Πk_i:
	// Cells[idx(j_1..j_d)] = SUM over rows with ord(C_i) <= Points[i][j_i].
	Cells []float64
	// SourceRows is the number of rows the cube was built over.
	SourceRows int
	// strides caches the row-major strides for cell addressing.
	strides []int
}

// Dims returns the number of dimensions.
func (c *BPCube) Dims() int { return len(c.Points) }

// Shape returns k_i per dimension.
func (c *BPCube) Shape() []int {
	s := make([]int, len(c.Points))
	for i, p := range c.Points {
		s[i] = len(p)
	}
	return s
}

// NumCells returns the number of precomputed cells |P|.
func (c *BPCube) NumCells() int { return len(c.Cells) }

// SizeBytes returns the cube's storage footprint: cells plus partition
// points (the paper's preprocessing-space metric).
func (c *BPCube) SizeBytes() int64 {
	n := int64(len(c.Cells)) * 8
	for _, p := range c.Points {
		n += int64(len(p)) * 8
	}
	return n
}

// TotalSum returns the full-domain aggregate (the last cell).
func (c *BPCube) TotalSum() float64 {
	if len(c.Cells) == 0 {
		return 0
	}
	return c.Cells[len(c.Cells)-1]
}

func (c *BPCube) computeStrides() {
	d := len(c.Points)
	c.strides = make([]int, d)
	stride := 1
	for i := d - 1; i >= 0; i-- {
		c.strides[i] = stride
		stride *= len(c.Points[i])
	}
}

// Assemble builds a BP-Cube from persisted parts: the template, the
// per-dimension partition points, the dense row-major prefix cells and
// the source row count. The cells must number exactly Πk_i, a product
// that must not overflow int.
func Assemble(tmpl Template, points [][]float64, cells []float64, sourceRows int) (*BPCube, error) {
	if len(points) != len(tmpl.Dims) {
		return nil, fmt.Errorf("cube: %d point lists for %d dims", len(points), len(tmpl.Dims))
	}
	want := 1
	for i, p := range points {
		if len(p) != 0 && want > math.MaxInt/len(p) {
			return nil, fmt.Errorf("cube: shape overflows at dimension %d", i)
		}
		want *= len(p)
	}
	if len(cells) != want {
		return nil, fmt.Errorf("cube: %d cells but shape implies %d", len(cells), want)
	}
	c := &BPCube{Template: tmpl, Points: points, Cells: cells, SourceRows: sourceRows}
	c.computeStrides()
	return c, nil
}

// cellIndex converts per-dimension indices to the flat cell offset.
func (c *BPCube) cellIndex(idx []int) int {
	off := 0
	for i, j := range idx {
		off += j * c.strides[i]
	}
	return off
}

// Build constructs a BP-Cube over tbl with the given per-dimension
// partition points, using the Ho et al. algorithm: one scan to bucket
// every row into the grid, then one prefix-sum pass along each axis.
// Partition points must be strictly ascending per dimension; a final
// point covering the dimension's max ordinal is appended if missing.
func Build(tbl *engine.Table, tmpl Template, points [][]float64) (*BPCube, error) {
	if len(points) != len(tmpl.Dims) {
		return nil, fmt.Errorf("cube: %d point lists for %d dims", len(points), len(tmpl.Dims))
	}
	if len(tmpl.Dims) == 0 {
		return nil, fmt.Errorf("cube: template needs at least one dimension")
	}
	var aggCol *engine.Column
	if tmpl.Agg != "" {
		var err error
		aggCol, err = tbl.Column(tmpl.Agg)
		if err != nil {
			return nil, err
		}
	}
	dimCols := make([]*engine.Column, len(tmpl.Dims))
	for i, d := range tmpl.Dims {
		col, err := tbl.Column(d)
		if err != nil {
			return nil, err
		}
		dimCols[i] = col
	}
	c := &BPCube{Template: tmpl, SourceRows: tbl.NumRows()}
	c.Points = make([][]float64, len(points))
	for i, p := range points {
		cp := make([]float64, len(p))
		copy(cp, p)
		for j, v := range cp {
			if math.IsNaN(v) {
				return nil, fmt.Errorf("cube: dim %d point %d is NaN", i, j)
			}
			if j > 0 && v <= cp[j-1] {
				return nil, fmt.Errorf("cube: dim %d points not strictly ascending at %d", i, j)
			}
		}
		_, hi := dimCols[i].OrdinalDomain()
		if len(cp) == 0 || cp[len(cp)-1] < hi {
			cp = append(cp, hi)
		}
		c.Points[i] = cp
	}
	c.computeStrides()
	total := 1
	for _, p := range c.Points {
		total *= len(p)
	}
	c.Cells = make([]float64, total)

	// Pass 1: bucket each row into its owning grid cell.
	idx := make([]int, len(c.Points))
	n := tbl.NumRows()
	for row := 0; row < n; row++ {
		ok := true
		for i, col := range dimCols {
			ord := col.Ordinal(row)
			j := sort.SearchFloat64s(c.Points[i], ord) // first point >= ord
			if j == len(c.Points[i]) {
				ok = false // a NaN ordinal, which no range selects
				break
			}
			idx[i] = j
		}
		if !ok {
			continue
		}
		v := 1.0
		if aggCol != nil {
			v = aggCol.Float(row)
		}
		c.Cells[c.cellIndex(idx)] += v
	}

	// Pass 2: prefix-sum along each axis (d passes).
	for axis := 0; axis < len(c.Points); axis++ {
		c.prefixAxis(axis)
	}
	return c, nil
}

// prefixAxis accumulates running sums along one axis of the dense array.
func (c *BPCube) prefixAxis(axis int) {
	cells := c.Cells
	k := len(c.Points[axis])
	stride := c.strides[axis]
	// Iterate all "lines" along the axis: the flat array decomposes into
	// outer-block × axis × inner-stride.
	outer := len(cells) / (k * stride)
	for o := 0; o < outer; o++ {
		base := o * k * stride
		for inner := 0; inner < stride; inner++ {
			off := base + inner
			for j := 1; j < k; j++ {
				cells[off+j*stride] += cells[off+(j-1)*stride]
			}
		}
	}
}

// PrefixSum returns the prefix aggregate at per-dimension point indices
// idx (idx[i] in [-1, k_i)); index -1 denotes the empty prefix along that
// dimension and yields 0 for the whole lookup.
func (c *BPCube) PrefixSum(idx []int) float64 {
	off := 0
	for i, j := range idx {
		if j < 0 {
			return 0
		}
		if j >= len(c.Points[i]) {
			panic(fmt.Sprintf("cube: prefix index %d out of range for dim %d", j, i))
		}
		off += j * c.strides[i]
	}
	return c.Cells[off]
}

// RangeSum returns the exact aggregate over the half-open region
// ∏(Points[i][lo[i]], Points[i][hi[i]]] by 2^d-corner inclusion-exclusion.
// lo[i] = -1 extends the region to the start of dimension i. It requires
// lo[i] <= hi[i]; an empty region (lo[i] == hi[i]) returns 0.
func (c *BPCube) RangeSum(lo, hi []int) float64 {
	d := len(c.Points)
	if len(lo) != d || len(hi) != d {
		panic("cube: RangeSum dimension mismatch")
	}
	for i := range lo {
		if lo[i] > hi[i] {
			panic(fmt.Sprintf("cube: RangeSum lo > hi on dim %d", i))
		}
		if lo[i] == hi[i] {
			return 0
		}
	}
	corner := make([]int, d)
	total := 0.0
	for mask := 0; mask < 1<<uint(d); mask++ {
		sign := 1.0
		for i := 0; i < d; i++ {
			if mask&(1<<uint(i)) != 0 {
				corner[i] = lo[i]
				sign = -sign
			} else {
				corner[i] = hi[i]
			}
		}
		total += sign * c.PrefixSum(corner)
	}
	return total
}

// BracketLeft returns the candidate partition-point indices for a query's
// left endpoint x on dim: the largest point strictly below x (or -1,
// meaning the region extends from the start) and the smallest point >= x.
// These are the paper's l_x and h_x (§5.1), adapted to ordinal axes.
func (c *BPCube) BracketLeft(dim int, x float64) (lo, hi int) {
	p := c.Points[dim]
	j := sort.SearchFloat64s(p, x) // first >= x
	lo = j - 1
	hi = j
	if hi >= len(p) {
		hi = len(p) - 1
	}
	return lo, hi
}

// BracketRight returns the candidate indices for a query's right endpoint
// y on dim: the largest point <= y (or -1 if none) and the smallest point
// strictly above y (clamped to the last point). These are the paper's l_y
// and h_y.
func (c *BPCube) BracketRight(dim int, y float64) (lo, hi int) {
	p := c.Points[dim]
	j := sort.Search(len(p), func(i int) bool { return p[i] > y }) // first > y
	lo = j - 1
	hi = j
	if hi >= len(p) {
		hi = len(p) - 1
	}
	return lo, hi
}
