package cube

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"aqppp/internal/engine"
)

// MinMaxIndex answers exact MIN/MAX range queries over one condition
// attribute. The paper's §8 notes that MIN and MAX are easy for AggPre
// but impossible for sampling-based AQP; prefix cubes cannot serve them
// either (extrema do not subtract), so this index keeps the rows sorted
// by the condition ordinal, summarizes them in blocks of minMaxBlock,
// and puts the classic sparse-table (doubling) structure over the block
// summaries: O(N) space, and per query two binary searches, one table
// lookup and a scan of fewer than two blocks. (A sparse table over the
// rows themselves is O(N log N): 446 MB an index at 1.5M rows.)
type MinMaxIndex struct {
	// Dim and Agg name the condition and aggregate columns.
	Dim, Agg string
	// ords holds the sorted condition ordinals, NaN ones last; vals the
	// corresponding aggregate values. ords[:ordered] are the non-NaN
	// ordinals, the rows a range can select.
	ords    []float64
	vals    []float64
	ordered int
	// mins[l][b] / maxs[l][b] summarize the 2^l full blocks starting at
	// block b, i.e. vals[b*minMaxBlock : (b+2^l)*minMaxBlock].
	mins, maxs [][]float64
}

// minMaxBlock is how many consecutive sorted rows one sparse-table
// entry summarizes.
const minMaxBlock = 64

// BuildMinMax constructs the index for (aggCol, dimCol) over tbl.
func BuildMinMax(tbl *engine.Table, aggCol, dimCol string) (*MinMaxIndex, error) {
	acol, err := tbl.Column(aggCol)
	if err != nil {
		return nil, err
	}
	dcol, err := tbl.Column(dimCol)
	if err != nil {
		return nil, err
	}
	idx, err := tbl.SortedIndexByOrdinal(dimCol)
	if err != nil {
		return nil, err
	}
	return newMinMaxFrom(dimCol, aggCol, dcol.Ordinals(idx), acol.Ordinals(idx)), nil
}

// MinMaxFromPairs rebuilds an index from the (ordinal, value) pairs
// Pairs returned: one value per ordinal, ordinals ascending, NaN ones
// only as a trailing run.
func MinMaxFromPairs(dim, agg string, ords, vals []float64) (*MinMaxIndex, error) {
	if len(ords) != len(vals) {
		return nil, fmt.Errorf("cube: %d minmax ordinals for %d values", len(ords), len(vals))
	}
	m := newMinMaxFrom(dim, agg, ords, vals)
	for i, v := range ords[:m.ordered] {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("cube: minmax ordinal %d is NaN but not in the trailing run", i)
		}
		if i > 0 && v < ords[i-1] {
			return nil, fmt.Errorf("cube: minmax ordinals not sorted at %d", i)
		}
	}
	return m, nil
}

// Pairs returns the index's sorted ordinals and their values, the whole
// of its persisted state; callers must not modify them.
func (m *MinMaxIndex) Pairs() (ords, vals []float64) { return m.ords, m.vals }

// newMinMaxFrom assembles an index from already-sorted (ordinal, value)
// pairs, rebuilding the sparse-table levels. It is the shared tail of
// BuildMinMax and MinMaxFromPairs: the levels are derived data, so the
// persisted form carries only ords and vals.
func newMinMaxFrom(dim, agg string, ords, vals []float64) *MinMaxIndex {
	ordered := len(ords)
	for ordered > 0 && math.IsNaN(ords[ordered-1]) {
		ordered--
	}
	m := &MinMaxIndex{Dim: dim, Agg: agg, ords: ords, vals: vals, ordered: ordered}
	nb := len(vals) / minMaxBlock // a trailing partial block is only ever scanned
	if nb == 0 {
		return m
	}
	mins, maxs := make([]float64, nb), make([]float64, nb)
	for b := range mins {
		mins[b], maxs[b] = scanExtrema(vals[b*minMaxBlock : (b+1)*minMaxBlock])
	}
	m.mins, m.maxs = [][]float64{mins}, [][]float64{maxs}
	for half := 1; 2*half <= nb; half *= 2 {
		cnt := nb - 2*half + 1
		pmin, pmax := mins, maxs
		mins, maxs = make([]float64, cnt), make([]float64, cnt)
		for b := range mins {
			mins[b] = lesser(pmin[b], pmin[b+half])
			maxs[b] = greater(pmax[b], pmax[b+half])
		}
		m.mins, m.maxs = append(m.mins, mins), append(m.maxs, maxs)
	}
	return m
}

// scanExtrema returns the minimum and maximum of vs. Like the exact
// scan's MIN and MAX, they skip NaN values, and they are NaN when every
// value is (or vs is empty).
func scanExtrema(vs []float64) (lo, hi float64) {
	lo, hi = math.NaN(), math.NaN()
	for _, v := range vs {
		lo, hi = lesser(lo, v), greater(hi, v)
	}
	return lo, hi
}

// lesser returns the smaller of a and b, or the one that is not NaN.
func lesser(a, b float64) float64 {
	if b < a || a != a {
		return b
	}
	return a
}

// greater returns the larger of a and b, or the one that is not NaN.
func greater(a, b float64) float64 {
	if b > a || a != a {
		return b
	}
	return a
}

// extrema returns the minimum and maximum of vals[i:j], i < j: the full
// blocks inside the span from the sparse table, the ragged ends scanned.
func (m *MinMaxIndex) extrema(i, j int) (lo, hi float64) {
	bi, bj := (i+minMaxBlock-1)/minMaxBlock, j/minMaxBlock
	if bi >= bj {
		return scanExtrema(m.vals[i:j])
	}
	lo, hi = scanExtrema(m.vals[i : bi*minMaxBlock])
	tlo, thi := scanExtrema(m.vals[bj*minMaxBlock : j])
	l := bits.Len(uint(bj-bi)) - 1
	k := bj - 1<<uint(l)
	lo = lesser(lesser(lo, tlo), lesser(m.mins[l][bi], m.mins[l][k]))
	hi = greater(greater(hi, thi), greater(m.maxs[l][bi], m.maxs[l][k]))
	return lo, hi
}

// SizeBytes reports the index footprint.
func (m *MinMaxIndex) SizeBytes() int64 {
	total := int64(len(m.ords)+len(m.vals)) * 8
	for l := range m.mins {
		total += int64(len(m.mins[l])+len(m.maxs[l])) * 8
	}
	return total
}

// Min returns the exact minimum of the aggregate over rows with ordinal
// in [lo, hi]; ok is false when the range holds no rows.
func (m *MinMaxIndex) Min(lo, hi float64) (float64, bool) {
	i, j := m.span(lo, hi)
	if i >= j {
		return 0, false
	}
	v, _ := m.extrema(i, j)
	return v, true
}

// Max returns the exact maximum over [lo, hi]; ok is false for empty
// ranges.
func (m *MinMaxIndex) Max(lo, hi float64) (float64, bool) {
	i, j := m.span(lo, hi)
	if i >= j {
		return 0, false
	}
	_, v := m.extrema(i, j)
	return v, true
}

// span converts an inclusive ordinal range into a half-open row span.
// NaN ordinals match no range, so only the ordered prefix is searched;
// a NaN bound, like lo > hi, matches no row.
func (m *MinMaxIndex) span(lo, hi float64) (int, int) {
	if !(lo <= hi) {
		return 0, 0
	}
	ords := m.ords[:m.ordered]
	i := sort.SearchFloat64s(ords, lo)
	j := sort.Search(len(ords), func(k int) bool { return ords[k] > hi })
	return i, j
}

// Answer answers MIN/MAX queries whose only restriction (if any) is a
// range on this index's dimension. An unrestricted query covers every
// row, NaN-dimension rows included, as a scan would.
func (m *MinMaxIndex) Answer(q engine.Query) (float64, error) {
	if q.Func != engine.Min && q.Func != engine.Max {
		return 0, fmt.Errorf("cube: MinMaxIndex answers MIN/MAX, got %v", q.Func)
	}
	if q.Col != m.Agg {
		return 0, fmt.Errorf("cube: index is over %q, query aggregates %q", m.Agg, q.Col)
	}
	lo, hi := math.Inf(-1), math.Inf(1)
	for _, r := range q.Ranges {
		if r.Col != m.Dim {
			return 0, fmt.Errorf("cube: index covers dimension %q, query restricts %q", m.Dim, r.Col)
		}
		lo, hi = math.Max(lo, r.Lo), math.Min(hi, r.Hi) // a NaN bound stays NaN
	}
	if len(q.Ranges) == 0 && len(m.vals) > 0 {
		mn, mx := m.extrema(0, len(m.vals))
		if q.Func == engine.Min {
			return mn, nil
		}
		return mx, nil
	}
	var v float64
	var ok bool
	if q.Func == engine.Min {
		v, ok = m.Min(lo, hi)
	} else {
		v, ok = m.Max(lo, hi)
	}
	if !ok {
		return 0, fmt.Errorf("cube: empty range [%v, %v] on %q", lo, hi, m.Dim)
	}
	return v, nil
}
