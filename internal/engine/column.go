// Package engine is an in-memory columnar OLAP engine: typed columns,
// tables, vectorized range predicates, exact aggregation (with group-by),
// and CSV import/export. Tables persist through internal/store.
//
// It plays the role of the commercial column-store ("DBX") that the AQP++
// paper runs on: the AQP++ layers above only need filtered scans, exact
// aggregates for cube construction and ground truth, and a place to store
// samples as tables.
package engine

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// ColType enumerates the supported column types.
type ColType uint8

const (
	// Int64 is a 64-bit signed integer column.
	Int64 ColType = iota
	// Float64 is a 64-bit float column.
	Float64
	// String is a dictionary-encoded string column. Its ordinal order is
	// lexicographic, matching the paper's footnote 3 ("if C does not have
	// a natural ordering, we use an alphabetical ordering").
	String
)

// String implements fmt.Stringer.
func (t ColType) String() string {
	switch t {
	case Int64:
		return "int64"
	case Float64:
		return "float64"
	case String:
		return "string"
	default:
		return fmt.Sprintf("ColType(%d)", uint8(t))
	}
}

// Column is a single typed column. Exactly one of the data slices is
// populated, according to Type. Strings are dictionary-encoded: Codes
// holds per-row dictionary indices into Dict.
type Column struct {
	Name string
	Type ColType

	Ints   []int64
	Floats []float64
	Codes  []int32
	Dict   []string

	// src, when non-nil, serves the column's rows block-at-a-time from a
	// Backend (see backend.go) and the data slices above stay empty;
	// srcRows is then the row count. Source-backed columns are immutable.
	src     ColumnSource
	srcRows int

	// domLo/domHi, when hasDom is set, override OrdinalDomain with an
	// externally supplied bound: a schema-only column (see
	// NewSchemaColumn) holds no rows but must still answer plan-time
	// domain queries for data that lives elsewhere.
	domLo, domHi float64
	hasDom       bool

	// The rank table (code → lexicographic rank) and zone map (per-block
	// min/max) are derived caches, built lazily on first use; the zone
	// map is extended after AppendGather. Both are published through
	// atomic pointers with lazyMu serializing builds, so concurrent
	// readers (Filter/Execute on a shared table) are race-free even when
	// the caches are cold. AppendGather still requires external
	// synchronization against readers: only the caches are
	// concurrency-safe, not the data slices.
	lazyMu sync.Mutex
	rankP  atomic.Pointer[[]int32]
	zoneP  atomic.Pointer[zoneMap]
}

// NewIntColumn creates an Int64 column with the given values.
func NewIntColumn(name string, vals []int64) *Column {
	return &Column{Name: name, Type: Int64, Ints: vals}
}

// NewSchemaColumn creates a zero-row column that still answers
// plan-time questions — type, dictionary ranks, and OrdinalDomain —
// for data that lives elsewhere (a remote replica fleet). lo/hi is the
// inclusive ordinal domain of the remote data; dict, for String
// columns, must be the remote dictionary verbatim so literal ranks
// resolve identically on both sides.
func NewSchemaColumn(name string, typ ColType, dict []string, lo, hi float64) *Column {
	return &Column{Name: name, Type: typ, Dict: dict, domLo: lo, domHi: hi, hasDom: true}
}

// NewFloatColumn creates a Float64 column with the given values.
func NewFloatColumn(name string, vals []float64) *Column {
	return &Column{Name: name, Type: Float64, Floats: vals}
}

// NewStringColumn creates a dictionary-encoded String column from raw
// values. The dictionary is fixed from then on: nothing interns a new
// value into a built column.
func NewStringColumn(name string, vals []string) *Column {
	c := &Column{Name: name, Type: String, Codes: make([]int32, len(vals))}
	index := make(map[string]int32)
	for i, v := range vals {
		code, ok := index[v]
		if !ok {
			code = int32(len(c.Dict))
			c.Dict = append(c.Dict, v)
			index[v] = code
		}
		c.Codes[i] = code
	}
	return c
}

// Len returns the number of rows in the column.
func (c *Column) Len() int {
	if c.src != nil {
		return c.srcRows
	}
	switch c.Type {
	case Int64:
		return len(c.Ints)
	case Float64:
		return len(c.Floats)
	default:
		return len(c.Codes)
	}
}

// ranks returns the code→lexicographic-rank table, built on first use;
// the dictionary never changes after construction, so neither does the
// table. Concurrent callers are safe: the build is serialized under
// lazyMu and published atomically, so two goroutines filtering a cold
// shared column race neither on the build nor on the publication.
func (c *Column) ranks() []int32 {
	if rt := c.rankP.Load(); rt != nil {
		return *rt
	}
	c.lazyMu.Lock()
	defer c.lazyMu.Unlock()
	if rt := c.rankP.Load(); rt != nil {
		return *rt
	}
	order := make([]int32, len(c.Dict))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return c.Dict[order[i]] < c.Dict[order[j]] })
	rank := make([]int32, len(c.Dict))
	for r, code := range order {
		rank[code] = int32(r)
	}
	c.rankP.Store(&rank)
	return rank
}

// warmOrdinals forces the lazy rank cache so that subsequent Ordinal
// calls hit the published snapshot. zonesFor calls it before taking
// lazyMu, because an Ordinal call under the lock would re-enter it.
func (c *Column) warmOrdinals() {
	if c.Type == String {
		c.ranks()
	}
}

// Ordinal returns the row's value mapped onto a totally ordered numeric
// axis: the value itself for numeric columns, and the lexicographic rank
// (0-based) for string columns. Every condition attribute in the AQP++
// layers is addressed through this ordinal view.
func (c *Column) Ordinal(row int) float64 {
	switch c.Type {
	case Int64:
		return float64(c.intAt(row))
	case Float64:
		return c.floatAt(row)
	default:
		return float64(c.ranks()[c.codeAt(row)])
	}
}

// Float returns the row's numeric value; for string columns it is the
// ordinal. Aggregation attributes use this accessor.
func (c *Column) Float(row int) float64 { return c.Ordinal(row) }

// StringAt returns the row's string value; for numeric columns it formats
// the number.
func (c *Column) StringAt(row int) string {
	switch c.Type {
	case Int64:
		return fmt.Sprintf("%d", c.intAt(row))
	case Float64:
		return fmt.Sprintf("%g", c.floatAt(row))
	default:
		return c.Dict[c.codeAt(row)]
	}
}

// OrdinalDomain returns the inclusive [min, max] ordinal range present in
// the column, or (0, -1) for an empty column. NaN rows, which match no
// range, are not part of it.
func (c *Column) OrdinalDomain() (float64, float64) {
	if c.hasDom {
		return c.domLo, c.domHi
	}
	n := c.Len()
	if n == 0 {
		return 0, -1
	}
	if c.Type == String {
		return 0, float64(len(c.Dict) - 1)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	if c.src != nil {
		// Source-backed columns answer from the persisted per-block zone
		// summaries — exact per-block min/max of the same ordinals the
		// resident scan below would visit — so plan-time domain queries
		// (SQL unbounded range sides) fault no block data. A block that
		// holds a NaN reports min = NaN and so hides its true minimum:
		// the domain then opens downward rather than guess.
		mins, maxs := c.src.BlockZones()
		for b := range mins {
			if math.IsNaN(mins[b]) {
				lo = math.Inf(-1)
			}
			if mins[b] < lo {
				lo = mins[b]
			}
			if maxs[b] > hi {
				hi = maxs[b]
			}
		}
		return lo, hi
	}
	for i := 0; i < n; i++ {
		v := c.Ordinal(i) // a NaN fails both comparisons
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Gather returns a new column containing the rows of c at the given
// indices, in order. Dictionary columns share the dictionary.
func (c *Column) Gather(idx []int) *Column {
	out := &Column{Name: c.Name, Type: c.Type, Dict: c.Dict}
	out.AppendGather(c, idx)
	return out
}

// AppendGather appends the rows of src (a column of the same type) at
// the given indices, in order: Gather into a column that already holds
// rows. A String column must share src's dictionary — codes are copied,
// not re-interned, so ranks keep meaning what they mean in src.
func (c *Column) AppendGather(src *Column, idx []int) {
	if c.Type != src.Type {
		panic("engine: AppendGather type mismatch")
	}
	switch c.Type {
	case Int64:
		c.Ints = appendGather(c.Ints, src.Ints, src.src == nil, src.intAt, idx)
	case Float64:
		c.Floats = appendGather(c.Floats, src.Floats, src.src == nil, src.floatAt, idx)
	default:
		c.Codes = appendGather(c.Codes, src.Codes, src.src == nil, src.codeAt, idx)
	}
}

// appendGather appends the values at idx to dst: straight from data
// when the source column is resident, so the loads of a random gather
// overlap, and through at (one row at a time) when it is source-backed.
func appendGather[T any](dst, data []T, resident bool, at func(int) T, idx []int) []T {
	dst = slices.Grow(dst, len(idx))
	if resident {
		for _, r := range idx {
			dst = append(dst, data[r])
		}
		return dst
	}
	for _, r := range idx {
		dst = append(dst, at(r))
	}
	return dst
}
