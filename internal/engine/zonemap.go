package engine

import "math"

// Zone maps: per-block [min, max] summaries of a column's ordinals that
// let range filters skip whole blocks without touching row data — the
// standard column-store trick (small materialized aggregates / data
// skipping). They are built lazily on first filtered scan and invalidated
// by appends. The block size doubles as the engine's vectorization unit:
// the kernels in kernels.go process one zone block at a time, so a block
// classification (skip / full / straddle) maps directly onto a kernel
// choice.

// zoneBlockSize is the number of rows summarized per zone. 4096 rows per
// zone keeps the map tiny (~0.02% of column size) while skipping
// effectively on clustered data. It must stay a multiple of 64 so block
// boundaries are Bitset word boundaries and compare kernels can store
// whole words.
const zoneBlockSize = 4096

// blockWords is the number of Bitset words covering one zone block.
const blockWords = zoneBlockSize / 64

// zoneMap summarizes one column.
type zoneMap struct {
	mins, maxs []float64
	rows       int
}

// zonesFor returns the column's zone map, building or extending it if
// stale. Like ranks, the lazy build is race-safe: concurrent Filter
// calls on a shared table with a cold zone map serialize the build
// under lazyMu and read the atomically published result.
func (c *Column) zonesFor() *zoneMap {
	n := c.Len()
	if z := c.zoneP.Load(); z != nil && z.rows == n {
		return z
	}
	if c.src != nil {
		// Source-backed columns never scan: the source persisted exact
		// per-block summaries, so "building" the zone map is a metadata
		// copy. Racing stores publish identical content.
		mins, maxs := c.src.BlockZones()
		z := &zoneMap{mins: mins, maxs: maxs, rows: n}
		c.zoneP.Store(z)
		return z
	}
	// The build below reads ordinals, which for string columns consult
	// the rank table. Build that table first, outside the lock: ranks()
	// takes lazyMu itself and re-entering would deadlock.
	c.warmOrdinals()
	c.lazyMu.Lock()
	defer c.lazyMu.Unlock()
	old := c.zoneP.Load()
	if old != nil && old.rows == n {
		return old
	}
	// A column that grew by AppendGather keeps its complete blocks'
	// summaries and recomputes only its old partial block and the new
	// ones; its dictionary, and so every rank, is unchanged.
	keep := 0
	if old != nil && old.rows < n {
		keep = old.rows / zoneBlockSize
	}
	nb := (n + zoneBlockSize - 1) / zoneBlockSize
	z := &zoneMap{
		mins: make([]float64, nb),
		maxs: make([]float64, nb),
		rows: n,
	}
	if keep > 0 {
		copy(z.mins, old.mins[:keep])
		copy(z.maxs, old.maxs[:keep])
	}
	for b := keep; b < nb; b++ {
		z.mins[b], z.maxs[b] = c.blockSummary(b*zoneBlockSize, min((b+1)*zoneBlockSize, n))
	}
	c.zoneP.Store(z)
	return z
}

// blockSummary returns the [min, max] ordinals of rows [lo, hi). NaN
// rows match no range, so they stay out of both bounds — but a block
// that holds one reports min = NaN, which no range can classify
// blockFull (it would select the NaN row wholesale), while max still
// proves the block disjoint from a range above it.
func (c *Column) blockSummary(lo, hi int) (mn, mx float64) {
	mn, mx = math.Inf(1), math.Inf(-1)
	hasNaN := false
	for i := lo; i < hi; i++ {
		v := c.Ordinal(i)
		if v < mn {
			mn = v
		}
		if v > mx {
			mx = v
		}
		if math.IsNaN(v) {
			hasNaN = true
		}
	}
	if hasNaN {
		mn = math.NaN()
	}
	return mn, mx
}

// BlockZones returns the column's per-block [min, max] summaries in the
// form ColumnSource.BlockZones serves them — the one place they are
// computed, so a container writer persists exactly what a resident scan
// classifies with. Callers must not modify the slices.
func (c *Column) BlockZones() (mins, maxs []float64) {
	z := c.zonesFor()
	return z.mins, z.maxs
}

// useZones reports whether the column is large enough for zone-mapped
// scans; below the threshold the map overhead outweighs the skipping.
// Source-backed columns always use zones: their summaries are free
// (persisted) and pruning saves real I/O, not just compares.
func (c *Column) useZones() bool { return c.src != nil || c.Len() >= 2*zoneBlockSize }

// blockClass is the zone-map classification of one block against one
// range: the fused kernels dispatch on it directly.
type blockClass uint8

const (
	// blockSkip: the block is disjoint from the range; no row can match.
	blockSkip blockClass = iota
	// blockFull: the block lies entirely inside the range; every row
	// matches and the per-row test is unnecessary.
	blockFull
	// blockStraddle: the block overlaps the range boundary; rows must be
	// tested individually (by a compare kernel).
	blockStraddle
)

// classify compares block b's summary against [lo, hi].
func (z *zoneMap) classify(b int, lo, hi float64) blockClass {
	if z.maxs[b] < lo || z.mins[b] > hi {
		return blockSkip
	}
	if z.mins[b] >= lo && z.maxs[b] <= hi {
		return blockFull
	}
	return blockStraddle
}

// applyRangeZoned is applyRange with block skipping: skipped blocks are
// untouched, full blocks are set with word-level stores, and straddling
// blocks run the compiled compare kernel. out must be all-zero on entry
// (straddling blocks store whole words rather than OR-ing bits).
func applyRangeZoned(c *Column, r Range, out *Bitset) error {
	if !c.useZones() {
		applyRange(c, r, out)
		return nil
	}
	k, ok := compileRange(c, r)
	if !ok {
		return nil
	}
	n := c.Len()
	z := c.zonesFor()
	var buf BlockBuf
	for b := range z.mins {
		lo := b * zoneBlockSize
		hi := min(lo+zoneBlockSize, n)
		switch z.classify(b, r.Lo, r.Hi) {
		case blockSkip:
		case blockFull:
			out.SetRange(lo, hi)
		default:
			v, err := c.view(b, &buf)
			if err != nil {
				return err
			}
			k.cmp(v, hi-lo, out.words[lo>>6:], false)
		}
	}
	return nil
}

// applyRange tests rows [0, n) with the compare kernel (no zone map).
// out must be all-zero on entry. Only resident columns take this path —
// source-backed columns always use zones.
func applyRange(c *Column, r Range, out *Bitset) {
	if k, ok := compileRange(c, r); ok {
		k.cmp(BlockBuf{Ints: c.Ints, Floats: c.Floats, Codes: c.Codes}, c.Len(), out.words, false)
	}
}
