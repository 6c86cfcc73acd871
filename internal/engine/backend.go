package engine

import "fmt"

// This file is the engine's pluggable-storage seam. The scan/aggregate
// layer (kernels.go) reads column data one zone block at a time; Backend
// and ColumnSource expose exactly that surface — column metadata,
// per-block zone summaries, and typed block reads into reusable buffers —
// so the vectorized kernels, skip/full/straddle classification, and
// everything above them (exec Plan IR, shard coordinator, AQP++ layers)
// run unchanged whether a column's rows live in a resident slice or
// behind a block cache over an on-disk file (internal/store).
//
// A backend-bound table is produced by OpenBackend: its columns carry a
// ColumnSource instead of data slices, zone maps come from the source's
// persisted summaries instead of a build scan, and every block the zone
// maps prune is never requested from the source at all.

// BlockBuf is a typed block of column values. It serves two roles:
//
//   - as the view returned by ColumnSource.ReadBlock: exactly one slice
//     is populated, matching the column type, holding the rows of one
//     zone block (block-local indexing, row 0 = first row of the block);
//   - as the reusable decode target passed to ReadBlock: a source that
//     materializes blocks on every call may decode into the buffer's
//     slices (growing them as needed) to avoid per-block allocation.
//
// Sources that cache decoded blocks (internal/store) ignore the buffer
// and return shared immutable views; callers must therefore never write
// through a returned view.
type BlockBuf struct {
	Ints   []int64
	Floats []float64
	Codes  []int32
}

// ColumnSource supplies one column's rows block-at-a-time. Implementations
// must be safe for concurrent ReadBlock calls (parallel workers share a
// table), except that a single *BlockBuf must not be passed from two
// goroutines at once — each worker owns its buffers.
type ColumnSource interface {
	// ReadBlock returns the rows of zone block b (rows
	// [b*4096, min((b+1)*4096, NumRows))) as a typed view. buf may be
	// nil; when non-nil the source may use it as the decode target. The
	// returned view stays valid until the next ReadBlock call with the
	// same buf (cached sources return views that stay valid forever).
	ReadBlock(b int, buf *BlockBuf) (BlockBuf, error)

	// BlockZones returns the column's per-block [min, max] ordinal
	// summaries — exact bounds over each block's rows, in the same
	// ordinal space as Column.Ordinal (numeric value, or lexicographic
	// dictionary rank for strings). len(mins) == len(maxs) == number of
	// blocks. The engine uses these for skip/full/straddle classification
	// without reading any block data, so they must be available without
	// I/O beyond what Open already did.
	BlockZones() (mins, maxs []float64)
}

// IntBoundsSource is an optional ColumnSource extension for Int64
// columns: exact int64 min/max over all rows. The group-by planner needs
// exact integer bounds to size a slice-indexed group table (float zone
// summaries round beyond 2^53); sources that do not implement it fall
// back to the map-based group path, which is always correct.
type IntBoundsSource interface {
	IntBounds() (lo, hi int64, ok bool)
}

// Backend is the narrow storage surface a table can be served from:
// schema, row count, resident dictionaries, and one ColumnSource per
// column. Implementations must keep all metadata resident — the engine
// consults schema, dictionaries and zone summaries at plan time and
// expects no I/O there.
type Backend interface {
	TableName() string
	Schema() Schema
	NumRows() int
	// Dict returns the dictionary for String column i (nil otherwise).
	// Dictionaries stay fully resident: rank tables, SQL literal
	// binding, and group keys all read them directly.
	Dict(col int) []string
	// Source returns the block source for column i.
	Source(col int) ColumnSource
}

// OpenBackend binds a Backend into a *Table whose columns fault blocks
// from the backend on demand. The returned table supports the full read
// surface (Execute, Filter, group-by, joins, row accessors). No block data is read here — only
// metadata, so opening is O(schema).
func OpenBackend(b Backend) (*Table, error) {
	s := b.Schema()
	if len(s.Names) != len(s.Types) {
		return nil, fmt.Errorf("engine: backend %q schema has %d names but %d types",
			b.TableName(), len(s.Names), len(s.Types))
	}
	n := b.NumRows()
	t := &Table{Name: b.TableName(), byName: make(map[string]int, len(s.Names))}
	for i, name := range s.Names {
		c := &Column{Name: name, Type: s.Types[i], src: b.Source(i), srcRows: n}
		if c.src == nil {
			return nil, fmt.Errorf("engine: backend %q has no source for column %q", b.TableName(), name)
		}
		if s.Types[i] == String {
			c.Dict = b.Dict(i)
		}
		nb := (n + zoneBlockSize - 1) / zoneBlockSize
		if mins, maxs := c.src.BlockZones(); len(mins) != nb || len(maxs) != nb {
			return nil, fmt.Errorf("engine: backend %q column %q has %d zone entries for %d blocks",
				b.TableName(), name, len(mins), nb)
		}
		if err := t.AddColumn(c); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// Backed reports whether any of the table's columns is served by a
// ColumnSource (i.e. the table came from OpenBackend). Backed tables are
// immutable, and the store refuses to persist one again.
func (t *Table) Backed() bool {
	for _, c := range t.Columns {
		if c.src != nil {
			return true
		}
	}
	return false
}

// view returns the typed values of zone block b. Resident columns
// subslice their data arrays (zero cost); source-backed columns fault
// the block through the ColumnSource, using buf as the decode target
// when the source wants one.
func (c *Column) view(b int, buf *BlockBuf) (BlockBuf, error) {
	if c.src != nil {
		return c.src.ReadBlock(b, buf)
	}
	lo := b * zoneBlockSize
	hi := lo + zoneBlockSize
	if n := c.Len(); hi > n {
		hi = n
	}
	switch c.Type {
	case Int64:
		return BlockBuf{Ints: c.Ints[lo:hi]}, nil
	case Float64:
		return BlockBuf{Floats: c.Floats[lo:hi]}, nil
	default:
		return BlockBuf{Codes: c.Codes[lo:hi]}, nil
	}
}

// sourceBlock is the row-at-a-time fallback fetch: Ordinal, StringAt,
// Gather and friends have no error return, so a source failure here is
// a panic. Scan paths (Execute, Filter) never take this route — they
// propagate I/O errors properly; the row accessors are used by
// prepare-time code (sampling, cube construction, sorting) where a
// failing store is unrecoverable anyway. Sources cache decoded blocks,
// so sequential row access costs one fault per 4096 rows.
func (c *Column) sourceBlock(row int) (BlockBuf, int) {
	v, err := c.src.ReadBlock(row/zoneBlockSize, nil)
	if err != nil {
		panic(fmt.Sprintf("engine: column %q: reading block %d: %v", c.Name, row/zoneBlockSize, err))
	}
	return v, row % zoneBlockSize
}

// intAt returns row's Int64 value regardless of backing.
func (c *Column) intAt(row int) int64 {
	if c.src == nil {
		return c.Ints[row]
	}
	v, i := c.sourceBlock(row)
	return v.Ints[i]
}

// floatAt returns row's Float64 value regardless of backing.
func (c *Column) floatAt(row int) float64 {
	if c.src == nil {
		return c.Floats[row]
	}
	v, i := c.sourceBlock(row)
	return v.Floats[i]
}

// codeAt returns row's dictionary code regardless of backing.
func (c *Column) codeAt(row int) int32 {
	if c.src == nil {
		return c.Codes[row]
	}
	v, i := c.sourceBlock(row)
	return v.Codes[i]
}

// intBounds returns the exact int64 [min, max] of an Int64 column, used
// to size direct-indexed group tables. Resident columns scan; backed
// columns ask the source (ok=false when the source cannot answer
// exactly, which routes the group-by to the map fallback).
func (c *Column) intBounds() (lo, hi int64, ok bool) {
	if c.src != nil {
		if s, isb := c.src.(IntBoundsSource); isb {
			return s.IntBounds()
		}
		return 0, 0, false
	}
	if len(c.Ints) == 0 {
		return 0, 0, false
	}
	lo, hi = c.Ints[0], c.Ints[0]
	for _, v := range c.Ints[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, true
}
