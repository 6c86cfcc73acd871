package engine

import "math"

// The "ordered by C" views (min/max indexes, optimizer views, range
// shards) all sort rows by one ordinal. They share one order: ascending
// by value, ties in row order, -0 tied with +0 (they compare equal) and
// every NaN after +Inf, in row order. A comparison sort cannot give NaN a
// place, since NaN compares false both ways; a key sort can. The kernel
// below is a stable LSD radix sort over order-preserving 64-bit keys.

const (
	signBit = 1 << 63
	infBits = 0x7ff0000000000000 // math.Float64bits(+Inf)
)

// ordinalKey maps v to a key whose unsigned order is the order above:
// positive floats set the sign bit, negative ones flip every bit, both
// zeros take +0's key and every NaN payload takes the largest key,
// above +Inf's.
func ordinalKey(v float64) uint64 {
	b := math.Float64bits(v)
	switch abs := b &^ signBit; {
	case abs > infBits:
		return math.MaxUint64
	case abs == 0:
		return signBit
	case b&signBit != 0:
		return ^b
	default:
		return b | signBit
	}
}

// orderByKeys returns the stable ascending permutation of keys, which it
// clobbers. Each pass distributes by one key byte, least significant
// first; a byte every key shares leaves the order as it is, so its pass
// is skipped. With the caller's keys, its scratch is 24 bytes a row (two
// key buffers and one index buffer), none of it reachable on return;
// the result is 8 bytes a row more.
func orderByKeys(keys []uint64) []int {
	n := len(keys)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var varies uint64
	for _, k := range keys {
		varies |= k ^ keys[0]
	}
	if varies == 0 {
		return idx
	}
	keys2, idx2 := make([]uint64, n), make([]int, n)
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(varies>>shift) == 0 {
			continue
		}
		var next [256]int
		for _, k := range keys {
			next[byte(k>>shift)]++
		}
		at := 0
		for b, c := range next {
			next[b] = at
			at += c
		}
		for i, k := range keys {
			b := byte(k >> shift)
			keys2[next[b]], idx2[next[b]] = k, idx[i]
			next[b]++
		}
		keys, keys2 = keys2, keys
		idx, idx2 = idx2, idx
	}
	return idx
}

// SortedIndexOf returns the indices of vals in the ordinal order: stable
// ascending, -0 tied with +0, NaN last.
func SortedIndexOf(vals []float64) []int {
	keys := make([]uint64, len(vals))
	for i, v := range vals {
		keys[i] = ordinalKey(v)
	}
	return orderByKeys(keys)
}

// sortedIndex returns the column's rows in the ordinal order. Resident
// columns are read by typed loops; source-backed ones row by row through
// Ordinal, one block fault per 4096 rows.
func (c *Column) sortedIndex() []int {
	keys := make([]uint64, c.Len())
	switch {
	case c.src != nil:
		for i := range keys {
			keys[i] = ordinalKey(c.Ordinal(i))
		}
	case c.Type == Int64:
		for i, v := range c.Ints {
			keys[i] = ordinalKey(float64(v))
		}
	case c.Type == Float64:
		for i, v := range c.Floats {
			keys[i] = ordinalKey(v)
		}
	default:
		rank := c.ranks()
		for i, code := range c.Codes {
			keys[i] = ordinalKey(float64(rank[code]))
		}
	}
	return orderByKeys(keys)
}

// Ordinals returns the ordinals of rows idx, in order: what Ordinal
// returns for each, bit for bit, read by typed loops on resident columns.
func (c *Column) Ordinals(idx []int) []float64 {
	out := make([]float64, len(idx))
	switch {
	case c.src != nil:
		for i, row := range idx {
			out[i] = c.Ordinal(row)
		}
	case c.Type == Int64:
		for i, row := range idx {
			out[i] = float64(c.Ints[row])
		}
	case c.Type == Float64:
		for i, row := range idx {
			out[i] = c.Floats[row]
		}
	default:
		rank := c.ranks()
		for i, row := range idx {
			out[i] = float64(rank[c.Codes[row]])
		}
	}
	return out
}
