package sample

import (
	"math/bits"
	"slices"

	"aqppp/internal/stats"
)

// Permutation draws a uniformly random permutation of [0, n) one
// position at a time by a forward Fisher–Yates shuffle: position i takes
// the row at a position drawn from [i, n), which moves there the row i
// held. Every prefix is an exact uniform without-replacement sample, and
// one RNG stream fixes the permutation however the draws are batched.
// Only the undrawn positions a swap has moved are stored, so drawing k
// rows costs O(k) memory whatever n is. Both the samplers (through
// pickDistinct) and core.Progressive draw through it.
type Permutation struct {
	n, drawn  int
	displaced displacedRows
}

// NewPermutation starts a permutation of [0, n) with nothing drawn.
func NewPermutation(n int) *Permutation { return &Permutation{n: n} }

// Draw appends to dst the rows at the next k positions, fewer once all
// n are drawn, taking one r.Intn per row.
func (p *Permutation) Draw(r *stats.RNG, k int, dst []int) []int {
	end := p.drawn + min(max(k, 0), p.n-p.drawn)
	dst = slices.Grow(dst, end-p.drawn)
	p.displaced.reserve(p.displaced.live + end - p.drawn)
	for i := p.drawn; i < end; i++ {
		j := i + r.Intn(p.n-i)
		row := p.displaced.take(i)
		if j != i {
			row = p.displaced.swap(j, row)
		}
		dst = append(dst, row)
	}
	p.drawn = end
	return dst
}

// displacedRows maps undrawn permutation positions to the rows an
// earlier swap moved into them; a position it does not hold still holds
// its own row. It is an open-addressing table with linear probing: a
// slot's key is its position plus one, so a zeroed slot is empty, and at
// most half the slots are full.
type displacedRows struct {
	slots []displacedSlot
	shift uint // 64 − log2(len(slots))
	live  int
}

type displacedSlot struct{ key, row int }

// slot returns the index of pos's slot, or of the empty slot that ends
// its probe run.
func (d *displacedRows) slot(pos int) int {
	mask := len(d.slots) - 1
	for s := d.home(pos); ; s = (s + 1) & mask {
		if k := d.slots[s].key; k == 0 || k == pos+1 {
			return s
		}
	}
}

// home is pos's first probe: Fibonacci hashing onto the table's size.
func (d *displacedRows) home(pos int) int {
	return int(uint64(pos) * 0x9e3779b97f4a7c15 >> d.shift)
}

// take returns the row at position pos and forgets pos.
func (d *displacedRows) take(pos int) int {
	if d.live == 0 {
		return pos
	}
	s := d.slot(pos)
	if d.slots[s].key == 0 {
		return pos
	}
	row := d.slots[s].row
	// Backward-shift deletion: move each later entry of the probe run
	// whose home is not after the hole into it, so no lookup ever needs
	// a tombstone.
	mask := len(d.slots) - 1
	hole := s
	for t := (s + 1) & mask; d.slots[t].key != 0; t = (t + 1) & mask {
		if (t-d.home(d.slots[t].key-1))&mask >= (t-hole)&mask {
			d.slots[hole] = d.slots[t]
			hole = t
		}
	}
	d.slots[hole] = displacedSlot{}
	d.live--
	return row
}

// swap puts row at position pos and returns the row pos held. The
// table must have room for one more entry (see reserve).
func (d *displacedRows) swap(pos, row int) int {
	s := d.slot(pos)
	old := pos
	if d.slots[s].key == 0 {
		d.live++
	} else {
		old = d.slots[s].row
	}
	d.slots[s] = displacedSlot{key: pos + 1, row: row}
	return old
}

// reserve makes room for up to entries live entries, growing the table
// to a power of two at least twice that and reinserting every entry.
func (d *displacedRows) reserve(entries int) {
	if 2*entries <= len(d.slots) {
		return
	}
	old := d.slots
	size := 1 << bits.Len(uint(2*entries-1))
	d.slots = make([]displacedSlot, size)
	d.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for _, e := range old {
		if e.key != 0 {
			d.slots[d.slot(e.key-1)] = e
		}
	}
}
