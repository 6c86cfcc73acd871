package engine

import "math/bits"

// Bitset is a fixed-size dense bitmap used as the selection vector for
// predicate evaluation. Vectorized filters produce a Bitset; aggregation
// consumes it.
type Bitset struct {
	words []uint64
	n     int
}

// NewBitset returns an all-zero bitset over n rows.
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of rows the bitset covers.
func (b *Bitset) Len() int { return b.n }

// Set marks row i as selected.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Clear unmarks row i.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << (uint(i) & 63) }

// Get reports whether row i is selected.
func (b *Bitset) Get(i int) bool { return b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetAll selects every row.
func (b *Bitset) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.trim()
}

// ClearAll unselects every row, making the bitset reusable as a scratch
// buffer without reallocating.
func (b *Bitset) ClearAll() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// SetRange selects rows [lo, hi) with word-level stores: interior words
// are written wholesale, so selecting a zone-map "full" block touches 64
// rows per instruction instead of one. It panics on an out-of-bounds
// range (programmer error).
func (b *Bitset) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	if lo < 0 || hi > b.n {
		panic("engine: Bitset.SetRange out of bounds")
	}
	fw, lw := lo>>6, (hi-1)>>6
	fm := ^uint64(0) << (uint(lo) & 63)
	lm := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if fw == lw {
		b.words[fw] |= fm & lm
		return
	}
	b.words[fw] |= fm
	for w := fw + 1; w < lw; w++ {
		b.words[w] = ^uint64(0)
	}
	b.words[lw] |= lm
}

// trim zeroes the tail bits beyond n in the last word.
func (b *Bitset) trim() {
	if rem := uint(b.n) & 63; rem != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << rem) - 1
	}
}

// And intersects o into b in place. The two bitsets must have equal length.
func (b *Bitset) And(o *Bitset) {
	if b.n != o.n {
		panic("engine: Bitset length mismatch in And")
	}
	for i := range b.words {
		b.words[i] &= o.words[i]
	}
}

// Words exposes the backing word slice (bit i of word w is row w*64+i).
// It is the block-at-a-time read path: hot loops iterate words and peel
// set bits with bits.TrailingZeros64, one word at a time. Callers must
// treat the slice as read-only.
func (b *Bitset) Words() []uint64 { return b.words }

// Count returns the number of selected rows.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}
