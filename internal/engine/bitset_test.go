package engine

import (
	"testing"
	"testing/quick"
)

func TestBitsetSetGetClear(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Errorf("bit %d set in fresh bitset", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Errorf("bit %d still set after Clear", i)
		}
	}
}

func TestBitsetSetAllCount(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 100, 128} {
		b := NewBitset(n)
		b.SetAll()
		if got := b.Count(); got != n {
			t.Errorf("n=%d: Count after SetAll = %d", n, got)
		}
	}
}

func TestBitsetAndOr(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	for i := 0; i < 100; i += 2 {
		a.Set(i)
	}
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	and := a.Clone()
	and.And(b)
	for i := 0; i < 100; i++ {
		if want := i%2 == 0 && i%3 == 0; and.Get(i) != want {
			t.Errorf("And bit %d = %v", i, and.Get(i))
		}
	}
}

// TestBitsetWordBoundaryLengths exercises the word-boundary sizes where
// the tail word is empty (n=0), one short of full (63), exactly full
// (64), and one bit into a new word (65).
func TestBitsetWordBoundaryLengths(t *testing.T) {
	for _, n := range []int{0, 63, 64, 65} {
		b := NewBitset(n)
		if b.Len() != n {
			t.Errorf("n=%d: Len = %d", n, b.Len())
		}
		if got := b.Count(); got != 0 {
			t.Errorf("n=%d: fresh Count = %d", n, got)
		}
		b.SetAll()
		if got := b.Count(); got != n {
			t.Errorf("n=%d: Count after SetAll = %d", n, got)
		}
		// trim must have zeroed everything beyond n: And with a full
		// bitset of the same size cannot change the count.
		full := NewBitset(n)
		full.SetAll()
		b.And(full)
		if got := b.Count(); got != n {
			t.Errorf("n=%d: Count after And full = %d", n, got)
		}
		if n == 0 {
			continue
		}
		// Clear the last valid bit and the first; count tracks exactly.
		b.Clear(n - 1)
		b.Clear(0)
		want := n - 2
		if n == 1 {
			want = 0
		}
		if got := b.Count(); got != want {
			t.Errorf("n=%d: Count after clearing ends = %d, want %d", n, got, want)
		}
		b.Set(n - 1)
		if !b.Get(n - 1) {
			t.Errorf("n=%d: last bit lost", n)
		}
		c := b.Clone()
		if c.Count() != b.Count() || c.Len() != b.Len() {
			t.Errorf("n=%d: clone diverges", n)
		}
		c.Clear(n - 1) // clone must be independent
		if !b.Get(n - 1) {
			t.Errorf("n=%d: clearing clone mutated original", n)
		}
	}
}

func TestBitsetLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And with mismatched lengths did not panic")
		}
	}()
	NewBitset(10).And(NewBitset(20))
}

// TestBitsetCountMatchesForEach checks the word-level Count against a
// row-by-row Get loop over random bitsets.
func TestBitsetCountMatchesForEach(t *testing.T) {
	f := func(seed uint16, n16 uint16) bool {
		n := int(n16)%300 + 1
		b := NewBitset(n)
		s := uint32(seed)
		for i := 0; i < n; i++ {
			s = s*1664525 + 1013904223
			if s&1 == 1 {
				b.Set(i)
			}
		}
		set := 0
		for i := 0; i < n; i++ {
			if b.Get(i) {
				set++
			}
		}
		return set == b.Count()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
