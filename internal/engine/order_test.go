package engine

import (
	"encoding/binary"
	"math"
	"slices"
	"sort"
	"testing"

	"aqppp/internal/stats"
)

// ordinalOracle is the comparator sort the radix kernel replaced, with
// NaN given the place no comparison can give it: after every number,
// in row order.
func ordinalOracle(n int, ord func(int) float64) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := ord(idx[a]), ord(idx[b])
		if math.IsNaN(x) || math.IsNaN(y) {
			return !math.IsNaN(x)
		}
		return x < y
	})
	return idx
}

// checkOrder holds SortedIndexOf over vals, and SortedIndexByOrdinal
// over each column, to the oracle.
func checkOrder(t *testing.T, vals []float64, cols ...*Column) {
	t.Helper()
	if want := ordinalOracle(len(vals), func(i int) float64 { return vals[i] }); !slices.Equal(SortedIndexOf(vals), want) {
		t.Fatalf("SortedIndexOf n=%d: order differs from the oracle", len(vals))
	}
	for _, c := range cols {
		got, err := MustNewTable("o", c).SortedIndexByOrdinal(c.Name)
		if err != nil {
			t.Fatal(err)
		}
		if want := ordinalOracle(c.Len(), c.Ordinal); !slices.Equal(got, want) {
			t.Fatalf("%s n=%d: order differs from the oracle", c.Type, c.Len())
		}
	}
}

// TestOrdinalOrderMatchesOracle: random columns whose keys differ in
// every byte, in one byte only (so every other pass is skipped), or not
// at all, and the hostile values where float64(int64) rounds into ties.
func TestOrdinalOrderMatchesOracle(t *testing.T) {
	r := stats.NewRNG(0x50f7)
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(3000)
		vals := make([]float64, n)
		base := r.Uint64()
		shift := 8 * uint(r.Intn(8))
		for i := range vals {
			switch trial % 4 {
			case 0: // anywhere in float64, NaN payloads included
				vals[i] = math.Float64frombits(r.Uint64())
			case 1: // one varying byte
				vals[i] = math.Float64frombits(base ^ uint64(r.Intn(256))<<shift)
			case 2: // heavy ties
				vals[i] = float64(r.Intn(5)) - 2
			default: // one value
				vals[i] = math.Float64frombits(base)
			}
		}
		checkOrder(t, vals, NewFloatColumn("f", vals))
	}
	for _, n := range []int{0, 1, 2, 63, 64, 65, 4097} {
		cols := kernelColumns(r, n)
		checkOrder(t, cols[1].Floats, cols...)
	}
}

// FuzzOrdinalOrder lets the fuzzer pick raw float bits, eight bytes a
// value, repeated over a row count it also picks; each value's bits
// also make an int64 row. The seed corpus runs under plain `go test`;
// the nightly workflow fuzzes it for minutes.
func FuzzOrdinalOrder(f *testing.F) {
	bitsOf := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(bitsOf(math.Copysign(0, -1), 0, math.NaN(), math.Inf(1), math.Inf(-1)), uint16(65))
	f.Add(bitsOf(1, 1, 2, -1), uint16(4097))
	f.Add(bitsOf(two53, two53+2, -two53), uint16(300))
	f.Add(bitsOf(math.Float64frombits(0xfff8000000000001), 1e300), uint16(7))
	f.Add([]byte{1, 2, 3}, uint16(2))
	f.Add([]byte{}, uint16(0))
	f.Fuzz(func(t *testing.T, raw []byte, n uint16) {
		chunks := len(raw) / 8
		if chunks == 0 {
			chunks, raw = 1, make([]byte, 8)
		}
		rows := int(n) % (2*zoneBlockSize + 1)
		vals := make([]float64, rows)
		ints := make([]int64, rows)
		for i := range vals {
			b := binary.LittleEndian.Uint64(raw[8*(i%chunks):])
			vals[i], ints[i] = math.Float64frombits(b), int64(b)
		}
		checkOrder(t, vals, NewFloatColumn("f", vals), NewIntColumn("i", ints))
	})
}
