package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"aqppp/internal/stats"
)

// The compare kernels' obligation (kernels.go, cmpRange): for every
// value and every bound the compiled test selects exactly the rows the
// row-at-a-time reference lo <= Ordinal(row) && Ordinal(row) <= hi
// selects. The values below are where a native-domain translation can
// go wrong: where float64(int64) starts rounding, the ends of the int64
// range, bounds outside it, infinities, NaN and the two zeros.

const two53 = 1 << 53

var hostileInts = []int64{
	0, 1, -1, two53 - 1, two53, two53 + 1, -two53 - 1, -two53, -two53 + 1,
	math.MinInt64, math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64,
	1<<62 + 1, -(1<<62 + 1),
}

var hostileFloats = []float64{
	math.Copysign(0, -1), 0, 0.5, -0.5, two53 - 1, two53, two53 + 2, -two53 - 2, -two53,
	math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64,
	// float64(MaxInt64) is 2^63, one past the int64 range; its lower
	// neighbour is the largest float an int64 converts to exactly.
	1 << 63, math.Nextafter(1<<63, 0), -(1 << 63), math.Nextafter(-(1 << 63), math.Inf(-1)),
	1 << 64, -(1 << 64), 1e19, -1e19,
}

// kernelColumns builds one n-row column per type, mixing the hostile
// values with random ones. The string column's dictionary is wider
// than a 64-row word so ranks are not a function of the row position.
func kernelColumns(r *stats.RNG, n int) []*Column {
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		switch r.Intn(3) {
		case 0:
			ints[i] = hostileInts[r.Intn(len(hostileInts))]
			floats[i] = hostileFloats[r.Intn(len(hostileFloats))]
		case 1:
			ints[i] = int64(r.Uint64())
			floats[i] = math.Float64frombits(r.Uint64())
		default:
			ints[i] = int64(r.Intn(200)) - 100
			floats[i] = r.Float64()*200 - 100
		}
		strs[i] = fmt.Sprintf("k%03d", r.Intn(300))
	}
	return []*Column{NewIntColumn("i", ints), NewFloatColumn("f", floats), NewStringColumn("s", strs)}
}

// checkCmpKernel compares the compiled kernel's words for [lo, hi] over
// all of c with the row-at-a-time reference, in store and and modes,
// then the kernel's two production callers — a range that compiles to
// nothing is theirs to answer, not the kernel's.
func checkCmpKernel(t *testing.T, c *Column, lo, hi float64, r *stats.RNG) {
	t.Helper()
	n := c.Len()
	nw := (n + 63) / 64
	want := make([]uint64, nw)
	for row := 0; row < n; row++ {
		if ord := c.Ordinal(row); lo <= ord && ord <= hi {
			want[row>>6] |= 1 << (uint(row) & 63)
		}
	}
	tbl := MustNewTable("k", c)
	ranges := []Range{{Col: c.Name, Lo: lo, Hi: hi}}
	sel, err := tbl.Filter(ranges)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(sel.Words(), want) {
		t.Fatalf("%s n=%d [%v, %v]: Filter = %064b, want %064b", c.Type, n, lo, hi, sel.Words(), want)
	}
	res, err := tbl.Execute(context.Background(), Query{Func: Count, Ranges: ranges})
	if err != nil {
		t.Fatal(err)
	}
	if int(res.Value) != sel.Count() {
		t.Fatalf("%s n=%d [%v, %v]: Execute COUNT = %v, want %d", c.Type, n, lo, hi, res.Value, sel.Count())
	}
	for _, and := range []bool{false, true} {
		// Random prior contents: store mode must overwrite them (so bits
		// past n end up zero), and mode must intersect with them.
		got := make([]uint64, nw)
		for i := range got {
			got[i] = r.Uint64()
		}
		prior := append([]uint64(nil), got...)
		cmpBlock(c, lo, hi, 0, n, got, and)
		for i := range got {
			w := want[i]
			if and {
				w &= prior[i]
			}
			if got[i] != w {
				t.Fatalf("%s n=%d [%v, %v] and=%v: word %d = %064b, want %064b",
					c.Type, n, lo, hi, and, i, got[i], w)
			}
		}
	}
}

func TestCmpKernelsMatchOrdinal(t *testing.T) {
	r := stats.NewRNG(0xc0ffee)
	bounds := append([]float64(nil), hostileFloats...)
	for _, v := range hostileInts {
		bounds = append(bounds, float64(v))
	}
	bounds = append(bounds, -101, -3.5, 42, 100, 150, 299, 299.5)
	for _, n := range []int{0, 1, 63, 64, 65, 4095, 4096} {
		for _, c := range kernelColumns(r, n) {
			// Every ordered pair, so Lo > Hi and NaN on either side are
			// covered along with every legitimate interval.
			for _, lo := range bounds {
				for _, hi := range bounds {
					checkCmpKernel(t, c, lo, hi, r)
				}
			}
			for trial := 0; trial < 50; trial++ {
				lo := r.Float64()*400 - 150
				checkCmpKernel(t, c, lo, lo+r.Float64()*200, r)
			}
		}
	}
}

// compileRangeBisect is compileRange's integer preimage computed the
// original way, two 64-step bisections over all of int64 — the oracle
// the closed form must reproduce.
func compileRangeBisect(lo, hi float64) (base, width uint64, ok bool) {
	if !(lo <= hi) {
		return 0, 0, false
	}
	ilo, found := firstInt64(func(v int64) bool { return float64(v) >= lo })
	if !found {
		return 0, 0, false
	}
	ihi := int64(math.MaxInt64)
	if above, found := firstInt64(func(v int64) bool { return float64(v) > hi }); found {
		if above <= ilo {
			return 0, 0, false
		}
		ihi = above - 1
	}
	return uint64(ilo), uint64(ihi) - uint64(ilo), true
}

func TestCompileRangeClosedFormMatchesBisection(t *testing.T) {
	col := NewIntColumn("i", []int64{0})
	check := func(lo, hi float64) {
		t.Helper()
		wantBase, wantWidth, wantOK := compileRangeBisect(lo, hi)
		k, ok := compileRange(col, Range{Col: "i", Lo: lo, Hi: hi})
		if ok != wantOK || (ok && (k.base != wantBase || k.width != wantWidth)) {
			t.Fatalf("[%v, %v]: (base, width, ok) = (%d, %d, %v), want (%d, %d, %v)",
				lo, hi, int64(k.base), k.width, ok, int64(wantBase), wantWidth, wantOK)
		}
	}
	bounds := append([]float64(nil), hostileFloats...)
	for _, v := range hostileInts {
		bounds = append(bounds, float64(v))
	}
	// The band edges the closed form switches on, their neighbours, and
	// half-integers and subnormals around zero.
	for _, x := range []float64{two53, two53 - 1, two53 + 2, 1 << 54, 1<<54 + 4} {
		bounds = append(bounds, x, -x, math.Nextafter(x, 0), -math.Nextafter(x, 0),
			math.Nextafter(x, math.Inf(1)), -math.Nextafter(x, math.Inf(1)))
	}
	bounds = append(bounds, 1.5, -1.5, 2.5, -2.5, 1e15+0.5, -1e15-0.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1022, -0x1p-1022)
	for _, lo := range bounds {
		for _, hi := range bounds {
			check(lo, hi)
		}
	}
	r := stats.NewRNG(0x5eed)
	for trial := 0; trial < 20000; trial++ {
		var lo, hi float64
		switch trial % 4 {
		case 0: // anywhere in float64
			lo, hi = math.Float64frombits(r.Uint64()), math.Float64frombits(r.Uint64())
		case 1: // around the ±2^53 band edges
			lo = float64(two53 + int64(r.Intn(9)) - 4)
			hi = float64(two53 + int64(r.Intn(9)) - 4)
			if r.Intn(2) == 0 {
				lo, hi = -hi, -lo
			}
		case 2: // int64 values, exact or rounded
			lo, hi = float64(int64(r.Uint64())), float64(int64(r.Uint64()))
		default: // small fractional bounds
			lo = r.Float64()*200 - 100
			hi = lo + r.Float64()*3
		}
		check(lo, hi)
		check(hi, lo)
	}
}

// FuzzCmpKernels lets the fuzzer pick the bounds, the row count and the
// data seed. The seed corpus runs under plain `go test`; the nightly
// workflow fuzzes it for minutes.
func FuzzCmpKernels(f *testing.F) {
	f.Add(uint64(1), 0.0, 100.0, uint16(65))
	f.Add(uint64(2), float64(two53), float64(two53+2), uint16(4096))
	f.Add(uint64(3), math.Inf(-1), math.Inf(1), uint16(64))
	f.Add(uint64(4), math.NaN(), 1.0, uint16(63))
	f.Add(uint64(5), 10.0, -10.0, uint16(1))
	f.Add(uint64(6), -float64(1<<63), float64(1<<63), uint16(4095))
	f.Add(uint64(7), math.Copysign(0, -1), 0.0, uint16(200))
	f.Add(uint64(8), -1e19, 1e19, uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, lo, hi float64, n uint16) {
		r := stats.NewRNG(seed)
		for _, c := range kernelColumns(r, int(n)%(zoneBlockSize+1)) {
			checkCmpKernel(t, c, lo, hi, r)
		}
	})
}
