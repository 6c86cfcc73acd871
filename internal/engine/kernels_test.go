package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"aqppp/internal/stats"
)

func TestBitsetSetRange(t *testing.T) {
	const n = 200
	for _, span := range [][2]int{
		{0, 0}, {0, 1}, {0, 63}, {0, 64}, {0, 65}, {0, n},
		{63, 64}, {63, 65}, {64, 128}, {64, 129}, {1, 199}, {127, 128},
		{190, 200}, {5, 5},
	} {
		got := NewBitset(n)
		got.SetRange(span[0], span[1])
		want := NewBitset(n)
		for i := span[0]; i < span[1]; i++ {
			want.Set(i)
		}
		for i := 0; i < n; i++ {
			if got.Get(i) != want.Get(i) {
				t.Fatalf("SetRange(%d, %d): bit %d = %v, want %v",
					span[0], span[1], i, got.Get(i), want.Get(i))
			}
		}
	}
	// SetRange must OR into existing bits, not overwrite them.
	b := NewBitset(n)
	b.Set(3)
	b.SetRange(100, 110)
	if !b.Get(3) || b.Count() != 11 {
		t.Errorf("SetRange clobbered existing bits: count=%d", b.Count())
	}
}

func TestBitsetSetRangePanicsOutOfBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds SetRange did not panic")
		}
	}()
	NewBitset(10).SetRange(5, 11)
}

func TestBitsetClearAllAndWords(t *testing.T) {
	b := NewBitset(130)
	b.SetAll()
	b.ClearAll()
	if b.Count() != 0 {
		t.Fatalf("ClearAll left %d bits", b.Count())
	}
	for i, w := range b.Words() {
		if w != 0 {
			t.Errorf("ClearAll left word %d = %#x", i, w)
		}
	}
}

// cmpBlock runs the compiled compare kernel over global rows [lo, hi)
// of a resident column — the shape the production code reaches through
// per-block views; the tests drive it directly over unaligned windows.
// A range that compiles to nothing selects no row, as its callers answer.
func cmpBlock(c *Column, rlo, rhi float64, lo, hi int, out []uint64, and bool) {
	k, ok := compileRange(c, Range{Col: c.Name, Lo: rlo, Hi: rhi})
	if !ok {
		clear(out[:(hi-lo+63)/64])
		return
	}
	var v BlockBuf
	switch c.Type {
	case Int64:
		v.Ints = c.Ints[lo:hi]
	case Float64:
		v.Floats = c.Floats[lo:hi]
	default:
		v.Codes = c.Codes[lo:hi]
	}
	k.cmp(v, hi-lo, out, and)
}

// TestCmpBlockMatchesOrdinal cross-checks the type-specialized compare
// kernels (store and AND variants) against the per-row Ordinal test,
// over aligned and tail-partial windows.
func TestCmpBlockMatchesOrdinal(t *testing.T) {
	r := stats.NewRNG(11)
	n := 300
	ints := make([]int64, n)
	floats := make([]float64, n)
	strs := make([]string, n)
	pool := []string{"ant", "bee", "cat", "dog", "elk", "fox", "gnu"}
	for i := 0; i < n; i++ {
		ints[i] = int64(r.Intn(100))
		floats[i] = r.Float64() * 100
		strs[i] = pool[r.Intn(len(pool))]
	}
	cols := []*Column{
		NewIntColumn("i", ints),
		NewFloatColumn("f", floats),
		NewStringColumn("s", strs),
	}
	for _, c := range cols {
		for trial := 0; trial < 40; trial++ {
			rlo := r.Float64()*120 - 10
			rhi := rlo + r.Float64()*60
			lo := 64 * r.Intn(3)
			hi := lo + 1 + r.Intn(n-lo-1)
			nw := (hi - lo + 63) / 64
			got := make([]uint64, nw)
			cmpBlock(c, rlo, rhi, lo, hi, got, false)
			for i := lo; i < hi; i++ {
				want := c.Ordinal(i) >= rlo && c.Ordinal(i) <= rhi
				bit := got[(i-lo)>>6]&(1<<(uint(i-lo)&63)) != 0
				if bit != want {
					t.Fatalf("%s cmpBlock [%g,%g] rows [%d,%d): row %d = %v, want %v",
						c.Name, rlo, rhi, lo, hi, i, bit, want)
				}
			}
			// Tail bits beyond hi-lo must stay zero.
			if rem := uint(hi-lo) & 63; rem != 0 {
				if got[nw-1]&^((1<<rem)-1) != 0 {
					t.Fatalf("%s cmpBlock: tail bits set beyond row %d", c.Name, hi)
				}
			}
			// AND variant intersects into pre-set words.
			and := make([]uint64, nw)
			for k := range and {
				and[k] = r.Uint64()
			}
			before := append([]uint64(nil), and...)
			cmpBlock(c, rlo, rhi, lo, hi, and, true)
			for k := range and {
				if and[k] != before[k]&got[k] {
					t.Fatalf("%s cmpBlock and=true word %d: %x, want %x",
						c.Name, k, and[k], before[k]&got[k])
				}
			}
		}
	}
}

func TestGroupModeResolution(t *testing.T) {
	n := 10
	small := make([]int64, n)
	wide := make([]int64, n)
	huge := make([]int64, n)
	f := make([]float64, n)
	s := make([]string, n)
	for i := 0; i < n; i++ {
		small[i] = int64(i % 3)
		wide[i] = int64(i) * (maxDirectGroupDomain / 2)
		huge[i] = (int64(1) << 60) + int64(i) // beyond 2^53: float ordinals round
		f[i] = float64(i)
		s[i] = []string{"x", "y"}[i%2]
	}
	tbl := MustNewTable("t",
		NewIntColumn("small", small),
		NewIntColumn("wide", wide),
		NewIntColumn("huge", huge),
		NewFloatColumn("f", f),
		NewStringColumn("s", s),
	)
	cases := []struct {
		groupBy []string
		want    groupMode
	}{
		{[]string{"s"}, gmCodes},
		{[]string{"small"}, gmInts},
		{[]string{"huge"}, gmInts}, // narrow width at a huge offset still indexes directly
		{[]string{"wide"}, gmMap},
		{[]string{"f"}, gmMap},
		{[]string{"s", "small"}, gmMap},
	}
	for _, tc := range cases {
		g, err := newGroupSink(tbl, Query{Func: Sum, Col: "f", GroupBy: tc.groupBy})
		if err != nil {
			t.Fatal(err)
		}
		if g.mode != tc.want {
			t.Errorf("group mode for %v = %d, want %d", tc.groupBy, g.mode, tc.want)
		}
	}
	// The huge-offset direct mode must also render keys exactly.
	res, err := tbl.Execute(context.Background(), Query{Func: Count, GroupBy: []string{"huge"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != n || res.Groups[0].Key != "1152921504606846976" {
		t.Errorf("huge-int group keys wrong: %d groups, first %q",
			len(res.Groups), res.Groups[0].Key)
	}
}

// TestFilterColdCachesRace hammers a freshly built table with concurrent
// Filter/Execute calls, the load a server puts on one table, so the zone
// maps and string rank tables are built lazily under contention. Run
// under -race this fails if the lazy builds are unguarded. The queries
// reach the string column three ways: a range over it (compiled against
// its ranks), a GROUP BY on it (dictionary-code slots) and a SUM over it
// (the measure's ranks).
func TestFilterColdCachesRace(t *testing.T) {
	const n = 3*zoneBlockSize + 100
	r := stats.NewRNG(23)
	ints := make([]int64, n)
	strs := make([]string, n)
	vals := make([]float64, n)
	pool := []string{"aa", "bb", "cc", "dd"}
	for i := 0; i < n; i++ {
		ints[i] = int64(i)
		strs[i] = pool[r.Intn(len(pool))]
		vals[i] = r.Float64()
	}
	keys := Range{Col: "k", Lo: 100, Hi: float64(n) - 100}
	queries := []Query{
		{Func: Sum, Col: "v", Ranges: []Range{keys, {Col: "s", Lo: 1, Hi: 2}}},
		{Func: Sum, Col: "v", Ranges: []Range{keys}, GroupBy: []string{"s"}},
		{Func: Sum, Col: "s", Ranges: []Range{keys}},
	}
	for iter := 0; iter < 3; iter++ {
		for _, q := range queries {
			// A fresh table per query: zone maps and rank tables start
			// cold, so every goroutine below races to build them.
			tbl := MustNewTable("cold",
				NewIntColumn("k", ints),
				NewStringColumn("s", strs),
				NewFloatColumn("v", vals),
			)
			var wg sync.WaitGroup
			counts := make([]int, 8)
			results := make([]Result, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					sel, err := tbl.Filter(q.Ranges)
					if err != nil {
						t.Error(err)
						return
					}
					counts[g] = sel.Count()
					if results[g], err = tbl.Execute(context.Background(), q); err != nil {
						t.Error(err)
					}
				}(g)
			}
			wg.Wait()
			for g := 1; g < 8; g++ {
				if counts[g] != counts[0] {
					t.Fatalf("%v: goroutine %d count %d != %d", q, g, counts[g], counts[0])
				}
				checkResult(t, fmt.Sprintf("%v goroutine %d", q, g), q, results[g], results[0], true)
			}
		}
	}
}

// TestExecuteParallelStress runs Execute from several concurrent callers
// on fresh tables, so the string rank cache is cold when they fan out and
// every run races to warm it, across varying caller counts. Run under
// `go test -race -count=N` to shake out scheduling-dependent races; each
// caller's result must also be bit-identical to a lone Execute on a
// separate table.
func TestExecuteParallelStress(t *testing.T) {
	const n = 8192
	r := stats.NewRNG(97)
	regions := []string{"east", "west", "north", "south", "center"}
	for iter := 0; iter < 2; iter++ {
		k := make([]int64, n)
		v := make([]float64, n)
		s := make([]string, n)
		for i := 0; i < n; i++ {
			k[i] = int64(r.Intn(1000))
			v[i] = r.NormFloat64() * 10
			s[i] = regions[r.Intn(len(regions))]
		}
		build := func() *Table {
			return MustNewTable("stress",
				NewIntColumn("k", k),
				NewFloatColumn("v", v),
				NewStringColumn("region", s),
			)
		}
		q := Query{Func: Sum, Col: "v", Ranges: []Range{
			{Col: "k", Lo: 100, Hi: 900},
			{Col: "region", Lo: 1, Hi: 3}, // string ranges go through the ranks
		}}
		serial, err := build().Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for _, callers := range []int{2, 3, 5, 8, 16} {
			// A fresh table per run, queried concurrently FIRST: a lone
			// query first would warm the cache and mask an unguarded build.
			tbl := build()
			results := make([]Result, callers)
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var err error
					if results[g], err = tbl.Execute(context.Background(), q); err != nil {
						t.Error(err)
					}
				}(g)
			}
			wg.Wait()
			for g, res := range results {
				checkResult(t, fmt.Sprintf("iter=%d callers=%d caller %d", iter, callers, g), q, res, serial, true)
			}
		}
	}
}
