package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"aqppp/internal/stats"
)

// zonedTable builds a table big enough to trigger zone-mapped filtering,
// with one clustered column (sorted: zones skip aggressively) and one
// shuffled column (zones barely help but must stay correct).
func zonedTable(n int, seed uint64) *Table {
	r := stats.NewRNG(seed)
	clustered := make([]int64, n)
	shuffled := make([]int64, n)
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		clustered[i] = int64(i)
		shuffled[i] = int64(r.Intn(n))
		vals[i] = r.Float64() * 100
	}
	return MustNewTable("z",
		NewIntColumn("clustered", clustered),
		NewIntColumn("shuffled", shuffled),
		NewFloatColumn("v", vals),
	)
}

func TestZonedFilterMatchesUnzoned(t *testing.T) {
	tbl := zonedTable(3*zoneBlockSize+17, 1)
	r := stats.NewRNG(2)
	for trial := 0; trial < 30; trial++ {
		col := "clustered"
		if trial%2 == 1 {
			col = "shuffled"
		}
		lo := float64(r.Intn(tbl.NumRows()))
		hi := lo + float64(r.Intn(tbl.NumRows()/2))
		rng := Range{Col: col, Lo: lo, Hi: hi}
		c := tbl.MustColumn(col)
		zoned := NewBitset(tbl.NumRows())
		applyRangeZoned(c, rng, zoned)
		plain := NewBitset(tbl.NumRows())
		applyRange(c, rng, plain)
		if zoned.Count() != plain.Count() {
			t.Fatalf("trial %d: zoned %d rows != plain %d", trial, zoned.Count(), plain.Count())
		}
		for i := 0; i < tbl.NumRows(); i++ {
			if zoned.Get(i) != plain.Get(i) {
				t.Fatalf("trial %d row %d: zoned %v plain %v", trial, i, zoned.Get(i), plain.Get(i))
			}
		}
	}
}

func TestZoneMapEdgeBlocks(t *testing.T) {
	// Exactly one partial tail block.
	n := zoneBlockSize*2 + 1
	tbl := zonedTable(n, 3)
	c := tbl.MustColumn("clustered")
	out := NewBitset(n)
	applyRangeZoned(c, Range{Col: "clustered", Lo: float64(n - 1), Hi: float64(n + 10)}, out)
	if out.Count() != 1 || !out.Get(n-1) {
		t.Errorf("tail block filtering wrong: count=%d", out.Count())
	}
}

// TestZoneMapBlockSummaries checks the per-block min/max directly,
// including the partial tail block.
func TestZoneMapBlockSummaries(t *testing.T) {
	n := 2*zoneBlockSize + 7 // two full blocks + a 7-row tail
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	c := NewIntColumn("c", vals)
	z := c.zonesFor()
	if len(z.mins) != 3 || len(z.maxs) != 3 {
		t.Fatalf("blocks = %d, want 3", len(z.mins))
	}
	wantBounds := [][2]float64{
		{0, float64(zoneBlockSize - 1)},
		{float64(zoneBlockSize), float64(2*zoneBlockSize - 1)},
		{float64(2 * zoneBlockSize), float64(n - 1)}, // 7-row tail
	}
	for b, w := range wantBounds {
		if z.mins[b] != w[0] || z.maxs[b] != w[1] {
			t.Errorf("block %d: [%v, %v], want [%v, %v]", b, z.mins[b], z.maxs[b], w[0], w[1])
		}
	}
}

// TestZoneMapPruningBoundaries probes ranges that touch block summaries
// exactly: a range ending at a block's min or starting at its max must
// keep the block (bounds are inclusive), while one ordinal beyond must
// prune it.
func TestZoneMapPruningBoundaries(t *testing.T) {
	n := 3 * zoneBlockSize
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	c := NewIntColumn("c", vals)
	cases := []struct {
		name   string
		lo, hi float64
		want   int
	}{
		{"exactly block 1", float64(zoneBlockSize), float64(2*zoneBlockSize - 1), zoneBlockSize},
		{"hi == block 1 min", 0, float64(zoneBlockSize), zoneBlockSize + 1},
		{"lo == block 0 max", float64(zoneBlockSize - 1), float64(zoneBlockSize - 1), 1},
		{"between ordinals", float64(zoneBlockSize) - 0.5, float64(zoneBlockSize) - 0.5, 0},
		{"below all data", -100, -1, 0},
		{"above all data", float64(n), float64(n + 100), 0},
		{"everything", 0, float64(n - 1), n},
	}
	for _, tc := range cases {
		out := NewBitset(n)
		applyRangeZoned(c, Range{Col: "c", Lo: tc.lo, Hi: tc.hi}, out)
		if got := out.Count(); got != tc.want {
			t.Errorf("%s: %d rows, want %d", tc.name, got, tc.want)
		}
		// The zoned result must agree with the plain scan bit for bit.
		plain := NewBitset(n)
		applyRange(c, Range{Col: "c", Lo: tc.lo, Hi: tc.hi}, plain)
		for i := 0; i < n; i++ {
			if out.Get(i) != plain.Get(i) {
				t.Fatalf("%s: row %d zoned %v plain %v", tc.name, i, out.Get(i), plain.Get(i))
			}
		}
	}
}

// TestZoneMapEmptyColumn: a zero-row column must filter to an empty
// selection without building zones or panicking.
func TestZoneMapEmptyColumn(t *testing.T) {
	c := NewIntColumn("c", nil)
	out := NewBitset(0)
	applyRangeZoned(c, Range{Col: "c", Lo: 0, Hi: 100}, out)
	if out.Count() != 0 {
		t.Errorf("empty column selected %d rows", out.Count())
	}
	z := c.zonesFor()
	if len(z.mins) != 0 || z.rows != 0 {
		t.Errorf("empty column zone map: %d blocks, rows=%d", len(z.mins), z.rows)
	}
}

func BenchmarkFilterZonedClustered(b *testing.B) {
	tbl := zonedTable(200000, 5)
	rng := []Range{{Col: "clustered", Lo: 50000, Hi: 52000}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Filter(rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterShuffled(b *testing.B) {
	tbl := zonedTable(200000, 6)
	rng := []Range{{Col: "shuffled", Lo: 50000, Hi: 52000}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Filter(rng); err != nil {
			b.Fatal(err)
		}
	}
}

// nanTable is 3 blocks of f[i] = i%100 with NaNs planted away from row 0
// of their blocks — where a first-row-seeded min/max loop never saw them.
func nanTable() (*Table, []int) {
	n := 3 * zoneBlockSize
	nans := []int{5, zoneBlockSize + 77, n - 1}
	f := make([]float64, n)
	for i := range f {
		f[i] = float64(i % 100)
	}
	for _, i := range nans {
		f[i] = math.NaN()
	}
	return MustNewTable("nan", NewFloatColumn("f", f)), nans
}

// TestNaNNeverMatchesARange: a NaN row's membership must not depend on
// its block neighbours. A range covering a whole block used to classify
// it blockFull and select the NaN wholesale (COUNT 12287 for 12286
// matching rows, and a poisoned SUM), while a straddling range rejected
// the same row.
func TestNaNNeverMatchesARange(t *testing.T) {
	tbl, nans := nanTable()
	c := tbl.MustColumn("f")
	for _, rng := range []Range{
		{Col: "f", Lo: 0, Hi: 1000},                   // covers every block
		{Col: "f", Lo: 0, Hi: 50},                     // straddles every block
		{Col: "f", Lo: math.Inf(-1), Hi: math.Inf(1)}, // covers everything a float can be
	} {
		want := 0
		for i := 0; i < tbl.NumRows(); i++ {
			if v := c.Ordinal(i); rng.Lo <= v && v <= rng.Hi {
				want++
			}
		}
		sel, err := tbl.Filter([]Range{rng})
		if err != nil {
			t.Fatal(err)
		}
		if sel.Count() != want {
			t.Errorf("Filter %v: %d rows, want %d", rng, sel.Count(), want)
		}
		for _, i := range nans {
			if sel.Get(i) {
				t.Errorf("Filter %v selected NaN row %d", rng, i)
			}
		}
		res, err := tbl.Execute(context.Background(), Query{Func: Count, Ranges: []Range{rng}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Value != float64(want) {
			t.Errorf("COUNT %v = %v, want %d", rng, res.Value, want)
		}
		if res, err = tbl.Execute(context.Background(), Query{Func: Sum, Col: "f", Ranges: []Range{rng}}); err != nil {
			t.Fatal(err)
		} else if math.IsNaN(res.Value) {
			t.Errorf("SUM %v is NaN: a NaN row was selected", rng)
		}
	}
}

func TestOrdinalDomainIgnoresNaN(t *testing.T) {
	for _, vals := range [][]float64{
		{math.NaN(), 3, -2, 7},
		{3, math.NaN(), -2, 7},
		{3, -2, 7, math.NaN()},
	} {
		if lo, hi := NewFloatColumn("f", vals).OrdinalDomain(); lo != -2 || hi != 7 {
			t.Errorf("OrdinalDomain(%v) = [%v, %v], want [-2, 7]", vals, lo, hi)
		}
	}
}

// TestZoneMapExtendedEqualsFresh grows int, float (with NaN) and string
// columns by AppendGather steps that end inside, on and across block
// boundaries, reading the zone map after each step: the extended map
// must equal a fresh build over the same rows.
func TestZoneMapExtendedEqualsFresh(t *testing.T) {
	r := stats.NewRNG(9)
	const src = 6 * zoneBlockSize
	ints, floats, strs := make([]int64, src), make([]float64, src), make([]string, src)
	for i := range ints {
		ints[i] = int64(r.Intn(1000))
		floats[i] = r.NormFloat64()
		if r.Intn(500) == 0 {
			floats[i] = math.NaN()
		}
		strs[i] = fmt.Sprintf("m%03d", r.Intn(300))
	}
	srcs := []*Column{NewIntColumn("i", ints), NewFloatColumn("f", floats), NewStringColumn("s", strs)}
	for _, from := range srcs {
		c := &Column{Name: from.Name, Type: from.Type, Dict: from.Dict}
		for step, grow := range []int{10, zoneBlockSize - 10, 1, 2*zoneBlockSize + 7, zoneBlockSize - 7, 3000} {
			idx := make([]int, grow)
			for k := range idx {
				idx[k] = r.Intn(src)
			}
			c.AppendGather(from, idx)
			mins, maxs := c.BlockZones()
			fresh := &Column{Name: c.Name, Type: c.Type, Ints: c.Ints, Floats: c.Floats, Codes: c.Codes, Dict: c.Dict}
			wantMins, wantMaxs := fresh.BlockZones()
			same := func(a, b []float64) bool {
				return slices.EqualFunc(a, b, func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) })
			}
			if !same(mins, wantMins) || !same(maxs, wantMaxs) {
				t.Fatalf("%s after step %d (%d rows): extended zones differ from a fresh build", c.Name, step, c.Len())
			}
		}
	}
}
