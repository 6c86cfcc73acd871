package engine

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"aqppp/internal/stats"
)

func sampleTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("sales",
		NewIntColumn("id", []int64{1, 2, 3, 4, 5}),
		NewFloatColumn("amount", []float64{10, 20, 30, 40, 50}),
		NewStringColumn("region", []string{"west", "east", "west", "north", "east"}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableValidation(t *testing.T) {
	_, err := NewTable("t",
		NewIntColumn("a", []int64{1, 2}),
		NewIntColumn("a", []int64{3, 4}),
	)
	if err == nil {
		t.Error("duplicate column name accepted")
	}
	_, err = NewTable("t",
		NewIntColumn("a", []int64{1, 2}),
		NewIntColumn("b", []int64{3}),
	)
	if err == nil {
		t.Error("ragged columns accepted")
	}
}

func TestTableAccessors(t *testing.T) {
	tbl := sampleTable(t)
	if tbl.NumRows() != 5 || tbl.NumCols() != 3 {
		t.Fatalf("shape = %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if !tbl.HasColumn("region") || tbl.HasColumn("nope") {
		t.Error("HasColumn wrong")
	}
	if _, err := tbl.Column("nope"); err == nil {
		t.Error("missing column did not error")
	}
	names := tbl.ColumnNames()
	if names[0] != "id" || names[2] != "region" {
		t.Errorf("ColumnNames = %v", names)
	}
	s := tbl.Schema()
	if s.Types[0] != Int64 || s.Types[1] != Float64 || s.Types[2] != String {
		t.Errorf("Schema types = %v", s.Types)
	}
}

func TestStringOrdinalAlphabetical(t *testing.T) {
	tbl := sampleTable(t)
	c := tbl.MustColumn("region")
	// Alphabetical: east=0, north=1, west=2 regardless of insertion order.
	wantByValue := map[string]float64{"east": 0, "north": 1, "west": 2}
	for i := 0; i < tbl.NumRows(); i++ {
		if got := c.Ordinal(i); got != wantByValue[c.StringAt(i)] {
			t.Errorf("row %d (%s): ordinal %v", i, c.StringAt(i), got)
		}
	}
}

func TestOrdinalDomain(t *testing.T) {
	tbl := sampleTable(t)
	lo, hi := tbl.MustColumn("id").OrdinalDomain()
	if lo != 1 || hi != 5 {
		t.Errorf("id domain = [%v, %v]", lo, hi)
	}
	lo, hi = tbl.MustColumn("region").OrdinalDomain()
	if lo != 0 || hi != 2 {
		t.Errorf("region domain = [%v, %v]", lo, hi)
	}
	empty := NewIntColumn("x", nil)
	lo, hi = empty.OrdinalDomain()
	if lo != 0 || hi != -1 {
		t.Errorf("empty domain = [%v, %v]", lo, hi)
	}
}

func TestGather(t *testing.T) {
	tbl := sampleTable(t)
	sub := tbl.Gather("sub", []int{4, 0, 2})
	if sub.NumRows() != 3 {
		t.Fatalf("gathered rows = %d", sub.NumRows())
	}
	if got := sub.MustColumn("id").Ints; got[0] != 5 || got[1] != 1 || got[2] != 3 {
		t.Errorf("gathered ids = %v", got)
	}
	if got := sub.MustColumn("region").StringAt(0); got != "east" {
		t.Errorf("gathered region[0] = %q", got)
	}
}

func TestSortedIndexByOrdinal(t *testing.T) {
	tbl := MustNewTable("t",
		NewIntColumn("c", []int64{3, 1, 2, 1, 3}),
		NewFloatColumn("a", []float64{30, 10, 20, 11, 31}),
	)
	idx, err := tbl.SortedIndexByOrdinal("c")
	if err != nil {
		t.Fatal(err)
	}
	c := tbl.MustColumn("c")
	for i := 1; i < len(idx); i++ {
		if c.Ordinal(idx[i-1]) > c.Ordinal(idx[i]) {
			t.Fatalf("not sorted at %d", i)
		}
	}
	// Stability: equal keys preserve row order.
	if idx[0] != 1 || idx[1] != 3 {
		t.Errorf("ties not stable: %v", idx)
	}
	if _, err := tbl.SortedIndexByOrdinal("nope"); err == nil {
		t.Error("missing column did not error")
	}

	// The order's edges, spelled out: -0 ties +0 (row order), infinities
	// at the ends of the numbers, every NaN payload after +Inf in row
	// order.
	negZero, negNaN := math.Copysign(0, -1), math.Float64frombits(0xfff8000000000000)
	edges := MustNewTable("e", NewFloatColumn("f",
		[]float64{math.NaN(), 1, 0, math.Inf(1), negZero, negNaN, math.Inf(-1)}))
	idx, err = edges.SortedIndexByOrdinal("f")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{6, 2, 4, 1, 3, 0, 5}; !slices.Equal(idx, want) {
		t.Errorf("edge order = %v, want %v", idx, want)
	}

	// Every column kind, resident and source-backed, at the sizes around
	// a pass's and a zone block's edges, against the comparator oracle.
	pool := []float64{negZero, 0, math.Inf(1), math.Inf(-1), math.NaN(), negNaN,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff0000000000001),
		1, -1, 0.5, math.MaxFloat64, -math.SmallestNonzeroFloat64}
	r := stats.NewRNG(11)
	for _, n := range []int{0, 1, 2, 65, 4097} {
		floats, ints, strs := make([]float64, n), make([]int64, n), make([]string, n)
		for i := 0; i < n; i++ {
			floats[i] = pool[r.Intn(len(pool))]
			if r.Intn(2) == 0 {
				floats[i] = r.Float64()*20 - 10
			}
			ints[i] = int64(r.Intn(9)) - 4
			strs[i] = fmt.Sprintf("s%02d", r.Intn(30))
		}
		resident := MustNewTable("r", NewFloatColumn("f", floats), NewIntColumn("i", ints), NewStringColumn("s", strs))
		backed, err := OpenBackend(newMemBackend(resident))
		if err != nil {
			t.Fatal(err)
		}
		for _, tb := range []*Table{resident, backed} {
			for _, c := range tb.Columns {
				got, err := tb.SortedIndexByOrdinal(c.Name)
				if err != nil {
					t.Fatal(err)
				}
				if want := ordinalOracle(n, c.Ordinal); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d %s: order differs from the oracle", tb.Name, n, c.Name)
				}
			}
		}
	}
}

func TestSizeBytes(t *testing.T) {
	tbl := sampleTable(t)
	// 5*8 (ints) + 5*8 (floats) + 5*4 (codes) + len("west east north")
	want := int64(40 + 40 + 20 + 13)
	if got := tbl.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}
