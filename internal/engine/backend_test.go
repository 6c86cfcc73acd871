package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"aqppp/internal/stats"
)

// memBackend serves a resident table through the Backend interface,
// counting every block actually requested — the reference backend the
// equivalence and pruning tests drive.
type memBackend struct {
	tbl     *Table
	sources []*memSource
}

type memSource struct {
	c          *Column
	rows       int
	mins, maxs []float64
	reads      atomic.Int64
	failBlock  int // block index that errors; -1 for none
}

func newMemBackend(tbl *Table) *memBackend {
	b := &memBackend{tbl: tbl}
	n := tbl.NumRows()
	nb := (n + zoneBlockSize - 1) / zoneBlockSize
	for _, c := range tbl.Columns {
		s := &memSource{c: c, rows: n, failBlock: -1}
		s.mins = make([]float64, nb)
		s.maxs = make([]float64, nb)
		for blk := 0; blk < nb; blk++ {
			lo := blk * zoneBlockSize
			hi := lo + zoneBlockSize
			if hi > n {
				hi = n
			}
			mn := c.Ordinal(lo)
			mx := mn
			for i := lo + 1; i < hi; i++ {
				v := c.Ordinal(i)
				if v < mn {
					mn = v
				}
				if v > mx {
					mx = v
				}
			}
			s.mins[blk], s.maxs[blk] = mn, mx
		}
		b.sources = append(b.sources, s)
	}
	return b
}

func (b *memBackend) TableName() string           { return b.tbl.Name + "_backed" }
func (b *memBackend) Schema() Schema              { return b.tbl.Schema() }
func (b *memBackend) NumRows() int                { return b.tbl.NumRows() }
func (b *memBackend) Source(col int) ColumnSource { return b.sources[col] }
func (b *memBackend) Dict(col int) []string {
	if b.tbl.Columns[col].Type != String {
		return nil
	}
	return b.tbl.Columns[col].Dict
}

func (s *memSource) ReadBlock(blk int, buf *BlockBuf) (BlockBuf, error) {
	if blk == s.failBlock {
		return BlockBuf{}, fmt.Errorf("memSource: injected failure at block %d", blk)
	}
	s.reads.Add(1)
	lo := blk * zoneBlockSize
	hi := lo + zoneBlockSize
	if hi > s.rows {
		hi = s.rows
	}
	// Decode into the caller's buffer when one is offered, exercising
	// the reusable-buffer half of the contract (the store's cached
	// source exercises the shared-view half).
	switch s.c.Type {
	case Int64:
		if buf == nil {
			return BlockBuf{Ints: s.c.Ints[lo:hi]}, nil
		}
		buf.Ints = append(buf.Ints[:0], s.c.Ints[lo:hi]...)
		return BlockBuf{Ints: buf.Ints}, nil
	case Float64:
		if buf == nil {
			return BlockBuf{Floats: s.c.Floats[lo:hi]}, nil
		}
		buf.Floats = append(buf.Floats[:0], s.c.Floats[lo:hi]...)
		return BlockBuf{Floats: buf.Floats}, nil
	default:
		if buf == nil {
			return BlockBuf{Codes: s.c.Codes[lo:hi]}, nil
		}
		buf.Codes = append(buf.Codes[:0], s.c.Codes[lo:hi]...)
		return BlockBuf{Codes: buf.Codes}, nil
	}
}

func (s *memSource) BlockZones() (mins, maxs []float64) { return s.mins, s.maxs }

func (s *memSource) IntBounds() (int64, int64, bool) {
	if s.c.Type != Int64 || len(s.c.Ints) == 0 {
		return 0, 0, false
	}
	lo, hi := s.c.Ints[0], s.c.Ints[0]
	for _, v := range s.c.Ints[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi, true
}

// backendTestTable builds a multi-block table clustered on "key" so zone
// pruning has teeth: key rises monotonically, so a narrow key range hits
// a contiguous handful of blocks.
func backendTestTable(t *testing.T, n int) *Table {
	t.Helper()
	r := stats.NewRNG(7)
	keys := make([]int64, n)
	vals := make([]float64, n)
	cats := make([]string, n)
	pool := []string{"north", "south", "east", "west", "delta"}
	for i := 0; i < n; i++ {
		keys[i] = int64(i / 3)
		vals[i] = r.Float64()*1000 - 500
		cats[i] = pool[r.Intn(len(pool))]
	}
	return MustNewTable("bt",
		NewIntColumn("key", keys),
		NewFloatColumn("val", vals),
		NewStringColumn("cat", cats),
	)
}

// TestBackendEquivalence pins every answer path over an OpenBackend
// table bit-identical to the resident oracle: scalar aggregates, filtered
// scans, group-by in all three modes, partials.
func TestBackendEquivalence(t *testing.T) {
	n := 5*zoneBlockSize + 123
	tbl := backendTestTable(t, n)
	bt, err := OpenBackend(newMemBackend(tbl))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := bt.NumRows(), n; got != want {
		t.Fatalf("NumRows = %d, want %d", got, want)
	}
	queries := []Query{
		{Func: Sum, Col: "val"},
		{Func: Count},
		{Func: Avg, Col: "val", Ranges: []Range{{Col: "key", Lo: 100, Hi: 900}}},
		{Func: Var, Col: "key", Ranges: []Range{{Col: "val", Lo: -100, Hi: 250}}},
		{Func: Min, Col: "val", Ranges: []Range{{Col: "key", Lo: 0, Hi: 2000}, {Col: "cat", Lo: 1, Hi: 3}}},
		{Func: Max, Col: "cat", Ranges: []Range{{Col: "key", Lo: 500, Hi: 1500}}},
		{Func: Sum, Col: "val", GroupBy: []string{"cat"}},
		{Func: Count, GroupBy: []string{"cat"}, Ranges: []Range{{Col: "key", Lo: 300, Hi: 700}}},
		{Func: Avg, Col: "val", GroupBy: []string{"cat", "key"}, Ranges: []Range{{Col: "key", Lo: 10, Hi: 40}}},
	}
	for _, q := range queries {
		want, err := tbl.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%v (resident): %v", q, err)
		}
		got, err := bt.Execute(context.Background(), q)
		if err != nil {
			t.Fatalf("%v (backed): %v", q, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: backed %+v != resident %+v", q, got, want)
		}
		gotP, err := bt.ExecutePartial(context.Background(), q)
		if err != nil {
			t.Fatalf("%v (backed partial): %v", q, err)
		}
		wantP, err := tbl.ExecutePartial(context.Background(), q)
		if err != nil {
			t.Fatalf("%v (resident partial): %v", q, err)
		}
		if !reflect.DeepEqual(gotP, wantP) {
			t.Errorf("%v partial: backed %+v != resident %+v", q, gotP, wantP)
		}
	}
	// Filter bitsets must agree too (the 2-bitset zoned path).
	ranges := []Range{{Col: "key", Lo: 77, Hi: 1234}, {Col: "cat", Lo: 0, Hi: 2}}
	selWant, err := tbl.Filter(ranges)
	if err != nil {
		t.Fatal(err)
	}
	selGot, err := bt.Filter(ranges)
	if err != nil {
		t.Fatal(err)
	}
	if selGot.Count() != selWant.Count() {
		t.Fatalf("Filter count = %d, want %d", selGot.Count(), selWant.Count())
	}
	// Row accessors and gathers route through the source.
	for _, row := range []int{0, 1, zoneBlockSize - 1, zoneBlockSize, 3*zoneBlockSize + 17, n - 1} {
		for _, col := range []string{"key", "val", "cat"} {
			if g, w := bt.MustColumn(col).StringAt(row), tbl.MustColumn(col).StringAt(row); g != w {
				t.Fatalf("StringAt(%s, %d) = %q, want %q", col, row, g, w)
			}
		}
	}
	idx := []int{5, zoneBlockSize + 2, n - 1, 0}
	if g, w := bt.Gather("g", idx), tbl.Gather("g", idx); !reflect.DeepEqual(g.MustColumn("val").Floats, w.MustColumn("val").Floats) {
		t.Fatal("Gather mismatch")
	}
	// Domain queries answer from zone metadata.
	for _, col := range []string{"key", "val", "cat"} {
		glo, ghi := bt.MustColumn(col).OrdinalDomain()
		wlo, whi := tbl.MustColumn(col).OrdinalDomain()
		if !stats.ExactEqual(glo, wlo) || !stats.ExactEqual(ghi, whi) {
			t.Fatalf("OrdinalDomain(%s) = [%g,%g], want [%g,%g]", col, glo, ghi, wlo, whi)
		}
	}
}

// TestBackendPruning asserts the acceptance criterion at the engine
// layer: blocks the zone maps prune are never requested from the source.
func TestBackendPruning(t *testing.T) {
	n := 8 * zoneBlockSize
	tbl := backendTestTable(t, n)
	mb := newMemBackend(tbl)
	bt, err := OpenBackend(mb)
	if err != nil {
		t.Fatal(err)
	}
	// key = row/3 is clustered: rows with key in [0, 1365] live in
	// block 0 only. A SUM over that range must touch exactly one key
	// block and one val block.
	q := Query{Func: Sum, Col: "val", Ranges: []Range{{Col: "key", Lo: 0, Hi: float64(zoneBlockSize/3 - 10)}}}
	want, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bt.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ExactEqual(got.Value, want.Value) {
		t.Fatalf("value = %g, want %g", got.Value, want.Value)
	}
	keyReads := mb.sources[0].reads.Load()
	valReads := mb.sources[1].reads.Load()
	catReads := mb.sources[2].reads.Load()
	if keyReads > 1 {
		t.Errorf("key column: %d block reads for a 1-block range (pruning failed)", keyReads)
	}
	if valReads > 1 {
		t.Errorf("val column: %d block reads for a 1-block range (pruning failed)", valReads)
	}
	if catReads != 0 {
		t.Errorf("cat column read %d blocks; not referenced by the query", catReads)
	}
	// A COUNT over a full-classified range reads no data blocks at all.
	mb.sources[0].reads.Store(0)
	cnt := Query{Func: Count, Ranges: []Range{{Col: "key", Lo: -1, Hi: float64(n)}}}
	if _, err := bt.Execute(context.Background(), cnt); err != nil {
		t.Fatal(err)
	}
	if r := mb.sources[0].reads.Load(); r != 0 {
		t.Errorf("COUNT over full-range read %d blocks; zone maps should classify all full", r)
	}
}

// TestBackendErrors pins the failure surface: scan paths return source
// errors (no panic), and backed tables refuse mutation. The store's
// refusal to persist one again is its TestWriteRefusesBacked.
func TestBackendErrors(t *testing.T) {
	n := 3 * zoneBlockSize
	tbl := backendTestTable(t, n)
	mb := newMemBackend(tbl)
	bt, err := OpenBackend(mb)
	if err != nil {
		t.Fatal(err)
	}
	mb.sources[1].failBlock = 1 // val column, second block
	q := Query{Func: Sum, Col: "val"}
	if _, err := bt.Execute(context.Background(), q); err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("Execute over failing source: got %v, want injected failure", err)
	}
	if _, err := bt.ExecutePartial(context.Background(), q); err == nil {
		t.Fatal("ExecutePartial over failing source: want error")
	}
	if _, err := bt.Execute(context.Background(), Query{Func: Sum, Col: "val", GroupBy: []string{"cat"}}); err == nil {
		t.Fatal("group-by over failing source: want error")
	}
	if _, err := bt.Filter([]Range{{Col: "val", Lo: 0, Hi: 1}}); err == nil {
		t.Fatal("Filter over failing source: want error")
	}
}
