package shard

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// intTable builds a table whose measure column holds integer values, so
// SUM/AVG/VAR moments stay exactly representable in float64 and any
// association of the additions yields bit-identical results — the
// precondition for the ExactEqual assertions below. The k column is
// uncorrelated with row order (straddle-heavy for zone maps, and the
// interesting case for range re-clustering).
func intTable(t *testing.T, n int, seed uint64) *engine.Table {
	t.Helper()
	r := stats.NewRNG(seed)
	k := make([]int64, n)
	c := make([]int64, n)
	v := make([]float64, n)
	g := make([]string, n)
	groups := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < n; i++ {
		k[i] = int64(r.Intn(1000))
		c[i] = int64(r.Intn(50))
		v[i] = float64(r.Intn(200) - 50)
		g[i] = groups[r.Intn(len(groups))]
	}
	return engine.MustNewTable("t",
		engine.NewIntColumn("k", k),
		engine.NewIntColumn("c", c),
		engine.NewFloatColumn("v", v),
		engine.NewStringColumn("g", g),
	)
}

// floatTable is intTable with a continuous measure (additions round, so
// equivalence is only up to reassociation error).
func floatTable(t *testing.T, n int, seed uint64) *engine.Table {
	t.Helper()
	r := stats.NewRNG(seed)
	k := make([]int64, n)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = int64(r.Intn(1000))
		v[i] = 100 + 15*r.NormFloat64()
	}
	return engine.MustNewTable("t",
		engine.NewIntColumn("k", k),
		engine.NewFloatColumn("v", v),
	)
}

func mustPartition(t *testing.T, tbl *engine.Table, layout Layout) *Sharded {
	t.Helper()
	s, err := Partition(tbl, layout)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPartitionInvariants(t *testing.T) {
	tbl := intTable(t, 5000, 1)
	for _, layout := range []Layout{
		{Strategy: ByRange, Column: "k", N: 1},
		{Strategy: ByRange, Column: "k", N: 4},
		{Strategy: ByRange, Column: "k", N: 7},
		{Strategy: ByHash, Column: "k", N: 4},
	} {
		s := mustPartition(t, tbl, layout)
		if got := len(s.Shards); got != layout.N {
			t.Fatalf("%v: %d shards, want %d", layout, got, layout.N)
		}
		if got := s.NumRows(); got != tbl.NumRows() {
			t.Errorf("%v: shards hold %d rows, table has %d", layout, got, tbl.NumRows())
		}
		for h, sh := range s.Shards {
			if sh.Index != h {
				t.Errorf("%v: shard %d has index %d", layout, h, sh.Index)
			}
			if sh.Rows != sh.Table.NumRows() {
				t.Errorf("%v: shard %d Rows=%d but table has %d", layout, h, sh.Rows, sh.Table.NumRows())
			}
			if sh.Rows == 0 {
				continue
			}
			col := sh.Table.MustColumn("k")
			for i := 0; i < sh.Rows; i++ {
				if v := col.Ordinal(i); v < sh.Lo || v > sh.Hi {
					t.Fatalf("%v: shard %d row %d value %v outside bounds [%v, %v]",
						layout, h, i, v, sh.Lo, sh.Hi)
				}
			}
		}
		// Range shards tile the column's sort order: bounds must not
		// interleave beyond boundary ties.
		if layout.Strategy == ByRange {
			for h := 1; h < layout.N; h++ {
				prev, cur := s.Shards[h-1], s.Shards[h]
				if prev.Rows == 0 || cur.Rows == 0 {
					continue
				}
				if cur.Lo < prev.Hi {
					t.Errorf("%v: shard %d Lo %v < shard %d Hi %v", layout, h, cur.Lo, h-1, prev.Hi)
				}
			}
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	tbl := intTable(t, 100, 2)
	if _, err := Partition(tbl, Layout{Strategy: ByRange, Column: "k", N: 0}); err == nil {
		t.Error("N=0 did not fail")
	}
	if _, err := Partition(tbl, Layout{Strategy: ByRange, Column: "nope", N: 2}); err == nil {
		t.Error("unknown column did not fail")
	}
	if _, err := Partition(tbl, Layout{Strategy: Strategy(99), Column: "k", N: 2}); err == nil {
		t.Error("unknown strategy did not fail")
	}
	for _, index := range []int{-1, 2} {
		if _, err := PartitionOne(tbl, Layout{Strategy: ByRange, Column: "k", N: 2}, index); err == nil {
			t.Errorf("PartitionOne index %d of 2 did not fail", index)
		}
	}
}

// oldSpans is how Partition assigned rows before its one linear pass:
// range layouts cut the stable comparator order (NaN last) into N spans
// and sort.Ints each back into source order; hash layouts append rows
// in source order.
func oldSpans(col *engine.Column, layout Layout) [][]int {
	n := col.Len()
	spans := make([][]int, layout.N)
	if layout.Strategy == ByHash {
		for i := 0; i < n; i++ {
			h := int(mix64(math.Float64bits(col.Ordinal(i))) % uint64(layout.N))
			spans[h] = append(spans[h], i)
		}
		return spans
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := col.Ordinal(idx[a]), col.Ordinal(idx[b])
		if math.IsNaN(x) || math.IsNaN(y) {
			return !math.IsNaN(x)
		}
		return x < y
	})
	for h := range spans {
		span := append([]int(nil), idx[h*n/layout.N:(h+1)*n/layout.N]...)
		sort.Ints(span)
		spans[h] = span
	}
	return spans
}

// TestPartitionMatchesSortedSpans: every shard holds exactly the rows
// the sort-and-restore assignment gave it, in source order, and its
// bounds are that assignment's bounds over the non-NaN rows, bit for
// bit (-0 and +0 included). PartitionOne gathers the same shard alone.
func TestPartitionMatchesSortedSpans(t *testing.T) {
	const n = 3001
	r := stats.NewRNG(40)
	ids, ks, fs := make([]int64, n), make([]int64, n), make([]float64, n)
	pool := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 2.5}
	for i := range ids {
		ids[i], ks[i] = int64(i), int64(r.Intn(40))
		fs[i] = float64(r.Intn(60)) - 30
		if r.Intn(10) == 0 {
			fs[i] = pool[r.Intn(len(pool))]
		}
	}
	fs[0] = math.NaN() // the first source row of whichever shard holds it
	tbl := engine.MustNewTable("p", engine.NewIntColumn("id", ids),
		engine.NewIntColumn("k", ks), engine.NewFloatColumn("f", fs))
	for _, col := range []string{"k", "f"} {
		for _, strategy := range []Strategy{ByRange, ByHash} {
			for _, nShards := range []int{1, 2, 3, 7, 64} {
				layout := Layout{Strategy: strategy, Column: col, N: nShards}
				spans := oldSpans(tbl.MustColumn(col), layout)
				s := mustPartition(t, tbl, layout)
				for h, sh := range s.Shards {
					if got := sh.Table.MustColumn("id").Ints; sh.Rows != len(spans[h]) || !slices.Equal(got, toInt64(spans[h])) {
						t.Fatalf("%v shard %d: rows differ from the sorted span", layout, h)
					}
					lo, hi := math.NaN(), math.NaN()
					for _, row := range spans[h] {
						v := tbl.MustColumn(col).Ordinal(row)
						if math.IsNaN(v) {
							continue
						}
						if math.IsNaN(lo) {
							lo, hi = v, v
						}
						if v < lo {
							lo = v
						}
						if v > hi {
							hi = v
						}
					}
					if len(spans[h]) > 0 && (math.Float64bits(sh.Lo) != math.Float64bits(lo) || math.Float64bits(sh.Hi) != math.Float64bits(hi)) {
						t.Fatalf("%v shard %d: bounds [%v, %v], want [%v, %v]", layout, h, sh.Lo, sh.Hi, lo, hi)
					}
					one, err := PartitionOne(tbl, layout, h)
					if err != nil {
						t.Fatal(err)
					}
					if one.Index != h || one.Rows != sh.Rows || !slices.Equal(one.Table.MustColumn("id").Ints, sh.Table.MustColumn("id").Ints) ||
						math.Float64bits(one.Lo) != math.Float64bits(sh.Lo) || math.Float64bits(one.Hi) != math.Float64bits(sh.Hi) {
						t.Fatalf("%v shard %d: PartitionOne differs from Partition", layout, h)
					}
				}
			}
		}
	}
}

func toInt64(rows []int) []int64 {
	out := make([]int64, len(rows))
	for i, r := range rows {
		out[i] = int64(r)
	}
	return out
}

func TestRangePruning(t *testing.T) {
	tbl := intTable(t, 8000, 3)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 8})

	// A narrow range on the layout column hits few shards.
	narrow := []engine.Range{{Col: "k", Lo: 500, Hi: 520}}
	active := s.group(nil, 0, 0).active(narrow)
	if len(active) == 0 || len(active) > 2 {
		t.Errorf("narrow range active shards = %v, want 1-2 of 8", active)
	}
	if s.PrunedCount() == 0 {
		t.Error("pruned counter did not move")
	}

	// A range on another column prunes nothing.
	if got := s.group(nil, 0, 0).active([]engine.Range{{Col: "c", Lo: 0, Hi: 10}}); len(got) != 8 {
		t.Errorf("off-column range pruned to %v", got)
	}

	// Hash layouts never prune.
	hs := mustPartition(t, tbl, Layout{Strategy: ByHash, Column: "k", N: 8})
	if got := hs.group(nil, 0, 0).active(narrow); len(got) != 8 {
		t.Errorf("hash layout pruned to %v", got)
	}
	if hs.PrunedCount() != 0 {
		t.Error("hash layout counted prunes")
	}

	// Pruned shards cannot change the answer: the pruned result must be
	// bit-identical to the unsharded scan.
	q := engine.Query{Func: engine.Sum, Col: "v", Ranges: narrow}
	want, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Execute(context.Background(), q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.ExactEqual(got.Value, want.Value) {
		t.Errorf("pruned scan = %v, unsharded = %v", got.Value, want.Value)
	}
}

// TestExactEquivalenceRandomized pins sharded exact answers bit-identical
// (stats.ExactEqual) to the unsharded scan across random queries, shard
// counts, strategies and fan-outs. The measure is integer-valued, so
// every aggregate's moments are exact under any summation order.
func TestExactEquivalenceRandomized(t *testing.T) {
	tbl := intTable(t, 12000, 4)
	r := stats.NewRNG(99)
	funcs := []engine.AggFunc{engine.Sum, engine.Count, engine.Avg, engine.Var, engine.Min, engine.Max}

	randQuery := func() engine.Query {
		q := engine.Query{Func: funcs[r.Intn(len(funcs))], Col: "v"}
		for _, col := range []string{"k", "c"} {
			if r.Intn(2) == 0 {
				continue
			}
			max := 1000.0
			if col == "c" {
				max = 50
			}
			lo := float64(r.Intn(int(max)))
			hi := lo + float64(r.Intn(int(max/4))+1)
			q.Ranges = append(q.Ranges, engine.Range{Col: col, Lo: lo, Hi: hi})
		}
		if r.Intn(3) == 0 {
			q.GroupBy = []string{"g"}
		}
		return q
	}

	layouts := []Layout{
		{Strategy: ByRange, Column: "k", N: 1},
		{Strategy: ByRange, Column: "k", N: 3},
		{Strategy: ByRange, Column: "k", N: 8},
		{Strategy: ByHash, Column: "k", N: 5},
	}
	sharded := make([]*Sharded, len(layouts))
	for i, layout := range layouts {
		sharded[i] = mustPartition(t, tbl, layout)
	}

	for trial := 0; trial < 60; trial++ {
		q := randQuery()
		want, err := tbl.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		// The sharded group order is sorted by key; sort the oracle's
		// first-seen order the same way.
		wantGroups := append([]engine.GroupRow(nil), want.Groups...)
		sort.Slice(wantGroups, func(i, j int) bool { return wantGroups[i].Key < wantGroups[j].Key })

		for i, s := range sharded {
			workers := 1 + trial%4
			got, err := s.Execute(context.Background(), q, workers)
			if err != nil {
				t.Fatalf("%v / %v: %v", layouts[i], q, err)
			}
			if len(q.GroupBy) == 0 {
				if !stats.ExactEqual(got.Value, want.Value) {
					t.Errorf("%v / %v: sharded %v != unsharded %v", layouts[i], q, got.Value, want.Value)
				}
				continue
			}
			if len(got.Groups) != len(wantGroups) {
				t.Fatalf("%v / %v: %d groups, want %d", layouts[i], q, len(got.Groups), len(wantGroups))
			}
			for j, gr := range got.Groups {
				w := wantGroups[j]
				if gr.Key != w.Key || !stats.ExactEqual(gr.Value, w.Value) || gr.Rows != w.Rows {
					t.Errorf("%v / %v: group %d = %+v, want %+v", layouts[i], q, j, gr, w)
				}
			}
		}
	}
}

// TestExactEquivalenceFloat covers a continuous measure, where sharded
// sums reassociate: equality holds to relative 1e-12, not bit-for-bit.
func TestExactEquivalenceFloat(t *testing.T) {
	tbl := floatTable(t, 10000, 5)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 4})
	for _, q := range []engine.Query{
		{Func: engine.Sum, Col: "v"},
		{Func: engine.Avg, Col: "v", Ranges: []engine.Range{{Col: "k", Lo: 100, Hi: 800}}},
		{Func: engine.Var, Col: "v"},
	} {
		want, err := tbl.Execute(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Execute(context.Background(), q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.ApproxEqual(got.Value, want.Value, 1e-12) {
			t.Errorf("%v: sharded %v vs unsharded %v", q, got.Value, want.Value)
		}
	}
	// MIN/MAX stay bit-exact even for floats (folding, not summing).
	for _, f := range []engine.AggFunc{engine.Min, engine.Max} {
		q := engine.Query{Func: f, Col: "v"}
		want, _ := tbl.Execute(context.Background(), q)
		got, err := s.Execute(context.Background(), q, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.ExactEqual(got.Value, want.Value) {
			t.Errorf("%v: sharded %v != unsharded %v", q, got.Value, want.Value)
		}
	}
}

func TestExecuteValidates(t *testing.T) {
	tbl := intTable(t, 1000, 6)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 4})
	// Unknown columns fail even when the ranges would prune every shard.
	q := engine.Query{Func: engine.Sum, Col: "nope",
		Ranges: []engine.Range{{Col: "k", Lo: -100, Hi: -50}}}
	if _, err := s.Execute(context.Background(), q, 1); err == nil {
		t.Error("unknown measure column did not fail")
	}
	q = engine.Query{Func: engine.Sum, Col: "v",
		Ranges: []engine.Range{{Col: "nope", Lo: 0, Hi: 1}}}
	if _, err := s.Execute(context.Background(), q, 1); err == nil {
		t.Error("unknown range column did not fail")
	}
	q = engine.Query{Func: engine.Sum, Col: "v", GroupBy: []string{"nope"}}
	if _, err := s.Execute(context.Background(), q, 1); err == nil {
		t.Error("unknown group column did not fail")
	}
}

func TestExecuteContextCancel(t *testing.T) {
	tbl := intTable(t, 20000, 7)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 4})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Execute(ctx, engine.Query{Func: engine.Sum, Col: "v"}, 2)
	if err == nil {
		t.Fatal("canceled context did not fail")
	}
}

func TestSnapshot(t *testing.T) {
	tbl := intTable(t, 4000, 8)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 4})
	q := engine.Query{Func: engine.Sum, Col: "v",
		Ranges: []engine.Range{{Col: "k", Lo: 0, Hi: 100}}}
	if _, err := s.Execute(context.Background(), q, 2); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Table != "t" || snap.Strategy != "range" || snap.Column != "k" {
		t.Errorf("snapshot header = %+v", snap)
	}
	if len(snap.Shards) != 4 {
		t.Fatalf("%d shard infos, want 4", len(snap.Shards))
	}
	if snap.Pruned == 0 {
		t.Error("selective query pruned nothing")
	}
	var scans uint64
	for _, sh := range snap.Shards {
		scans += sh.Scans
		if sh.Latency.Count != int64(sh.Scans) || (sh.Scans > 0 && sh.Latency.Sum <= 0) {
			t.Errorf("shard %d: %d scans but latency histogram counts %d over %v", sh.Index, sh.Scans, sh.Latency.Count, sh.Latency.Sum)
		}
	}
	if scans == 0 {
		t.Error("no scans recorded")
	}
	if int(scans)+int(snap.Pruned) != 4 {
		t.Errorf("scans %d + pruned %d != shard count 4", scans, snap.Pruned)
	}
}

// TestConcurrentScanCounters is the -race hammer for the per-shard
// scan histograms and the pruned counter: Execute fan-outs record into
// them while Snapshot reads them (stats.LatencyHistogram has its own
// race test; this one covers the wiring). The counters must also add up: every execute either scans or prunes each
// shard exactly once.
func TestConcurrentScanCounters(t *testing.T) {
	tbl := intTable(t, 4000, 8)
	q := engine.Query{Func: engine.Sum, Col: "v",
		Ranges: []engine.Range{{Col: "k", Lo: 0, Hi: 100}}}
	for _, tc := range []struct {
		name   string
		layout Layout
	}{
		{"range, pruning", Layout{Strategy: ByRange, Column: "k", N: 4}},
		{"hash, no pruning", Layout{Strategy: ByHash, Column: "k", N: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustPartition(t, tbl, tc.layout)
			const workers, rounds = 4, 25
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(2)
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if _, err := s.Execute(context.Background(), q, 2); err != nil {
							t.Error(err)
						}
					}
				}()
				go func() {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						if got := len(s.Snapshot().Shards); got != tc.layout.N {
							t.Errorf("snapshot has %d shards, want %d", got, tc.layout.N)
						}
					}
				}()
			}
			wg.Wait()
			snap := s.Snapshot()
			total := snap.Pruned
			for _, sh := range snap.Shards {
				total += sh.Scans
			}
			if want := uint64(workers * rounds * tc.layout.N); total != want {
				t.Errorf("scans + pruned = %d, want %d (executes × shards)", total, want)
			}
		})
	}
}

func TestLayoutSignature(t *testing.T) {
	a := Layout{Strategy: ByRange, Column: "k", N: 4}
	b := Layout{Strategy: ByHash, Column: "k", N: 4}
	c := Layout{Strategy: ByRange, Column: "k", N: 8}
	if a.Signature() == b.Signature() || a.Signature() == c.Signature() {
		t.Errorf("signatures collide: %q %q %q", a.Signature(), b.Signature(), c.Signature())
	}
	if a.Signature() != "range:k:4" {
		t.Errorf("signature = %q", a.Signature())
	}
}

func TestShardNames(t *testing.T) {
	tbl := intTable(t, 100, 9)
	s := mustPartition(t, tbl, Layout{Strategy: ByRange, Column: "k", N: 2})
	for h, sh := range s.Shards {
		want := fmt.Sprintf("t#%d", h)
		if sh.Table.Name != want {
			t.Errorf("shard %d table name %q, want %q", h, sh.Table.Name, want)
		}
	}
}

// TestShardedSurface is internal/engine's TestEngineSurface for the one
// scan entry point this package adds: Sharded.Execute exists once, ctx
// first. ExecuteContext is a one-line deprecated forward the frozen
// benchmark/trace.go calls.
func TestShardedSurface(t *testing.T) {
	typ := reflect.TypeOf(&Sharded{})
	ctxType := reflect.TypeOf((*context.Context)(nil)).Elem()
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		m := typ.Method(i)
		if !strings.HasPrefix(m.Name, "Execute") {
			continue
		}
		got = append(got, m.Name)
		if m.Type.NumIn() < 2 || m.Type.In(1) != ctxType {
			t.Errorf("%s does not take a context.Context first", m.Name)
		}
	}
	if want := []string{"Execute", "ExecuteContext"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Sharded.Execute* = %v, want %v", got, want)
	}
}
