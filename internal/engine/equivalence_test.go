package engine

import (
	"context"
	"strings"
	"testing"

	"aqppp/internal/stats"
)

// This file cross-checks the kernel layer end to end: Execute and Filter
// are compared against a deliberately naive row-at-a-time reference over
// randomized tables, queries and group-by clauses. Guarantees verified:
//
//   - Execute is bit-identical to the reference for SUM/COUNT/MIN/MAX
//     (same additions in the same order) and within ApproxEqual
//     tolerance for AVG/VAR;
//   - group-by results match on keys, first-seen order and row counts
//     exactly, with per-group values compared as above;
//   - Filter selects exactly the rows the reference selects.

// refSelect returns the matching rows via per-row Ordinal tests.
func refSelect(t *Table, ranges []Range) []int {
	n := t.NumRows()
	var rows []int
	for i := 0; i < n; i++ {
		in := true
		for _, r := range ranges {
			c := t.MustColumn(r.Col)
			if v := c.Ordinal(i); v < r.Lo || v > r.Hi {
				in = false
				break
			}
		}
		if in {
			rows = append(rows, i)
		}
	}
	return rows
}

// refExecute is the row-at-a-time reference implementation (the engine's
// pre-kernel semantics, kept here as the test oracle).
func refExecute(t *Table, q Query) Result {
	rows := refSelect(t, q.Ranges)
	var col *Column
	if q.Func != Count {
		col = t.MustColumn(q.Col)
	}
	val := func(i int) float64 {
		if col != nil {
			return col.Float(i)
		}
		return 0
	}
	if len(q.GroupBy) == 0 {
		var st Partial
		for _, i := range rows {
			st.add(val(i))
		}
		v, err := st.Finish(q.Func)
		if err != nil {
			panic(err)
		}
		return Result{Value: v}
	}
	groupCols := make([]*Column, len(q.GroupBy))
	for j, g := range q.GroupBy {
		groupCols[j] = t.MustColumn(g)
	}
	states := make(map[string]*Partial)
	var order []string
	for _, i := range rows {
		key := groupKey(groupCols, i)
		st, ok := states[key]
		if !ok {
			st = &Partial{}
			states[key] = st
			order = append(order, key)
		}
		st.add(val(i))
	}
	out := make([]GroupRow, 0, len(order))
	for _, key := range order {
		st := states[key]
		v, err := st.Finish(q.Func)
		if err != nil {
			panic(err)
		}
		out = append(out, GroupRow{Key: key, Value: v, Rows: int(st.N)})
	}
	return Result{Groups: out}
}

// equivalenceTable builds a randomized fixture covering every column
// type and both group-key strategies (plus the map fallback).
func equivalenceTable(n int, r *stats.RNG) *Table {
	clustered := make([]int64, n)
	smallInt := make([]int64, n)
	wideInt := make([]int64, n)
	f := make([]float64, n)
	lowStr := make([]string, n)
	highStr := make([]string, n)
	low := []string{"east", "west", "north", "south", "mid"}
	for i := 0; i < n; i++ {
		clustered[i] = int64(i / 2) // sorted with duplicates
		smallInt[i] = int64(r.Intn(40) - 20)
		wideInt[i] = r.Int63n(1 << 40)
		f[i] = r.NormFloat64() * 50
		lowStr[i] = low[r.Intn(len(low))]
		highStr[i] = "g" + strings.Repeat("x", r.Intn(3)) + low[r.Intn(len(low))]
	}
	return MustNewTable("equiv",
		NewIntColumn("clustered", clustered),
		NewIntColumn("small", smallInt),
		NewIntColumn("wide", wideInt),
		NewFloatColumn("f", f),
		NewStringColumn("cat", lowStr),
		NewStringColumn("hcat", highStr),
	)
}

// randomRange draws a range over col with a randomized shape: empty,
// point, full-domain, straddling a zone-block boundary, or generic.
func randomRange(t *Table, col string, r *stats.RNG) Range {
	c := t.MustColumn(col)
	lo, hi := c.OrdinalDomain()
	switch r.Intn(5) {
	case 0: // empty (disjoint from the domain)
		return Range{Col: col, Lo: hi + 10, Hi: hi + 20}
	case 1: // point
		p := c.Ordinal(r.Intn(c.Len()))
		return Range{Col: col, Lo: p, Hi: p}
	case 2: // full domain
		return Range{Col: col, Lo: lo - 1, Hi: hi + 1}
	case 3: // straddle a zone-block boundary on the clustered axis
		edge := float64(zoneBlockSize/2) + float64(zoneBlockSize*r.Intn(2))
		return Range{Col: col, Lo: edge - float64(r.Intn(200)), Hi: edge + float64(r.Intn(200))}
	default:
		a := lo + r.Float64()*(hi-lo)
		b := a + r.Float64()*(hi-lo)/4
		return Range{Col: col, Lo: a, Hi: b}
	}
}

func randomQuery(t *Table, r *stats.RNG) Query {
	funcs := []AggFunc{Sum, Count, Avg, Var, Min, Max}
	aggCols := []string{"f", "small", "wide", "cat"}
	rangeCols := []string{"clustered", "small", "wide", "f", "cat", "hcat"}
	groupCols := []string{"cat", "hcat", "small", "wide", "f"}
	q := Query{Func: funcs[r.Intn(len(funcs))]}
	if q.Func != Count {
		q.Col = aggCols[r.Intn(len(aggCols))]
	}
	for k := r.Intn(4); k > 0; k-- {
		q.Ranges = append(q.Ranges, randomRange(t, rangeCols[r.Intn(len(rangeCols))], r))
	}
	switch r.Intn(3) {
	case 1:
		q.GroupBy = []string{groupCols[r.Intn(len(groupCols))]}
	case 2:
		a := groupCols[r.Intn(len(groupCols))]
		b := groupCols[r.Intn(len(groupCols))]
		if a != b {
			q.GroupBy = []string{a, b}
		} else {
			q.GroupBy = []string{a}
		}
	}
	return q
}

// serialExact: these aggregates are bit-identical to the reference; the
// rest are compared within floating-point tolerances.
func serialExact(f AggFunc) bool { return f == Sum || f == Count || f == Min || f == Max }

func checkValue(t *testing.T, ctx string, got, want float64, exact bool) {
	t.Helper()
	if exact {
		if !stats.ExactEqual(got, want) {
			t.Errorf("%s: got %v, want %v (exact)", ctx, got, want)
		}
	} else if !stats.ApproxEqual(got, want, 1e-9) {
		t.Errorf("%s: got %v, want %v (approx)", ctx, got, want)
	}
}

func checkResult(t *testing.T, ctx string, q Query, got, want Result, exact bool) {
	t.Helper()
	if len(q.GroupBy) == 0 {
		checkValue(t, ctx, got.Value, want.Value, exact)
		return
	}
	if len(got.Groups) != len(want.Groups) {
		t.Errorf("%s: %d groups, want %d", ctx, len(got.Groups), len(want.Groups))
		return
	}
	for i := range got.Groups {
		g, w := got.Groups[i], want.Groups[i]
		if g.Key != w.Key {
			t.Errorf("%s: group %d key %q, want %q (first-seen order must match)", ctx, i, g.Key, w.Key)
			continue
		}
		if g.Rows != w.Rows {
			t.Errorf("%s: group %q rows %d, want %d", ctx, g.Key, g.Rows, w.Rows)
		}
		checkValue(t, ctx+" group "+g.Key, g.Value, w.Value, exact)
	}
}

func TestKernelEquivalenceRandomized(t *testing.T) {
	r := stats.NewRNG(20260806)
	// Three table sizes: below the zone threshold, above it with a
	// partial tail block, and exactly block-aligned.
	for _, n := range []int{97, 2*zoneBlockSize + 401, 3 * zoneBlockSize} {
		tbl := equivalenceTable(n, r)
		trials := 40
		if testing.Short() {
			trials = 10
		}
		for trial := 0; trial < trials; trial++ {
			q := randomQuery(tbl, r)
			want := refExecute(tbl, q)
			got, err := tbl.Execute(context.Background(), q)
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, q, err)
			}
			checkResult(t, q.String()+" serial", q, got, want, serialExact(q.Func))
		}
	}
}

// TestFilterEquivalenceRandomized bit-compares Filter (zone-mapped
// word-store kernels, scratch reuse) against the reference row test.
func TestFilterEquivalenceRandomized(t *testing.T) {
	r := stats.NewRNG(77)
	for _, n := range []int{64, 130, 2*zoneBlockSize + 401, 3 * zoneBlockSize} {
		tbl := equivalenceTable(n, r)
		cols := []string{"clustered", "small", "wide", "f", "cat", "hcat"}
		for trial := 0; trial < 25; trial++ {
			var ranges []Range
			for k := r.Intn(4); k > 0; k-- {
				ranges = append(ranges, randomRange(tbl, cols[r.Intn(len(cols))], r))
			}
			sel, err := tbl.Filter(ranges)
			if err != nil {
				t.Fatal(err)
			}
			want := refSelect(tbl, ranges)
			if sel.Count() != len(want) {
				t.Fatalf("n=%d ranges=%v: count %d, want %d", n, ranges, sel.Count(), len(want))
			}
			for _, i := range want {
				if !sel.Get(i) {
					t.Fatalf("n=%d ranges=%v: row %d missing", n, ranges, i)
				}
			}
		}
	}
}
