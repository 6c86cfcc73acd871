package engine

import (
	"context"
	"math"
	"testing"
)

func execVal(t *testing.T, tbl *Table, q Query) float64 {
	t.Helper()
	res, err := tbl.Execute(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return res.Value
}

func TestExecuteAggregates(t *testing.T) {
	tbl := sampleTable(t)
	all := []Range(nil)
	if got := execVal(t, tbl, Query{Func: Sum, Col: "amount", Ranges: all}); got != 150 {
		t.Errorf("SUM = %v", got)
	}
	if got := execVal(t, tbl, Query{Func: Count, Ranges: all}); got != 5 {
		t.Errorf("COUNT = %v", got)
	}
	if got := execVal(t, tbl, Query{Func: Avg, Col: "amount", Ranges: all}); got != 30 {
		t.Errorf("AVG = %v", got)
	}
	if got := execVal(t, tbl, Query{Func: Var, Col: "amount", Ranges: all}); got != 200 {
		t.Errorf("VAR = %v", got)
	}
	if got := execVal(t, tbl, Query{Func: Min, Col: "amount", Ranges: all}); got != 10 {
		t.Errorf("MIN = %v", got)
	}
	if got := execVal(t, tbl, Query{Func: Max, Col: "amount", Ranges: all}); got != 50 {
		t.Errorf("MAX = %v", got)
	}
}

func TestExecuteRangeFilter(t *testing.T) {
	tbl := sampleTable(t)
	q := Query{Func: Sum, Col: "amount", Ranges: []Range{{Col: "id", Lo: 2, Hi: 4}}}
	if got := execVal(t, tbl, q); got != 90 {
		t.Errorf("filtered SUM = %v, want 90", got)
	}
	// Conjunction of two ranges.
	q.Ranges = append(q.Ranges, Range{Col: "amount", Lo: 25, Hi: 100})
	if got := execVal(t, tbl, q); got != 70 {
		t.Errorf("double-filtered SUM = %v, want 70", got)
	}
	// Empty range.
	q.Ranges = []Range{{Col: "id", Lo: 10, Hi: 20}}
	if got := execVal(t, tbl, q); got != 0 {
		t.Errorf("empty-range SUM = %v, want 0", got)
	}
}

func TestExecuteStringRange(t *testing.T) {
	tbl := sampleTable(t)
	// east=0, north=1, west=2; ordinal range [0,1] selects east+north rows.
	q := Query{Func: Sum, Col: "amount", Ranges: []Range{{Col: "region", Lo: 0, Hi: 1}}}
	if got := execVal(t, tbl, q); got != 110 {
		t.Errorf("string-range SUM = %v, want 110 (20+50+40)", got)
	}
}

func TestExecuteGroupBy(t *testing.T) {
	tbl := sampleTable(t)
	res, err := tbl.Execute(context.Background(), Query{Func: Sum, Col: "amount", GroupBy: []string{"region"}})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"west": 40, "east": 70, "north": 40}
	if len(res.Groups) != 3 {
		t.Fatalf("got %d groups", len(res.Groups))
	}
	for _, g := range res.Groups {
		if want[g.Key] != g.Value {
			t.Errorf("group %q = %v, want %v", g.Key, g.Value, want[g.Key])
		}
	}
	// Groups appear in first-seen order.
	if res.Groups[0].Key != "west" || res.Groups[1].Key != "east" {
		t.Errorf("group order = %v, %v", res.Groups[0].Key, res.Groups[1].Key)
	}
}

func TestExecuteGroupByMultiKeyAndFilter(t *testing.T) {
	tbl := MustNewTable("t",
		NewStringColumn("a", []string{"x", "x", "y", "y"}),
		NewStringColumn("b", []string{"1", "2", "1", "2"}),
		NewFloatColumn("v", []float64{1, 2, 3, 4}),
		NewIntColumn("k", []int64{1, 2, 3, 4}),
	)
	res, err := tbl.Execute(context.Background(), Query{
		Func: Sum, Col: "v",
		Ranges:  []Range{{Col: "k", Lo: 2, Hi: 4}},
		GroupBy: []string{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"x|2": 2, "y|1": 3, "y|2": 4}
	if len(res.Groups) != len(want) {
		t.Fatalf("groups = %+v", res.Groups)
	}
	for _, g := range res.Groups {
		if want[g.Key] != g.Value {
			t.Errorf("group %q = %v, want %v", g.Key, g.Value, want[g.Key])
		}
		if g.Rows != 1 {
			t.Errorf("group %q rows = %d", g.Key, g.Rows)
		}
	}
}

func TestExecuteErrors(t *testing.T) {
	tbl := sampleTable(t)
	if _, err := tbl.Execute(context.Background(), Query{Func: Sum, Col: "nope"}); err == nil {
		t.Error("bad agg column accepted")
	}
	if _, err := tbl.Execute(context.Background(), Query{Func: Sum, Col: "amount", Ranges: []Range{{Col: "nope"}}}); err == nil {
		t.Error("bad range column accepted")
	}
	if _, err := tbl.Execute(context.Background(), Query{Func: Sum, Col: "amount", GroupBy: []string{"nope"}}); err == nil {
		t.Error("bad group column accepted")
	}
}

func TestCountIgnoresColumn(t *testing.T) {
	tbl := sampleTable(t)
	if got := execVal(t, tbl, Query{Func: Count, Col: "whatever"}); got != 5 {
		t.Errorf("COUNT with bogus column = %v", got)
	}
}

func TestVarMatchesDefinition(t *testing.T) {
	tbl := MustNewTable("t", NewFloatColumn("v", []float64{2, 4, 4, 4, 5, 5, 7, 9}))
	if got := execVal(t, tbl, Query{Func: Var, Col: "v"}); math.Abs(got-4) > 1e-12 {
		t.Errorf("VAR = %v, want 4", got)
	}
}

func TestQueryString(t *testing.T) {
	q := Query{Func: Sum, Col: "a", Ranges: []Range{{Col: "c", Lo: 1, Hi: 9}}, GroupBy: []string{"g"}}
	s := q.String()
	for _, want := range []string{"SUM(a)", "c:1..9", "GROUP BY g"} {
		if !contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestScanMinMaxSkipsNaNInAnyOrder: the exact scan's MIN and MAX skip a
// NaN row wherever it falls, first row included, and a merge of
// partials does the same whichever partial holds it.
func TestScanMinMaxSkipsNaNInAnyOrder(t *testing.T) {
	nan := math.NaN()
	for _, vals := range [][]float64{{nan, 3, 1, 2}, {3, nan, 1, 2}, {3, 1, 2, nan}} {
		tbl := MustNewTable("t", NewFloatColumn("a", vals))
		for f, want := range map[AggFunc]float64{Min: 1, Max: 3} {
			res, err := tbl.Execute(context.Background(), Query{Func: f, Col: "a"})
			if err != nil || res.Value != want {
				t.Errorf("%v over %v = %v (%v), want %v", f, vals, res.Value, err, want)
			}
		}
	}
	var p Partial
	p.Merge(Partial{N: 1, Min: nan, Max: nan})
	p.Merge(Partial{N: 2, Min: 1, Max: 3})
	if p.Min != 1 || p.Max != 3 {
		t.Errorf("merged partial %+v, want min 1, max 3", p)
	}
}
