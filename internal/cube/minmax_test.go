package cube

import (
	"context"
	"math"
	"sort"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

func TestMinMaxMatchesBruteForce(t *testing.T) {
	r := stats.NewRNG(7)
	tbl := randomTable(1, 2000, 200, 7)
	idx, err := BuildMinMax(tbl, "a", dimName(0))
	if err != nil {
		t.Fatal(err)
	}
	acol := tbl.MustColumn("a")
	dcol := tbl.MustColumn(dimName(0))
	for trial := 0; trial < 100; trial++ {
		lo := float64(r.Intn(200) + 1)
		hi := lo + float64(r.Intn(60))
		wantMin, wantMax := math.Inf(1), math.Inf(-1)
		found := false
		for row := 0; row < tbl.NumRows(); row++ {
			v := dcol.Ordinal(row)
			if v >= lo && v <= hi {
				found = true
				wantMin = math.Min(wantMin, acol.Float(row))
				wantMax = math.Max(wantMax, acol.Float(row))
			}
		}
		gotMin, okMin := idx.Min(lo, hi)
		gotMax, okMax := idx.Max(lo, hi)
		if okMin != found || okMax != found {
			t.Fatalf("trial %d: ok=%v/%v, want %v", trial, okMin, okMax, found)
		}
		if found {
			if gotMin != wantMin {
				t.Fatalf("trial %d: Min(%v,%v) = %v, want %v", trial, lo, hi, gotMin, wantMin)
			}
			if gotMax != wantMax {
				t.Fatalf("trial %d: Max(%v,%v) = %v, want %v", trial, lo, hi, gotMax, wantMax)
			}
		}
	}
}

func TestMinMaxAnswerQuery(t *testing.T) {
	tbl := randomTable(1, 500, 50, 8)
	idx, err := BuildMinMax(tbl, "a", dimName(0))
	if err != nil {
		t.Fatal(err)
	}
	q := engine.Query{Func: engine.Min, Col: "a",
		Ranges: []engine.Range{{Col: dimName(0), Lo: 10, Hi: 30}}}
	truth, _ := tbl.Execute(context.Background(), q)
	got, err := idx.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != truth.Value {
		t.Errorf("MIN = %v, want %v", got, truth.Value)
	}
	q.Func = engine.Max
	truth, _ = tbl.Execute(context.Background(), q)
	got, err = idx.Answer(q)
	if err != nil {
		t.Fatal(err)
	}
	if got != truth.Value {
		t.Errorf("MAX = %v, want %v", got, truth.Value)
	}
	// Unrestricted query = global extrema.
	full := engine.Query{Func: engine.Max, Col: "a"}
	truth, _ = tbl.Execute(context.Background(), full)
	got, err = idx.Answer(full)
	if err != nil {
		t.Fatal(err)
	}
	if got != truth.Value {
		t.Errorf("global MAX = %v, want %v", got, truth.Value)
	}
}

func TestMinMaxAnswerErrors(t *testing.T) {
	tbl := randomTable(2, 100, 20, 9)
	idx, err := BuildMinMax(tbl, "a", dimName(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.Answer(engine.Query{Func: engine.Sum, Col: "a"}); err == nil {
		t.Error("SUM accepted")
	}
	if _, err := idx.Answer(engine.Query{Func: engine.Min, Col: "other"}); err == nil {
		t.Error("wrong aggregate column accepted")
	}
	q := engine.Query{Func: engine.Min, Col: "a",
		Ranges: []engine.Range{{Col: dimName(1), Lo: 1, Hi: 5}}}
	if _, err := idx.Answer(q); err == nil {
		t.Error("foreign dimension accepted")
	}
	empty := engine.Query{Func: engine.Min, Col: "a",
		Ranges: []engine.Range{{Col: dimName(0), Lo: 1000, Hi: 2000}}}
	if _, err := idx.Answer(empty); err == nil {
		t.Error("empty range produced a value")
	}
}

func TestMinMaxValidation(t *testing.T) {
	tbl := randomTable(1, 50, 10, 10)
	if _, err := BuildMinMax(tbl, "nope", dimName(0)); err == nil {
		t.Error("bad aggregate column accepted")
	}
	if _, err := BuildMinMax(tbl, "a", "nope"); err == nil {
		t.Error("bad dimension column accepted")
	}
	idx, err := BuildMinMax(tbl, "a", dimName(0))
	if err != nil {
		t.Fatal(err)
	}
	if idx.SizeBytes() <= 0 {
		t.Error("SizeBytes = 0")
	}
}

func TestMinMaxSingleRow(t *testing.T) {
	tbl := engine.MustNewTable("one",
		engine.NewFloatColumn("a", []float64{42}),
		engine.NewIntColumn("c", []int64{7}),
	)
	idx, err := BuildMinMax(tbl, "a", "c")
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := idx.Min(7, 7); !ok || v != 42 {
		t.Errorf("Min = %v ok=%v", v, ok)
	}
	if _, ok := idx.Min(8, 9); ok {
		t.Error("empty range reported a value")
	}
}

// Every row span of a table a little over three blocks long, so both
// ends of a span land on, before and after every block boundary and the
// trailing partial block is reached.
func TestMinMaxEverySpanAcrossBlocks(t *testing.T) {
	r := stats.NewRNG(11)
	n := 3*minMaxBlock + 5
	ords, vals := make([]float64, n), make([]float64, n)
	for i := range vals {
		ords[i], vals[i] = float64(i), float64(r.Intn(1000))
	}
	idx := newMinMaxFrom("c", "a", ords, vals)
	for i := 0; i < n; i++ {
		wantMin, wantMax := math.Inf(1), math.Inf(-1)
		for j := i; j < n; j++ {
			wantMin, wantMax = math.Min(wantMin, vals[j]), math.Max(wantMax, vals[j])
			gotMin, _ := idx.Min(float64(i), float64(j))
			gotMax, _ := idx.Max(float64(i), float64(j))
			if gotMin != wantMin || gotMax != wantMax {
				t.Fatalf("rows [%d, %d]: got min %v max %v, want %v %v", i, j, gotMin, gotMax, wantMin, wantMax)
			}
		}
	}
}

// TestMinMaxNaNDimensionMatchesScan: a float dimension holding NaN rows
// (which match no range but belong to an unrestricted query) answers
// every range, and the unrestricted query, exactly as a scan does; the
// persisted pairs put the NaN ordinals last.
func TestMinMaxNaNDimensionMatchesScan(t *testing.T) {
	const n = 2000
	r := stats.NewRNG(21)
	dim, vals := make([]float64, n), make([]float64, n)
	for i := range dim {
		dim[i] = math.Floor(r.Float64() * 500)
		vals[i] = r.Float64()*1000 - 500
	}
	for k := 0; k < 21; k++ {
		dim[r.Intn(n)] = math.NaN()
	}
	dim[0], vals[0] = math.NaN(), 1e6 // the global MAX sits on a NaN row
	tbl := engine.MustNewTable("t", engine.NewFloatColumn("a", vals), engine.NewFloatColumn("c", dim))
	idx, err := BuildMinMax(tbl, "a", "c")
	if err != nil {
		t.Fatal(err)
	}
	nans := 0
	for _, v := range dim {
		if math.IsNaN(v) {
			nans++
		}
	}
	ords, _ := idx.Pairs()
	k := len(ords)
	for k > 0 && math.IsNaN(ords[k-1]) {
		k--
	}
	if k != n-nans || !sort.Float64sAreSorted(ords[:k]) {
		t.Fatalf("pairs: %d ordinals before the trailing NaN run (want %d), sorted %v",
			k, n-nans, sort.Float64sAreSorted(ords[:k]))
	}
	ctx := context.Background()
	check := func(ranges []engine.Range) {
		t.Helper()
		count, err := tbl.Execute(ctx, engine.Query{Func: engine.Count, Ranges: ranges})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []engine.AggFunc{engine.Min, engine.Max} {
			q := engine.Query{Func: f, Col: "a", Ranges: ranges}
			got, err := idx.Answer(q)
			if count.Value == 0 {
				if err == nil {
					t.Fatalf("%v over %v: %v for an empty selection", f, ranges, got)
				}
				continue
			}
			truth, _ := tbl.Execute(ctx, q)
			if err != nil || got != truth.Value {
				t.Fatalf("%v over %v = %v (%v), scan %v", f, ranges, got, err, truth.Value)
			}
		}
	}
	check(nil)
	check([]engine.Range{{Col: "c", Lo: math.Inf(-1), Hi: math.Inf(1)}})
	check([]engine.Range{{Col: "c", Lo: math.NaN(), Hi: 10}})
	check([]engine.Range{{Col: "c", Lo: 10, Hi: math.NaN()}})
	for trial := 0; trial < 200; trial++ {
		lo := math.Floor(r.Float64()*520) - 10
		check([]engine.Range{{Col: "c", Lo: lo, Hi: lo + math.Floor(r.Float64()*100)}})
	}
}

// TestMinMaxFromPairsNaN: NaN ordinals are accepted only as the
// trailing run BuildMinMax writes.
func TestMinMaxFromPairsNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		ords []float64
		ok   bool
	}{
		{[]float64{1, 2, nan, nan}, true},
		{[]float64{nan, nan}, true},
		{[]float64{}, true},
		{[]float64{1, nan, 2}, false},
		{[]float64{nan, 1}, false},
		{[]float64{2, 1, nan}, false},
	} {
		_, err := MinMaxFromPairs("c", "a", tc.ords, make([]float64, len(tc.ords)))
		if (err == nil) != tc.ok {
			t.Errorf("MinMaxFromPairs(%v): err = %v, want ok=%v", tc.ords, err, tc.ok)
		}
	}
}

// TestMinMaxNaNMeasureMatchesScan: MIN and MAX skip NaN measure rows in
// the index as the exact scan does, and answer what the scan answers
// (NaN) over a span whose every row is NaN. The NaN rows include the
// table's first row, a whole dimension value (an all-NaN span), and
// enough scattered rows to land in the sparse table's block summaries.
func TestMinMaxNaNMeasureMatchesScan(t *testing.T) {
	const n = 3000
	r := stats.NewRNG(23)
	dim, vals := make([]int64, n), make([]float64, n)
	for i := range dim {
		dim[i] = int64(r.Intn(300))
		vals[i] = r.Float64()*1000 - 500
		if dim[i] == 150 || r.Intn(40) == 0 {
			vals[i] = math.NaN()
		}
	}
	vals[0] = math.NaN()
	tbl := engine.MustNewTable("t", engine.NewFloatColumn("a", vals), engine.NewIntColumn("c", dim))
	idx, err := BuildMinMax(tbl, "a", "c")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	allNaN := 0
	for trial := 0; trial < 400; trial++ {
		var ranges []engine.Range
		switch trial {
		case 0: // unrestricted
		case 1:
			ranges = []engine.Range{{Col: "c", Lo: 150, Hi: 150}}
		default:
			lo := float64(r.Intn(300))
			ranges = []engine.Range{{Col: "c", Lo: lo, Hi: lo + float64(r.Intn(120))}}
		}
		for _, f := range []engine.AggFunc{engine.Min, engine.Max} {
			q := engine.Query{Func: f, Col: "a", Ranges: ranges}
			got, err := idx.Answer(q)
			if err != nil {
				t.Fatalf("%v: %v", q, err)
			}
			truth, err := tbl.Execute(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if !same(got, truth.Value) {
				t.Fatalf("%v = %v, scan %v", q, got, truth.Value)
			}
			if math.IsNaN(got) {
				allNaN++
			}
		}
	}
	if allNaN != 2 {
		t.Errorf("%d NaN answers, want 2 (the all-NaN span's MIN and MAX)", allNaN)
	}
}
