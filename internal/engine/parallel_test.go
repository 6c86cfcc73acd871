package engine

import (
	"context"
	"math"
	"testing"

	"aqppp/internal/stats"
)

func parallelFixture(n int) *Table {
	r := stats.NewRNG(31)
	k := make([]int64, n)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = int64(r.Intn(1000) + 1)
		v[i] = r.NormFloat64() * 100
	}
	return MustNewTable("p",
		NewIntColumn("k", k),
		NewFloatColumn("v", v),
	)
}

// TestExecuteParallelMatchesSerial pins the scan driver's two contracts.
// A one-chunk scan — one worker, or any worker count over a table of at
// most one zone block — is the serial scan: Results bit-identical to
// Execute, scalar and GROUP BY. A multi-chunk scan is bit-identical for
// COUNT/MIN/MAX and agrees to reassociation for SUM/AVG/VAR; its group
// keys, first-seen order and Rows always match.
func TestExecuteParallelMatchesSerial(t *testing.T) {
	queries := []Query{
		{Func: Sum, Col: "v"},
		{Func: Count},
		{Func: Avg, Col: "v"},
		{Func: Var, Col: "v"},
		{Func: Min, Col: "v"},
		{Func: Max, Col: "v"},
		{Func: Sum, Col: "v", Ranges: []Range{{Col: "k", Lo: 100, Hi: 700}}},
		{Func: Count, Ranges: []Range{{Col: "k", Lo: 5000, Hi: 6000}}}, // empty
		{Func: Avg, Col: "v", Ranges: []Range{{Col: "k", Lo: 100, Hi: 700}}, GroupBy: []string{"k"}},
		{Func: Max, Col: "v", GroupBy: []string{"k", "k"}}, // map-mode keys
	}
	for _, rows := range []int{50000, zoneBlockSize} {
		tbl := parallelFixture(rows)
		for _, q := range queries {
			serial, err := tbl.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 2, 7} {
				par, err := tbl.ExecuteParallel(context.Background(), q, workers)
				if err != nil {
					t.Fatalf("rows=%d %v workers=%d: %v", rows, q, workers, err)
				}
				exact := workers == 1 || rows <= zoneBlockSize ||
					q.Func == Count || q.Func == Min || q.Func == Max
				same := func(got, want float64) bool {
					if exact {
						return math.Float64bits(got) == math.Float64bits(want)
					}
					return math.Abs(got-want) <= 1e-9*math.Max(math.Abs(want), 1)
				}
				if !same(par.Value, serial.Value) {
					t.Errorf("rows=%d %v workers=%d: parallel %v != serial %v", rows, q, workers, par.Value, serial.Value)
				}
				if len(par.Groups) != len(serial.Groups) {
					t.Fatalf("rows=%d %v workers=%d: %d groups, serial has %d", rows, q, workers, len(par.Groups), len(serial.Groups))
				}
				for i, g := range par.Groups {
					w := serial.Groups[i]
					if g.Key != w.Key || g.Rows != w.Rows || !same(g.Value, w.Value) {
						t.Errorf("rows=%d %v workers=%d: group %d = %+v, serial %+v", rows, q, workers, i, g, w)
					}
				}
			}
		}
	}
}

func TestExecuteParallelGroupByFallsBack(t *testing.T) {
	tbl := MustNewTable("g",
		NewStringColumn("s", []string{"a", "b", "a"}),
		NewFloatColumn("v", []float64{1, 2, 3}),
	)
	res, err := tbl.ExecuteParallel(context.Background(), Query{Func: Sum, Col: "v", GroupBy: []string{"s"}}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 2 {
		t.Errorf("groups = %+v", res.Groups)
	}
}

// TestExecuteParallelStress hammers ExecuteParallel with fresh tables
// (so the string rank cache starts cold every iteration, exercising the
// warm-before-fan-out path) across varying worker counts. Run under
// `go test -race -count=N` to shake out scheduling-dependent races; the
// results are also checked against the serial path each time.
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
		q := Query{Func: Sum, Col: "v", Ranges: []Range{
			{Col: "k", Lo: 100, Hi: 900},
			{Col: "region", Lo: 1, Hi: 3}, // string ranges go through Ordinal
		}}
		for _, workers := range []int{2, 3, 5, 8, 16} {
			// A fresh table per run, queried in parallel FIRST: the string
			// rank cache is still cold when the workers fan out, so every
			// run exercises the pre-fan-out warming. (A serial query first
			// would warm the cache and mask a missing warm-up.)
			tbl := MustNewTable("stress",
				NewIntColumn("k", k),
				NewFloatColumn("v", v),
				NewStringColumn("region", s),
			)
			par, err := tbl.ExecuteParallel(context.Background(), q, workers)
			if err != nil {
				t.Fatalf("iter=%d workers=%d: %v", iter, workers, err)
			}
			serial, err := tbl.Execute(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			tol := 1e-9 * math.Max(math.Abs(serial.Value), 1)
			if math.Abs(par.Value-serial.Value) > tol {
				t.Errorf("iter=%d workers=%d: parallel %v != serial %v",
					iter, workers, par.Value, serial.Value)
			}
		}
	}
}

func TestExecuteParallelErrors(t *testing.T) {
	tbl := parallelFixture(10000)
	if _, err := tbl.ExecuteParallel(context.Background(), Query{Func: Sum, Col: "nope"}, 4); err == nil {
		t.Error("bad column accepted")
	}
	if _, err := tbl.ExecuteParallel(context.Background(), Query{Func: Sum, Col: "v", Ranges: []Range{{Col: "nope"}}}, 4); err == nil {
		t.Error("bad range column accepted")
	}
}

func BenchmarkExecuteSerial(b *testing.B) {
	tbl := parallelFixture(500000)
	q := Query{Func: Sum, Col: "v", Ranges: []Range{{Col: "k", Lo: 100, Hi: 900}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Execute(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExecuteParallel(b *testing.B) {
	tbl := parallelFixture(500000)
	q := Query{Func: Sum, Col: "v", Ranges: []Range{{Col: "k", Lo: 100, Hi: 900}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.ExecuteParallel(context.Background(), q, 0); err != nil {
			b.Fatal(err)
		}
	}
}
