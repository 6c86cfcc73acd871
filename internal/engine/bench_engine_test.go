package engine

import (
	"context"
	"testing"

	"aqppp/internal/stats"
)

// benchEngineTable builds the microbenchmark fixture: 1M rows with a
// clustered int column (sorted, so zone maps skip aggressively), a
// shuffled int column (zones never skip), a float measure, a low-card
// string dimension and a small-domain int dimension.
func benchEngineTable(n int) *Table {
	r := stats.NewRNG(0xbe7c)
	clustered := make([]int64, n)
	shuffled := make([]int64, n)
	v := make([]float64, n)
	cat := make([]string, n)
	bucket := make([]int64, n)
	cats := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
	for i := 0; i < n; i++ {
		clustered[i] = int64(i)
		shuffled[i] = int64(r.Intn(n))
		v[i] = r.NormFloat64() * 100
		cat[i] = cats[r.Intn(len(cats))]
		bucket[i] = int64(r.Intn(16))
	}
	return MustNewTable("bench",
		NewIntColumn("clustered", clustered),
		NewIntColumn("shuffled", shuffled),
		NewFloatColumn("v", v),
		NewStringColumn("cat", cat),
		NewIntColumn("bucket", bucket),
	)
}

const benchRows = 1 << 20

// selectiveRange covers ~2% of the fixture's row domain.
func selectiveRange(col string) []Range {
	return []Range{{Col: col, Lo: benchRows / 2, Hi: benchRows/2 + benchRows/50}}
}

func benchFilter(b *testing.B, tbl *Table, rng []Range) {
	if _, err := tbl.Filter(rng); err != nil { // warm zone maps
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Filter(rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineFilterClustered(b *testing.B) {
	benchFilter(b, benchEngineTable(benchRows), selectiveRange("clustered"))
}

func BenchmarkEngineFilterShuffled(b *testing.B) {
	benchFilter(b, benchEngineTable(benchRows), selectiveRange("shuffled"))
}

// BenchmarkEngineFilterShuffledBySelectivity filters an int and a float
// column, both in random order so every block straddles, at ~1 %, ~50 %
// and ~99 % selectivity. A branch-free compare kernel costs the same at
// all three; a kernel that sets its bit under a data-dependent branch
// peaks at 50 %, where the branch is a coin flip.
func BenchmarkEngineFilterShuffledBySelectivity(b *testing.B) {
	tbl := benchEngineTable(benchRows)
	for _, bc := range []struct {
		name string
		rng  Range
	}{
		// shuffled is uniform on [0, benchRows).
		{"int-1pct", Range{Col: "shuffled", Lo: 0, Hi: benchRows / 100}},
		{"int-50pct", Range{Col: "shuffled", Lo: 0, Hi: benchRows / 2}},
		{"int-99pct", Range{Col: "shuffled", Lo: 0, Hi: benchRows / 100 * 99}},
		// v is N(0, 100²): |v| <= 100·z covers 2Φ(z)−1 of the rows.
		{"float-1pct", Range{Col: "v", Lo: -1.253, Hi: 1.253}},
		{"float-50pct", Range{Col: "v", Lo: -67.45, Hi: 67.45}},
		{"float-99pct", Range{Col: "v", Lo: -257.6, Hi: 257.6}},
	} {
		b.Run(bc.name, func(b *testing.B) { benchFilter(b, tbl, []Range{bc.rng}) })
	}
}

func benchExecute(b *testing.B, q Query) {
	tbl := benchEngineTable(benchRows)
	if _, err := tbl.Execute(context.Background(), q); err != nil { // warm caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Execute(context.Background(), q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineFusedSumClustered(b *testing.B) {
	benchExecute(b, Query{Func: Sum, Col: "v", Ranges: selectiveRange("clustered")})
}

func BenchmarkEngineFusedSumShuffled(b *testing.B) {
	benchExecute(b, Query{Func: Sum, Col: "v", Ranges: selectiveRange("shuffled")})
}

func BenchmarkEngineFusedSumFull(b *testing.B) {
	benchExecute(b, Query{Func: Sum, Col: "v"})
}

func BenchmarkEngineMultiRangeCount(b *testing.B) {
	benchExecute(b, Query{Func: Count, Ranges: []Range{
		{Col: "clustered", Lo: 0, Hi: benchRows / 2},
		{Col: "shuffled", Lo: 0, Hi: benchRows / 2},
	}})
}

func BenchmarkEngineGroupByString(b *testing.B) {
	benchExecute(b, Query{Func: Sum, Col: "v", GroupBy: []string{"cat"}})
}

func BenchmarkEngineGroupByInt(b *testing.B) {
	benchExecute(b, Query{Func: Sum, Col: "v", GroupBy: []string{"bucket"}})
}

func BenchmarkEngineGroupByFiltered(b *testing.B) {
	benchExecute(b, Query{
		Func: Sum, Col: "v",
		Ranges:  []Range{{Col: "clustered", Lo: 0, Hi: benchRows / 4}},
		GroupBy: []string{"cat"},
	})
}
