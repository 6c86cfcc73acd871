package engine_test

import (
	"testing"

	"aqppp/internal/dataset"
)

// sortedIndexSink keeps the benchmarked sort from being optimized away.
var sortedIndexSink []int

// BenchmarkSortedIndexByOrdinal sorts a 300k-row TPCD-Skew table by
// each column the benchmark's handles and shards order by: two int
// dimensions, a float measure and a string flag.
func BenchmarkSortedIndexByOrdinal(b *testing.B) {
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: 300000, Seed: 42})
	for _, col := range []string{"l_shipdate", "l_suppkey", "l_extendedprice", "l_returnflag"} {
		b.Run(col, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				idx, err := tbl.SortedIndexByOrdinal(col)
				if err != nil {
					b.Fatal(err)
				}
				sortedIndexSink = idx
			}
		})
	}
}
