package shard

import (
	"context"
	"sync"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// benchShardTable builds the scatter-gather microbenchmark fixture: 1M
// rows whose filter column is shuffled (uniform over the row domain, so
// every zone-map block straddles any selective range and the unsharded
// engine must scan end to end) plus a float measure. Range-partitioning
// on the shuffled column re-clusters it: a selective range then falls
// inside one shard's span and pruning skips the rest, which is where
// the sharded speedup on straddle-heavy workloads comes from.
func benchShardTable(n int) *engine.Table {
	r := stats.NewRNG(0x5a4d)
	shuffled := make([]int64, n)
	v := make([]float64, n)
	bucket := make([]int64, n)
	for i := 0; i < n; i++ {
		shuffled[i] = int64(r.Intn(n))
		v[i] = r.NormFloat64() * 100
		bucket[i] = int64(r.Intn(16))
	}
	return engine.MustNewTable("bench",
		engine.NewIntColumn("shuffled", shuffled),
		engine.NewFloatColumn("v", v),
		engine.NewIntColumn("bucket", bucket),
	)
}

const benchShardRows = 1 << 20

// Partitioning 1M rows is a non-trivial fixture cost, so every layout
// is built once and reused across benchmark runs (-count repetitions
// included; benchmarks never mutate the fixture).
var (
	benchMu    sync.Mutex
	benchBase  *engine.Table
	benchCache = map[string]*Sharded{}
)

func benchSharded(b *testing.B, layout Layout) *Sharded {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	if benchBase == nil {
		benchBase = benchShardTable(benchShardRows)
	}
	key := layout.Signature()
	if s, ok := benchCache[key]; ok {
		return s
	}
	s, err := Partition(benchBase, layout)
	if err != nil {
		b.Fatal(err)
	}
	benchCache[key] = s
	return s
}

// benchShardQuery is the straddle-heavy workload: a ~2% selective SUM
// on the shuffled column, the same shape as the engine benchmark's
// FusedSumShuffled (its worst case). The interval is offset from the
// n/2 cut so it sits strictly inside one shard's span at every
// benchmarked shard count (8 divides the domain at multiples of n/8)
// without abutting a shard boundary: a range that starts exactly at a
// cut would make the surviving shard's lower-bound compare always-true
// and flatter the kernel with a perfectly predicted branch, crediting
// the layout for a speedup that is really query placement.
func benchShardQuery() engine.Query {
	lo := float64(benchShardRows/2 + benchShardRows/64)
	return engine.Query{Func: engine.Sum, Col: "v", Ranges: []engine.Range{{
		Col: "shuffled", Lo: lo, Hi: lo + benchShardRows/50,
	}}}
}

func benchShardSum(b *testing.B, layout Layout) {
	s := benchSharded(b, layout)
	q := benchShardQuery()
	if _, err := s.Execute(context.Background(), q, 0); err != nil { // warm zone maps
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(context.Background(), q, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// The 1-shard config is the unsharded baseline with the scatter-gather
// machinery still on the path, so the 2/4/8 ratios isolate what the
// layout buys (pruning) from what the coordinator costs (merge).
func BenchmarkShardSumShuffled1(b *testing.B) {
	benchShardSum(b, Layout{Strategy: ByRange, Column: "shuffled", N: 1})
}

func BenchmarkShardSumShuffled2(b *testing.B) {
	benchShardSum(b, Layout{Strategy: ByRange, Column: "shuffled", N: 2})
}

func BenchmarkShardSumShuffled4(b *testing.B) {
	benchShardSum(b, Layout{Strategy: ByRange, Column: "shuffled", N: 4})
}

func BenchmarkShardSumShuffled8(b *testing.B) {
	benchShardSum(b, Layout{Strategy: ByRange, Column: "shuffled", N: 8})
}

// Hash sharding never prunes a range query, so this is the honest
// counterpoint: all 4 shards scan, and on a single visible core the
// fan-out can only cost. The recorded baseline pins that overhead.
func BenchmarkShardSumHashNoPrune4(b *testing.B) {
	benchShardSum(b, Layout{Strategy: ByHash, Column: "shuffled", N: 4})
}

// Group-by over the pruned layout: the merge path (map + sorted keys)
// rides on top of the same shard skip.
func BenchmarkShardGroupBy4(b *testing.B) {
	s := benchSharded(b, Layout{Strategy: ByRange, Column: "shuffled", N: 4})
	q := benchShardQuery()
	q.GroupBy = []string{"bucket"}
	if _, err := s.Execute(context.Background(), q, 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(context.Background(), q, 0); err != nil {
			b.Fatal(err)
		}
	}
}
