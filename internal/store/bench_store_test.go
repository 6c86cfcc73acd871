package store

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// The store benchmark fixture: 1M rows, one container on disk, built
// once per process. The columns mirror the engine bench fixture —
// clustered int (delta-coded blocks, prunable zones), shuffled int (raw
// blocks), float measure, low-card string.
const benchStoreRows = 1 << 20

var benchStore struct {
	once sync.Once
	dir  string
	path string
	tbl  *engine.Table
}

func benchFixture(b *testing.B) (*engine.Table, string) {
	b.Helper()
	benchStore.once.Do(func() {
		r := stats.NewRNG(0x570e)
		n := benchStoreRows
		clustered := make([]int64, n)
		shuffled := make([]int64, n)
		v := make([]float64, n)
		cat := make([]string, n)
		cats := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh"}
		for i := 0; i < n; i++ {
			clustered[i] = int64(i)
			shuffled[i] = int64(r.Intn(n))
			v[i] = r.NormFloat64() * 100
			cat[i] = cats[r.Intn(len(cats))]
		}
		benchStore.tbl = engine.MustNewTable("bench",
			engine.NewIntColumn("clustered", clustered),
			engine.NewIntColumn("shuffled", shuffled),
			engine.NewFloatColumn("v", v),
			engine.NewStringColumn("cat", cat),
		)
		dir, err := os.MkdirTemp("", "aqppp-bench-store")
		if err != nil {
			panic(err)
		}
		benchStore.dir = dir
		benchStore.path = filepath.Join(dir, "bench.aqps")
		if err := Write(benchStore.path, benchStore.tbl, nil); err != nil {
			panic(err)
		}
	})
	return benchStore.tbl, benchStore.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchStore.dir != "" {
		os.RemoveAll(benchStore.dir)
	}
	os.Exit(code)
}

var benchFullSum = engine.Query{Func: engine.Sum, Col: "v",
	Ranges: []engine.Range{{Col: "shuffled", Lo: 0, Hi: benchStoreRows}}}

// benchSelective covers ~2% of the clustered domain: most blocks prune.
var benchSelective = engine.Query{Func: engine.Sum, Col: "v",
	Ranges: []engine.Range{{Col: "clustered", Lo: benchStoreRows / 2, Hi: benchStoreRows/2 + benchStoreRows/50}}}

// BenchmarkStoreOpen is the restart cost: open the container, verify
// checksums, parse metadata, bind the table. No data blocks.
func BenchmarkStoreOpen(b *testing.B) {
	_, path := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(path, Options{})
		if err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkStoreWrite is the persistence cost: encode and fsync the
// full 1M-row container.
func BenchmarkStoreWrite(b *testing.B) {
	tbl, _ := benchFixture(b)
	out := filepath.Join(b.TempDir(), "w.aqps")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(out, tbl, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreScanMemory is the oracle: the same full-scan SUM on the
// resident table. The disk benchmarks below are read against this.
func BenchmarkStoreScanMemory(b *testing.B) {
	tbl, _ := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.Execute(context.Background(), benchFullSum); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreScanWarm scans through a cache large enough to hold the
// working set: after the first pass every block is a cache hit, so this
// is the steady-state serving cost of a disk-backed table.
func BenchmarkStoreScanWarm(b *testing.B) {
	_, path := benchFixture(b)
	s, err := Open(path, Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Table().Execute(context.Background(), benchFullSum); err != nil { // fault everything in
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table().Execute(context.Background(), benchFullSum); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreScanCold bounds the cache to a sliver of the working
// set, so every pass re-reads nearly every block: the miss-path worst
// case (raw blocks pread into fresh arrays, delta/dict blocks decoded).
func BenchmarkStoreScanCold(b *testing.B) {
	_, path := benchFixture(b)
	s, err := Open(path, Options{CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table().Execute(context.Background(), benchFullSum); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorePrunedScan is the zone-map payoff on disk: a ~2% range
// on the clustered column faults a handful of blocks, the rest never
// leave the file.
func BenchmarkStorePrunedScan(b *testing.B) {
	_, path := benchFixture(b)
	s, err := Open(path, Options{CacheBytes: 1 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Table().Execute(context.Background(), benchSelective); err != nil {
			b.Fatal(err)
		}
	}
}
