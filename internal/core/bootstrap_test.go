package core

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// cancelAfter is a context whose Err reports Canceled from its k-th
// call on, counting every call.
type cancelAfter struct {
	context.Context
	k, calls int
}

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestAnswerBootstrapCancelWithinBatch: a context canceled mid-run
// stops the replicate loop at its next check, which comes once per
// batch of cancelCheckReplicates replicates; one more check follows
// the sort.
func TestAnswerBootstrapCancelWithinBatch(t *testing.T) {
	tbl := testTable(4000, 52)
	p := buildProcessor(t, tbl, []string{"c1"}, 20)
	q := engine.Query{Func: engine.Sum, Col: "a", Ranges: []engine.Range{{Col: "c1", Lo: 10, Hi: 60}}}
	for _, k := range []int{1, 2, 7} {
		ctx := &cancelAfter{Context: context.Background(), k: k}
		if _, err := p.AnswerBootstrap(ctx, q, 200, 1, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at check %d: err = %v, want context.Canceled", k, err)
		}
		if ctx.calls != k {
			t.Errorf("cancel at check %d: the loop checked %d times", k, ctx.calls)
		}
	}
	// Uncanceled, the loop checks once per batch, ⌈200/batch⌉ times,
	// and the sort once.
	ctx := &cancelAfter{Context: context.Background(), k: 1 << 30}
	if _, err := p.AnswerBootstrap(ctx, q, 200, 1, nil); err != nil {
		t.Fatal(err)
	}
	if want := (200+cancelCheckReplicates-1)/cancelCheckReplicates + 1; ctx.calls != want {
		t.Errorf("200 replicates checked ctx %d times, want %d", ctx.calls, want)
	}
}

// allocatedBytes returns the heap bytes one call of f allocates,
// averaged over runs calls. It measures the way testing.AllocsPerRun
// does: on one P, after one warm-up call, so neither another
// goroutine's allocations nor a first call's one-time setup count.
func allocatedBytes(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestAnswerBootstrapReplicateAllocs pins what the replicate loop
// allocates: nothing per replicate, so 200 replicates cost the same
// allocations as 4, and in bytes only the replicate values themselves
// (one slice, sorted in place for both percentiles).
func TestAnswerBootstrapReplicateAllocs(t *testing.T) {
	tbl := testTable(30000, 53)
	p := buildProcessor(t, tbl, []string{"c1", "c2"}, 40)
	q := engine.Query{Func: engine.Sum, Col: "a", Ranges: []engine.Range{{Col: "c1", Lo: 13, Hi: 67}}}
	ctx := context.Background()
	run := func(resamples int) func() {
		return func() {
			if _, err := p.AnswerBootstrap(ctx, q, resamples, 5, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if few, many := testing.AllocsPerRun(10, run(4)), testing.AllocsPerRun(10, run(200)); few != many {
		t.Errorf("allocations: %v at 4 replicates, %v at 200", few, many)
	}
	few, many := allocatedBytes(10, run(4)), allocatedBytes(10, run(200))
	if extra, limit := many-few, float64(8*(200-4)+1024); extra > limit {
		t.Errorf("196 more replicates allocated %.0f bytes, want ≤ %.0f", extra, limit)
	}
}

// The microbenchmark fixture is the benchmark harness's resident
// handle: TPCD-Skew at 300k rows, a 1 % sample, a 5,000-cell cube over
// l_shipdate × l_suppkey.
var (
	bootBenchOnce sync.Once
	bootBenchProc *Processor
)

func bootBenchProcessor(b *testing.B) *Processor {
	bootBenchOnce.Do(func() {
		tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: 300_000, Seed: 1})
		p, _, err := Build(context.Background(), tbl, BuildConfig{
			Template:   cube.Template{Agg: "l_extendedprice", Dims: []string{"l_shipdate", "l_suppkey"}},
			SampleRate: 0.01, CellBudget: 5000, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		bootBenchProc = p
	})
	return bootBenchProc
}

func benchmarkBootstrap(b *testing.B, p *Processor, q engine.Query) {
	r := stats.NewRNG(9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.AnswerBootstrap(context.Background(), q, 50, r.Uint64(), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnswerBootstrap is one 50-replicate bootstrap answer over the
// 3,000-row sample, with the pre identification picks: its diff vector
// is nonzero on a few dozen rows.
//
//	go test -run '^$' -bench BenchmarkAnswerBootstrap -benchmem ./internal/core
func BenchmarkAnswerBootstrap(b *testing.B) {
	benchmarkBootstrap(b, bootBenchProcessor(b), engine.Query{Func: engine.Sum, Col: "l_extendedprice", Ranges: []engine.Range{
		{Col: "l_shipdate", Lo: 300, Hi: 1800}, {Col: "l_suppkey", Lo: 20, Hi: 4000}}})
}

// BenchmarkAnswerBootstrapWide is the replicate kernel's worst case: the
// same 50 replicates with pre = φ (no cube) over a predicate that holds
// on about half the sample, so half the rows are support.
func BenchmarkAnswerBootstrapWide(b *testing.B) {
	p := bootBenchProcessor(b)
	benchmarkBootstrap(b, &Processor{Sample: p.Sample, Confidence: p.Confidence}, engine.Query{Func: engine.Sum, Col: "l_extendedprice",
		Ranges: []engine.Range{{Col: "l_shipdate", Lo: 0, Hi: 1280}}})
}
