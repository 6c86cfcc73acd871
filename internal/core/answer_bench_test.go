package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

var (
	answerBenchOnce  sync.Once
	answerBenchProcs map[int]*Processor
)

// answerBenchProcessors prepares the benchmark harness's resident handle
// (TPCD-Skew 300k, a 5,000-cell cube over l_shipdate × l_suppkey) at two
// sample sizes: 3,000 rows (1 %) and 15,000 rows (5 %, the size of the
// store workload's sample).
func answerBenchProcessors(b *testing.B) map[int]*Processor {
	answerBenchOnce.Do(func() {
		tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: 300_000, Seed: 1})
		answerBenchProcs = map[int]*Processor{}
		for _, rate := range []float64{0.01, 0.05} {
			p, _, err := Build(context.Background(), tbl, BuildConfig{
				Template:   cube.Template{Agg: "l_extendedprice", Dims: []string{"l_shipdate", "l_suppkey"}},
				SampleRate: rate, CellBudget: 5000, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			answerBenchProcs[p.Sample.Size()] = p
		}
	})
	return answerBenchProcs
}

// BenchmarkAnswerSum is one AQP++ SUM answer — identification on the
// subsample, the diff and φ-guard estimates on the full sample — cycling
// over 64 random two-dimensional ranges.
//
//	go test -run '^$' -bench BenchmarkAnswerSum -benchmem ./internal/core
func BenchmarkAnswerSum(b *testing.B) {
	r := stats.NewRNG(11)
	qs := make([]engine.Query, 64)
	for i := range qs {
		lo, lk := float64(r.Intn(2000)), float64(r.Intn(8000))
		qs[i] = engine.Query{Func: engine.Sum, Col: "l_extendedprice", Ranges: []engine.Range{
			{Col: "l_shipdate", Lo: lo, Hi: lo + float64(100+r.Intn(1500))},
			{Col: "l_suppkey", Lo: lk, Hi: lk + float64(200+r.Intn(6000))}}}
	}
	procs := answerBenchProcessors(b)
	for _, rows := range []int{3000, 15000} {
		p := procs[rows]
		if p == nil {
			b.Fatalf("no %d-row sample", rows)
		}
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Answer(qs[i%len(qs)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
