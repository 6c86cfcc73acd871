package contract

import (
	"context"
	"sync"
	"testing"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

// The contract benchmark fixture mirrors the engine benchmarks' scale:
// a 1,048,576-row table with a ~200-key dimension, prepared once at a
// 1% sample (10,486 sample rows). Recorded baselines live in
// BENCH_contract.json; reproduce with:
//
//	go test -run '^$' -bench BenchmarkContract -benchtime 5x ./internal/contract

const benchRows = 1 << 20

var (
	benchOnce sync.Once
	benchTbl  *engine.Table
	benchProc *core.Processor
)

func benchFixture(b *testing.B) (*engine.Table, *core.Processor) {
	b.Helper()
	benchOnce.Do(func() {
		r := stats.NewRNG(17)
		k := make([]int64, benchRows)
		v := make([]float64, benchRows)
		for i := 0; i < benchRows; i++ {
			k[i] = int64(r.Intn(200) + 1)
			v[i] = 10 + 0.3*float64(k[i]) + 5*r.NormFloat64()
		}
		benchTbl = engine.MustNewTable("t",
			engine.NewIntColumn("k", k),
			engine.NewFloatColumn("v", v),
		)
		proc, _, err := core.Build(context.Background(), benchTbl, core.BuildConfig{
			Template:   cube.Template{Agg: "v", Dims: []string{"k"}},
			SampleRate: 0.01, CellBudget: 64, Seed: 3,
		})
		if err != nil {
			panic(err)
		}
		benchProc = proc
	})
	return benchTbl, benchProc
}

var benchQ = engine.Query{Func: engine.Sum, Col: "v",
	Ranges: []engine.Range{{Col: "k", Lo: 40, Hi: 160}}}

// BenchmarkContractDecide measures the planner's overhead: pilot answer
// on the identification subsample plus the half-width inversion. This
// is the cost a contract adds to every uncached plan.
func BenchmarkContractDecide(b *testing.B) {
	_, proc := benchFixture(b)
	c := Contract{MaxRelError: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decide(proc, benchQ, c); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkAnswerAtTarget answers under a contract at the given
// relative target: Decide once, then time the chosen rung — the cost a
// client actually pays per contract answer.
func benchmarkAnswerAtTarget(b *testing.B, rel float64) {
	_, proc := benchFixture(b)
	d, err := Decide(proc, benchQ, Contract{MaxRelError: rel})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnswerAt(proc, benchQ, d.SampleRows, 0.95, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContractAnswerRel1pct is the answer cost at a ±1% contract
// (typically most of the prepared sample).
func BenchmarkContractAnswerRel1pct(b *testing.B) { benchmarkAnswerAtTarget(b, 0.01) }

// BenchmarkContractAnswerRel5pct is the answer cost at a ±5% contract
// (a small sufficient subsample — the planner's saving over a budget
// query that always scans the full sample).
func BenchmarkContractAnswerRel5pct(b *testing.B) { benchmarkAnswerAtTarget(b, 0.05) }

// BenchmarkContractProgressiveStream measures a whole progressive
// stream as a client sees it: start the stream, then four refinement
// rounds at the default step (2% of the table), each answered with the
// cube anchor.
func BenchmarkContractProgressiveStream(b *testing.B) {
	tbl, proc := benchFixture(b)
	step := benchRows / 50
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := core.NewProgressive(tbl, proc.Cube, 0.95, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		for round := 0; round < 4; round++ {
			prog.Step(step)
			if _, err := prog.Answer(benchQ); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkContractProgressiveRound measures one progressive refinement
// round at the default step (2% of the table): grow the sample, answer
// with the cube anchor. Starting a stream is left out of the timing;
// BenchmarkContractProgressiveStream includes it.
func BenchmarkContractProgressiveRound(b *testing.B) {
	tbl, proc := benchFixture(b)
	step := benchRows / 50
	prog, err := core.NewProgressive(tbl, proc.Cube, 0.95, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if prog.SampleSize()+step > benchRows {
			b.StopTimer()
			prog, err = core.NewProgressive(tbl, proc.Cube, 0.95, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		prog.Step(step)
		if _, err := prog.Answer(benchQ); err != nil {
			b.Fatal(err)
		}
	}
}
