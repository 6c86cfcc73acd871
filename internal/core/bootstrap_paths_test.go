package core_test

import (
	"context"
	"math"
	"slices"
	"testing"

	"aqppp/internal/contract"
	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/engine"
	"aqppp/internal/exec"
	"aqppp/internal/ident"
	"aqppp/internal/shard"
	"aqppp/internal/stats"
)

// The paths built on Processor.AnswerBootstrap — the sharded merge and
// the contract ladder's bootstrap rung — held to it: their answers must
// be what it gives under the seed and replicate count the path hands
// it, bit for bit.

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameAnswer(a, b core.Answer) bool {
	ea, eb := a.Estimate, b.Estimate
	return sameBits(ea.Value, eb.Value) && sameBits(ea.HalfWidth, eb.HalfWidth) &&
		sameBits(ea.Confidence, eb.Confidence) && ea.SampleRows == eb.SampleRows &&
		a.Pre.Phi == b.Pre.Phi && slices.Equal(a.Pre.Lo, b.Pre.Lo) && slices.Equal(a.Pre.Hi, b.Pre.Hi) &&
		sameBits(a.PreValue, b.PreValue) && a.Candidates == b.Candidates
}

var bootTemplate = cube.Template{Agg: "l_extendedprice", Dims: []string{"l_quantity", "l_suppkey"}}

// randomBootQuery draws a SUM or COUNT with ranges on the template's
// dimensions, neither of which is the shard column, so no shard is
// pruned.
func randomBootQuery(r *stats.RNG) engine.Query {
	q := engine.Query{Func: []engine.AggFunc{engine.Sum, engine.Count}[r.Intn(2)], Col: "l_extendedprice"}
	lo := float64(1 + r.Intn(30))
	q.Ranges = append(q.Ranges, engine.Range{Col: "l_quantity", Lo: lo, Hi: lo + float64(r.Intn(25))})
	if r.Intn(2) == 0 {
		lo := float64(r.Intn(300))
		q.Ranges = append(q.Ranges, engine.Range{Col: "l_suppkey", Lo: lo, Hi: lo + float64(r.Intn(300))})
	}
	return q
}

// TestShardBootstrapEquivalence: a sharded bootstrap is each shard's
// AnswerBootstrap under its derived seed, merged in shard order —
// points add, half-widths add in quadrature.
func TestShardBootstrapEquivalence(t *testing.T) {
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: 20_000, Seed: 4})
	s, err := shard.Partition(tbl, shard.Layout{Strategy: shard.ByRange, Column: "l_shipdate", N: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := shard.Prepare(ctx, s, core.BuildConfig{Template: bootTemplate, SampleRate: 0.05, CellBudget: 90, Seed: 6}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(0x5a4d)
	for _, resamples := range []int{1, 3, 4, 9, 50} {
		q := randomBootQuery(r)
		seed := r.Uint64()
		got, err := p.AnswerBootstrap(ctx, q, resamples, seed, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := core.Answer{Pre: ident.Pre{Phi: true}}
		hw2 := 0.0
		for h, proc := range p.Procs {
			a, err := proc.AnswerBootstrap(ctx, q, resamples, shard.DeriveSeed(seed, h), nil)
			if err != nil {
				t.Fatal(err)
			}
			want.Estimate.Value += a.Estimate.Value
			hw2 += a.Estimate.HalfWidth * a.Estimate.HalfWidth
			want.Estimate.SampleRows += a.Estimate.SampleRows
			want.Candidates += a.Candidates
			want.PreValue += a.PreValue
			if want.Pre.IsPhi() && !a.Pre.IsPhi() {
				want.Pre = a.Pre
			}
		}
		want.Estimate.HalfWidth = math.Sqrt(hw2)
		want.Estimate.Confidence = p.Confidence
		if !sameAnswer(got, want) {
			t.Fatalf("R=%d %v: sharded bootstrap = %+v, merged per-shard answers %+v", resamples, q, got, want)
		}
	}
}

// TestContractBootstrapRungEquivalence: the contract ladder's bootstrap
// rung answers AnswerBootstrap at the contract's confidence, with the
// plan's seed and the replicate count the budget clamps it to.
func TestContractBootstrapRungEquivalence(t *testing.T) {
	tbl := dataset.TPCDSkew(dataset.TPCDConfig{Rows: 20_000, Seed: 5})
	proc, _, err := core.Build(context.Background(), tbl, core.BuildConfig{Template: bootTemplate, SampleRate: 0.05, CellBudget: 60, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(0xc0de)
	for i, tc := range []struct{ resamples, budget int }{{1, 0}, {7, 0}, {50, 0}, {200, 0}, {200, 13}} {
		q := randomBootQuery(r)
		q.Func = []engine.AggFunc{engine.Sum, engine.Count}[i%2]
		c := contract.Contract{MaxAbsError: math.MaxFloat64, Confidence: 0.9}
		plan := &exec.Plan{
			Kind: exec.PlanContract, Table: tbl, Query: q,
			Target: exec.Resident{Table: tbl, Proc: proc}, Proc: proc,
			Contract: &c, Decision: contract.Decision{Strategy: contract.StrategyBootstrap, Resamples: tc.resamples},
			Seed: r.Uint64(),
		}
		out, err := exec.New().Run(context.Background(), plan, exec.Budget{MaxResamples: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		if out.ContractStrategy != "bootstrap" {
			t.Fatalf("answered by the %q rung, want bootstrap", out.ContractStrategy)
		}
		shadow := *proc
		shadow.Confidence = c.Confidence
		resamples := tc.resamples
		if tc.budget > 0 {
			resamples = tc.budget
		}
		want, err := shadow.AnswerBootstrap(context.Background(), q, resamples, plan.Seed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !sameAnswer(out.Answer, want) {
			t.Fatalf("R=%d budget %d %v: contract rung = %+v, AnswerBootstrap %+v", tc.resamples, tc.budget, q, out.Answer, want)
		}
	}
}
