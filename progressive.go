package aqppp

import (
	"context"
	"math"

	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/exec"
)

// Termination reasons reported in ProgressiveSummary.Reason.
const (
	// ProgressiveContractMet: the streamed interval reached the
	// contract's bound.
	ProgressiveContractMet = "contract-met"
	// ProgressiveSampleExhausted: every table row entered the sample.
	ProgressiveSampleExhausted = "sample-exhausted"
	// ProgressiveMaxRounds: the round cap fired first.
	ProgressiveMaxRounds = "max-rounds"
	// ProgressiveBudgetExhausted: the budget's deadline fired between
	// rounds; the rounds already streamed stand as the answer.
	ProgressiveBudgetExhausted = "budget-exhausted"
)

// ProgressiveOptions configures one progressive (online-aggregation)
// query: the sample grows by StepRows each round and every round
// streams the best answer so far.
type ProgressiveOptions struct {
	// Contract, when set, terminates the stream as soon as the
	// interval meets the bound (its confidence also overrides the
	// preparation's CI level for the stream). Nil streams until the
	// sample, the round cap, or the budget runs out.
	Contract *Contract
	// StepRows is the number of table rows added per round (default:
	// 2% of the table, at least 1024).
	StepRows int
	// MaxRounds caps the stream (default 64).
	MaxRounds int
	// Seed fixes the row permutation the sample grows along.
	Seed uint64
}

// ProgressiveRound is one streamed refinement. Rounds are monotonically
// non-widening: each round reports the smallest interval seen so far
// (with its paired value), so a noisy round never widens the bar.
type ProgressiveRound struct {
	Round      int
	Value      float64
	HalfWidth  float64
	Confidence float64
	// SampleRows is the cumulative rows scanned into the sample.
	SampleRows int
	// Met reports whether this round's interval meets the contract.
	Met bool
}

// ProgressiveSummary is the stream's terminal state.
type ProgressiveSummary struct {
	Rounds     int
	Reason     string
	Met        bool
	Value      float64
	HalfWidth  float64
	Confidence float64
	SampleRows int
}

// QueryProgressive answers a SQL statement by online aggregation
// (§2's online-aggregation lineage in the AQP++ frame): a fixed random
// permutation of the table is scanned in StepRows chunks, every prefix
// is an exact uniform sample, and each round yields a refining
// estimate anchored on the preparation's BP-Cube when the template
// matches. Only scalar SUM/COUNT statements stream (the progressive
// estimator's repertoire); others report ErrUnsupported. yield may be
// nil; a non-nil yield error cancels the stream and classifies as
// ErrCanceled.
//
// The budget's deadline is checked between rounds; when it fires after
// at least one round has streamed, the stream terminates gracefully
// with reason "budget-exhausted" instead of failing — the rounds
// already delivered are the answer.
func (p *Prepared) QueryProgressive(ctx context.Context, statement string, opts ProgressiveOptions, yield func(ProgressiveRound) error) (ProgressiveSummary, error) {
	if p.proc == nil {
		return ProgressiveSummary{}, p.notResident("progressive", "a progressive stream")
	}
	q, err := exec.CompileStatement(p.tbl, "progressive", statement)
	if err != nil {
		return ProgressiveSummary{}, err
	}
	conf := p.conf
	if opts.Contract != nil {
		if err := opts.Contract.Validate(); err != nil {
			return ProgressiveSummary{}, &exec.Error{Kind: exec.Parse, Op: "progressive", Err: err}
		}
		conf = opts.Contract.ConfidenceOrDefault()
	}
	// A COUNT stream anchors on the COUNT cube when one was prepared;
	// core.Progressive itself checks the template match either way.
	cube := p.proc.Cube
	if q.Func == engine.Count && p.proc.CountCube != nil {
		cube = p.proc.CountCube
	}
	prog, err := core.NewProgressive(p.tbl, cube, conf, opts.Seed)
	if err != nil {
		return ProgressiveSummary{}, &exec.Error{Kind: exec.Internal, Op: "progressive", Err: err}
	}
	n := p.tbl.NumRows()
	step := opts.StepRows
	if step <= 0 {
		step = n / 50
		if step < 1024 {
			step = 1024
		}
	}
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 64
	}
	run, cancel, budgeted := p.db.budgetFor(ctx).Bound(ctx)
	defer cancel()

	sum := ProgressiveSummary{Confidence: conf, HalfWidth: math.Inf(1)}
	for round := 1; round <= maxRounds; round++ {
		if err := run.Err(); err != nil {
			if ctx.Err() == nil && budgeted && sum.Rounds > 0 {
				sum.Reason = ProgressiveBudgetExhausted
				return sum, nil
			}
			return ProgressiveSummary{}, exec.Classify(ctx, run, "progressive", budgeted, err)
		}
		before := prog.SampleSize()
		got := prog.Step(step)
		ans, err := prog.Answer(q)
		if err != nil {
			return ProgressiveSummary{}, exec.Classify(ctx, run, "progressive", budgeted, err)
		}
		// Non-widening: keep the tightest (value, interval) pair seen.
		if ans.Estimate.HalfWidth < sum.HalfWidth {
			sum.Value, sum.HalfWidth = ans.Estimate.Value, ans.Estimate.HalfWidth
		}
		sum.Rounds, sum.SampleRows = round, got
		sum.Met = opts.Contract != nil && opts.Contract.Met(sum.Value, sum.HalfWidth)
		if yield != nil {
			r := ProgressiveRound{
				Round: round, Value: sum.Value, HalfWidth: sum.HalfWidth,
				Confidence: conf, SampleRows: got, Met: sum.Met,
			}
			if err := yield(r); err != nil {
				return ProgressiveSummary{}, &exec.Error{Kind: exec.Canceled, Op: "progressive", Err: err}
			}
		}
		if sum.Met {
			sum.Reason = ProgressiveContractMet
			return sum, nil
		}
		if got >= n || got == before {
			sum.Reason = ProgressiveSampleExhausted
			return sum, nil
		}
	}
	sum.Reason = ProgressiveMaxRounds
	return sum, nil
}

// QueryProgressiveBudget forwards to QueryProgressive.
//
// Deprecated: call QueryProgressive with WithBudget(ctx, b). The frozen
// benchmark/trace.go is the only caller; the shim goes when a
// benchmark PR may edit it.
func (p *Prepared) QueryProgressiveBudget(ctx context.Context, statement string, opts ProgressiveOptions, b Budget, yield func(ProgressiveRound) error) (ProgressiveSummary, error) {
	return p.QueryProgressive(WithBudget(ctx, b), statement, opts, yield)
}
