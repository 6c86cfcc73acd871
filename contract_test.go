package aqppp

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"aqppp/internal/stats"
)

func contractPrep(t *testing.T, rows int, seed uint64) (*DB, *Prepared) {
	t.Helper()
	db := NewDB()
	tbl := demoTable(rows, seed)
	if err := db.Register(tbl); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.1, CellBudget: 25, Seed: 7, WithCountCube: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, prep
}

func TestQueryWithContract(t *testing.T) {
	db, prep := contractPrep(t, 30000, 3)
	stmt := "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 300"
	c := Contract{MaxRelError: 0.1}
	res, err := prep.QueryWithContract(context.Background(), stmt, c)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Met(res.Value, res.HalfWidth) {
		t.Errorf("accepted contract missed: hw %v at value %v", res.HalfWidth, res.Value)
	}
	if res.Strategy == "" {
		t.Error("result carries no strategy")
	}
	truth, err := db.Exact(context.Background(), stmt)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res.Value-truth.Value) / truth.Value; rel > 0.2 {
		t.Errorf("contract answer off truth by %v", rel)
	}
}

func TestQueryWithContractInfeasible(t *testing.T) {
	_, prep := contractPrep(t, 10000, 4)
	stmt := "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 300"
	_, err := prep.QueryWithContract(context.Background(), stmt, Contract{MaxRelError: 1e-10})
	if ErrorKindOf(err) != ErrContractInfeasible {
		t.Fatalf("impossible bound: kind = %v, want ErrContractInfeasible", ErrorKindOf(err))
	}
	var inf *ContractInfeasibleError
	if !errors.As(err, &inf) {
		t.Fatal("error does not unwrap to *ContractInfeasibleError")
	}
	if inf.TightestAbs <= 0 {
		t.Errorf("TightestAbs = %v, want positive guidance", inf.TightestAbs)
	}
	// The same bound escalates cleanly when exact is allowed.
	res, err := prep.QueryWithContract(context.Background(), stmt,
		Contract{MaxRelError: 1e-10, AllowExact: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Strategy != "exact" || res.HalfWidth != 0 {
		t.Errorf("AllowExact: strategy %q hw %v, want exact/0", res.Strategy, res.HalfWidth)
	}
}

// TestContractHonoredRandomized is the acceptance-criteria test: over a
// seeded randomized workload, every accepted contract's realized
// interval must satisfy the stated bound, every infeasible contract
// must be rejected at plan time with the typed error, and the realized
// error against the exact answer must stay inside the interval at
// roughly the stated confidence (checked loosely to stay deterministic
// but meaningful).
func TestContractHonoredRandomized(t *testing.T) {
	db, prep := contractPrep(t, 40000, 5)
	r := stats.NewRNG(123)
	aggs := []string{"SUM(v)", "COUNT(*)", "AVG(v)"}
	accepted, rejected, covered := 0, 0, 0
	for i := 0; i < 45; i++ {
		lo := r.Intn(400) + 1
		hi := lo + r.Intn(100) + 20
		stmt := "SELECT " + aggs[i%len(aggs)] + " FROM demo WHERE k BETWEEN " +
			itoa(lo) + " AND " + itoa(hi)
		c := Contract{MaxRelError: []float64{0.5, 0.2, 1e-9}[r.Intn(3)]}
		res, err := prep.QueryWithContract(context.Background(), stmt, c)
		if err != nil {
			if ErrorKindOf(err) != ErrContractInfeasible {
				t.Fatalf("%s rel=%v: unexpected error %v", stmt, c.MaxRelError, err)
			}
			// Plan-time rejection: PlanContract alone must reproduce it,
			// proving no run was needed to discover infeasibility.
			if _, perr := prep.PlanContract(stmt, c); ErrorKindOf(perr) != ErrContractInfeasible {
				t.Errorf("%s: run rejected but plan accepted", stmt)
			}
			rejected++
			continue
		}
		accepted++
		if !c.Met(res.Value, res.HalfWidth) {
			t.Errorf("%s rel=%v: realized hw %v at value %v misses the bound (strategy %s)",
				stmt, c.MaxRelError, res.HalfWidth, res.Value, res.Strategy)
		}
		truth, err := db.Exact(context.Background(), stmt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Value-truth.Value) <= res.HalfWidth {
			covered++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("workload too one-sided: %d accepted, %d rejected", accepted, rejected)
	}
	// 95% CIs should cover the truth ~95% of the time; require 75% so
	// the test stays deterministic across seeds yet still catches an
	// estimator whose intervals are fantasy.
	if float64(covered) < 0.75*float64(accepted) {
		t.Errorf("intervals covered truth in %d/%d accepted runs — intervals too narrow", covered, accepted)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestQueryProgressiveMonotone(t *testing.T) {
	_, prep := contractPrep(t, 30000, 6)
	stmt := "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 300"
	var rounds []ProgressiveRound
	sum, err := prep.QueryProgressive(context.Background(), stmt,
		ProgressiveOptions{StepRows: 2000, MaxRounds: 10, Seed: 9},
		func(r ProgressiveRound) error {
			rounds = append(rounds, r)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("no rounds streamed")
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i].HalfWidth > rounds[i-1].HalfWidth {
			t.Errorf("round %d widened: hw %v after %v", rounds[i].Round,
				rounds[i].HalfWidth, rounds[i-1].HalfWidth)
		}
		if rounds[i].SampleRows <= rounds[i-1].SampleRows {
			t.Errorf("round %d did not grow the sample: %d after %d", rounds[i].Round,
				rounds[i].SampleRows, rounds[i-1].SampleRows)
		}
	}
	last := rounds[len(rounds)-1]
	if sum.Value != last.Value || sum.HalfWidth != last.HalfWidth || sum.Rounds != len(rounds) {
		t.Errorf("summary %+v does not match final round %+v", sum, last)
	}
	if sum.Reason != ProgressiveMaxRounds && sum.Reason != ProgressiveSampleExhausted {
		t.Errorf("reason = %q, want max-rounds or sample-exhausted", sum.Reason)
	}
}

func TestQueryProgressiveContractMet(t *testing.T) {
	_, prep := contractPrep(t, 30000, 7)
	stmt := "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 300"
	c := Contract{MaxRelError: 0.2}
	sum, err := prep.QueryProgressive(context.Background(), stmt,
		ProgressiveOptions{Contract: &c, StepRows: 1500, Seed: 9}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Reason != ProgressiveContractMet || !sum.Met {
		t.Fatalf("reason = %q met = %v, want contract-met", sum.Reason, sum.Met)
	}
	if !c.Met(sum.Value, sum.HalfWidth) {
		t.Errorf("contract-met summary misses the bound: hw %v at %v", sum.HalfWidth, sum.Value)
	}
}

func TestQueryProgressiveYieldCancel(t *testing.T) {
	_, prep := contractPrep(t, 30000, 8)
	stop := errors.New("client gone")
	_, err := prep.QueryProgressive(context.Background(),
		"SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 300",
		ProgressiveOptions{StepRows: 1000, MaxRounds: 20},
		func(r ProgressiveRound) error {
			if r.Round == 2 {
				return stop
			}
			return nil
		})
	if ErrorKindOf(err) != ErrCanceled || !errors.Is(err, stop) {
		t.Errorf("yield abort: err = %v (kind %v), want Canceled wrapping the yield error",
			err, ErrorKindOf(err))
	}
}

func TestQueryProgressiveBudgetExhausted(t *testing.T) {
	_, prep := contractPrep(t, 30000, 9)
	slow := func(r ProgressiveRound) error {
		time.Sleep(30 * time.Millisecond)
		return nil
	}
	sum, err := prep.QueryProgressive(WithBudget(context.Background(), Budget{Timeout: 80 * time.Millisecond}),
		"SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 300",
		ProgressiveOptions{StepRows: 500, MaxRounds: 1000}, slow)
	if err != nil {
		t.Fatalf("budget expiry mid-stream must end gracefully, got %v", err)
	}
	if sum.Reason != ProgressiveBudgetExhausted {
		t.Errorf("reason = %q, want budget-exhausted", sum.Reason)
	}
	if sum.Rounds == 0 {
		t.Error("graceful budget exit with zero rounds")
	}
}

func TestQueryProgressiveUnsupported(t *testing.T) {
	_, prep := contractPrep(t, 5000, 10)
	// MIN has no progressive estimator.
	_, err := prep.QueryProgressive(context.Background(),
		"SELECT MIN(v) FROM demo", ProgressiveOptions{}, nil)
	if ErrorKindOf(err) != ErrUnsupported {
		t.Errorf("MIN stream: kind = %v, want Unsupported", ErrorKindOf(err))
	}
}
