package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"aqppp/internal/contract"
)

// TestContractCacheKey pins the contract fold: two contracts over one
// statement never collide, and an identical contract reproduces the
// key byte for byte.
func TestContractCacheKey(t *testing.T) {
	tbl := execTable(2000)
	proc := execProcessor(t, tbl)
	stmt := "SELECT SUM(v) FROM t WHERE k BETWEEN 50 AND 150"
	key := func(c contract.Contract) string {
		t.Helper()
		p, err := PlanContractStatement(Resident{Table: tbl, Proc: proc}, tbl, stmt, c, 7)
		if err != nil {
			t.Fatalf("plan (%+v): %v", c, err)
		}
		return p.CacheKey()
	}
	loose := key(contract.Contract{MaxRelError: 0.5})
	if again := key(contract.Contract{MaxRelError: 0.5}); again != loose {
		t.Errorf("same contract, different keys: %q vs %q", loose, again)
	}
	if tight := key(contract.Contract{MaxRelError: 0.25}); tight == loose {
		t.Errorf("distinct contracts share key %q", loose)
	}
	if !strings.Contains(loose, "|contract=") {
		t.Errorf("contract key %q does not carry the contract fold", loose)
	}
	// An ordinary approx plan of the same statement must not collide
	// with any contract plan.
	plain, err := PlanQueryStatement(Resident{Table: tbl, Proc: proc}, tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CacheKey() == loose {
		t.Error("plain approx plan shares a key with a contract plan")
	}
}

// TestContractPlanErrors pins the plan-time classification: infeasible
// contracts reject with kind ContractInfeasible before any run, bad
// contracts are Parse, GROUP BY is Unsupported.
func TestContractPlanErrors(t *testing.T) {
	tbl := execTable(2000)
	proc := execProcessor(t, tbl)
	_, err := PlanContractStatement(Resident{Table: tbl, Proc: proc}, tbl,
		"SELECT SUM(v) FROM t WHERE k BETWEEN 50 AND 150",
		contract.Contract{MaxRelError: 1e-12}, 7)
	if KindOf(err) != ContractInfeasible {
		t.Errorf("impossible bound: kind = %v, want ContractInfeasible", KindOf(err))
	}
	var inf *contract.InfeasibleError
	if !errors.As(err, &inf) {
		t.Error("ContractInfeasible error does not unwrap to *InfeasibleError")
	}
	_, err = PlanContractStatement(Resident{Table: tbl, Proc: proc}, tbl,
		"SELECT SUM(v) FROM t", contract.Contract{}, 7)
	if KindOf(err) != Parse {
		t.Errorf("empty contract: kind = %v, want Parse", KindOf(err))
	}
	_, err = PlanContractStatement(Resident{Table: tbl, Proc: proc}, tbl,
		"SELECT SUM(v) FROM t GROUP BY k", contract.Contract{MaxRelError: 0.5}, 7)
	if KindOf(err) != Unsupported {
		t.Errorf("GROUP BY contract: kind = %v, want Unsupported", KindOf(err))
	}
	if ContractInfeasible.String() != "contract-infeasible" {
		t.Errorf("kind string = %q, want wire-stable %q", ContractInfeasible.String(), "contract-infeasible")
	}
}

// TestContractRunMeetsBound runs accepted contracts end to end through
// the executor and requires the realized interval to honor the bound —
// the ladder's whole point is that acceptance is verified, not assumed.
func TestContractRunMeetsBound(t *testing.T) {
	tbl := execTable(20000)
	proc := execProcessor(t, tbl)
	ex := New()
	for _, rel := range []float64{0.5, 0.1, 0.05} {
		c := contract.Contract{MaxRelError: rel}
		p, err := PlanContractStatement(Resident{Table: tbl, Proc: proc}, tbl,
			"SELECT SUM(v) FROM t WHERE k BETWEEN 40 AND 160", c, 7)
		if err != nil {
			t.Fatalf("rel %v: %v", rel, err)
		}
		out, err := ex.Run(context.Background(), p, Budget{})
		if err != nil {
			t.Fatalf("rel %v: run: %v", rel, err)
		}
		if !c.Met(out.Answer.Estimate.Value, out.Answer.Estimate.HalfWidth) {
			t.Errorf("rel %v: realized hw %v at value %v misses the bound (strategy %s)",
				rel, out.Answer.Estimate.HalfWidth, out.Answer.Estimate.Value, out.ContractStrategy)
		}
		if out.ContractStrategy == "" {
			t.Errorf("rel %v: outcome carries no strategy", rel)
		}
	}
}

// TestContractExactRung drives a contract only an exact scan can meet
// and checks the exact rung answers with a zero-width interval matching
// the engine.
func TestContractExactRung(t *testing.T) {
	tbl := execTable(5000)
	proc := execProcessor(t, tbl)
	stmt := "SELECT SUM(v) FROM t WHERE k BETWEEN 50 AND 150"
	c := contract.Contract{MaxRelError: 1e-12, AllowExact: true}
	p, err := PlanContractStatement(Resident{Table: tbl, Proc: proc}, tbl, stmt, c, 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.Decision.Strategy != contract.StrategyExact {
		t.Fatalf("strategy = %v, want exact", p.Decision.Strategy)
	}
	out, err := New().Run(context.Background(), p, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if out.ContractStrategy != "exact" || out.Answer.Estimate.HalfWidth != 0 {
		t.Errorf("exact rung: strategy %q hw %v, want exact/0",
			out.ContractStrategy, out.Answer.Estimate.HalfWidth)
	}
	exact, err := tbl.Execute(context.Background(), p.Query)
	if err != nil {
		t.Fatal(err)
	}
	if out.Answer.Estimate.Value != exact.Value {
		t.Errorf("exact rung value %v != engine %v", out.Answer.Estimate.Value, exact.Value)
	}
}

// TestContractCanceled verifies the ladder honors context cancellation
// between rungs with the usual Canceled classification.
func TestContractCanceled(t *testing.T) {
	tbl := execTable(5000)
	proc := execProcessor(t, tbl)
	p, err := PlanContractStatement(Resident{Table: tbl, Proc: proc}, tbl,
		"SELECT SUM(v) FROM t WHERE k BETWEEN 50 AND 150",
		contract.Contract{MaxRelError: 0.5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = New().Run(ctx, p, Budget{})
	if KindOf(err) != Canceled {
		t.Errorf("pre-canceled run: kind = %v, want Canceled", KindOf(err))
	}
}
