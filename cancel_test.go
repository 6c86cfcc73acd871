package aqppp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCancelExact: a pre-canceled context fails ExactContext with the
// unified error shape.
func TestCancelExact(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(5000, 41)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.Exact(ctx, "SELECT SUM(v) FROM demo")
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if ErrorKindOf(err) != ErrCanceled {
		t.Errorf("kind = %v, want ErrCanceled", ErrorKindOf(err))
	}
}

// TestCancelPrepareMidClimb cancels a preparation while the hill
// climber (or a later build stage) is running: the table is large
// enough that the build cannot finish before the cancel lands, and the
// build must unwind with the Canceled kind rather than run to
// completion.
func TestCancelPrepareMidClimb(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(200000, 42)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// Two dimensions force per-dimension error profiles (eight climbs
	// per dimension) before the shape split — about two orders of
	// magnitude more work than the 1 ms cancel delay.
	_, err := db.Prepare(ctx, PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k", "tier"},
		SampleRate: 0.1, CellBudget: 6000,
	})
	if err == nil {
		t.Fatal("prepare completed despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if ErrorKindOf(err) != ErrCanceled {
		t.Errorf("kind = %v, want ErrCanceled (err: %v)", ErrorKindOf(err), err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("canceled prepare took %v", el)
	}
}

// TestCancelQueryBootstrap cancels mid-resample: the replicate count is
// far beyond what can run before the cancel lands, so the loop must
// unwind within one resample instead of draining the schedule.
func TestCancelQueryBootstrap(t *testing.T) {
	db := NewDB()
	if err := db.Register(demoTable(5000, 43)); err != nil {
		t.Fatal(err)
	}
	prep, err := db.Prepare(context.Background(), PrepareOptions{
		Table: "demo", Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: 0.2, CellBudget: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = prep.QueryBootstrap(ctx, "SELECT SUM(v) FROM demo WHERE k BETWEEN 10 AND 400", 2_000_000)
	if err == nil {
		t.Fatal("bootstrap completed despite cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	if ErrorKindOf(err) != ErrCanceled {
		t.Errorf("kind = %v, want ErrCanceled (err: %v)", ErrorKindOf(err), err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("canceled bootstrap took %v", el)
	}
}

// budgetedOp is one root operation that runs under a Budget, as a
// closure over the context alone.
type budgetedOp struct {
	name string
	run  func(context.Context) error
}

// budgetedOps builds a DB with one preparation and lists every root
// operation that runs under a Budget. LoadCSV and OpenStore are the two
// of the 12 operations that are absent: a load never reaches the
// executor (LoadCSV is cancel-only, OpenStore reads metadata and takes
// no context).
func budgetedOps(t *testing.T) (*DB, []budgetedOp) {
	t.Helper()
	db, prep := contractPrep(t, 5000, 44)
	const stmt = "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 300"
	loose := Contract{MaxRelError: 0.5}
	exactPlan, err := db.PlanExact(stmt)
	if err != nil {
		t.Fatal(err)
	}
	queryPlan, err := prep.PlanQuery(stmt)
	if err != nil {
		t.Fatal(err)
	}
	contractPlan, err := prep.PlanContract(stmt, loose)
	if err != nil {
		t.Fatal(err)
	}
	return db, []budgetedOp{
		{"DB.Exact", func(ctx context.Context) error { _, err := db.Exact(ctx, stmt); return err }},
		{"DB.RunExactPlan", func(ctx context.Context) error { _, err := db.RunExactPlan(ctx, exactPlan); return err }},
		{"DB.Prepare", func(ctx context.Context) error {
			_, err := db.Prepare(ctx, PrepareOptions{Table: "demo", Aggregate: "v", Dimensions: []string{"k"}, SampleRate: 0.1, CellBudget: 25})
			return err
		}},
		{"Prepared.Query", func(ctx context.Context) error { _, err := prep.Query(ctx, stmt); return err }},
		{"Prepared.QueryStruct", func(ctx context.Context) error { _, err := prep.QueryStruct(ctx, queryPlan.Query); return err }},
		{"Prepared.QueryBootstrap", func(ctx context.Context) error { _, err := prep.QueryBootstrap(ctx, stmt, 20); return err }},
		{"Prepared.QueryWithContract", func(ctx context.Context) error { _, err := prep.QueryWithContract(ctx, stmt, loose); return err }},
		{"Prepared.QueryProgressive", func(ctx context.Context) error {
			_, err := prep.QueryProgressive(ctx, stmt, ProgressiveOptions{MaxRounds: 2}, nil)
			return err
		}},
		{"Prepared.RunPlan", func(ctx context.Context) error { _, err := prep.RunPlan(ctx, queryPlan); return err }},
		{"Prepared.RunContractPlan", func(ctx context.Context) error { _, err := prep.RunContractPlan(ctx, contractPlan); return err }},
	}
}

// TestBudgetPrecedence pins the one rule for how a call gets its
// Budget: the DB-wide default applies unless the context carries one,
// and a carried budget replaces the default for that call only. A
// budget overrun classifies ErrBudgetExceeded, a caller cancel
// ErrCanceled, whichever way the budget arrived.
func TestBudgetPrecedence(t *testing.T) {
	db, ops := budgetedOps(t)
	bg := context.Background()
	tight, roomy := Budget{Timeout: time.Nanosecond}, Budget{Timeout: time.Minute}
	canceled, cancel := context.WithCancel(bg)
	cancel()
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			db.SetDefaultBudget(tight)
			if err := op.run(bg); ErrorKindOf(err) != ErrBudgetExceeded {
				t.Errorf("tight default, no ctx budget: kind = %v, want ErrBudgetExceeded (err: %v)", ErrorKindOf(err), err)
			}
			if err := op.run(WithBudget(bg, roomy)); err != nil {
				t.Errorf("tight default, roomy ctx budget: %v", err)
			}
			if err := op.run(WithBudget(bg, Budget{})); err != nil {
				t.Errorf("tight default, unlimited ctx budget: %v", err)
			}
			db.SetDefaultBudget(Budget{})
			if err := op.run(WithBudget(bg, tight)); ErrorKindOf(err) != ErrBudgetExceeded {
				t.Errorf("no default, tight ctx budget: kind = %v, want ErrBudgetExceeded (err: %v)", ErrorKindOf(err), err)
			}
			if err := op.run(bg); err != nil {
				t.Errorf("the ctx budget outlived its call: %v", err)
			}
			for _, ctx := range []context.Context{canceled, WithBudget(canceled, roomy)} {
				if err := op.run(ctx); ErrorKindOf(err) != ErrCanceled || !errors.Is(err, context.Canceled) {
					t.Errorf("canceled ctx: kind = %v, want ErrCanceled (err: %v)", ErrorKindOf(err), err)
				}
			}
		})
	}
}

// TestBudgetCapsPrecedence: the resample cap follows the same rule, and
// an over-cap bootstrap is refused before any replicate runs — the
// refusal is immediate even at a replicate count that would take
// minutes.
func TestBudgetCapsPrecedence(t *testing.T) {
	db, prep := contractPrep(t, 5000, 47)
	bg := context.Background()
	const stmt = "SELECT SUM(v) FROM demo WHERE k BETWEEN 50 AND 300"
	const huge = 50_000_000
	runs := []struct {
		name string
		run  func(context.Context, int) error
	}{
		{"QueryBootstrap", func(ctx context.Context, n int) error { _, err := prep.QueryBootstrap(ctx, stmt, n); return err }},
		{"RunPlan", func(ctx context.Context, n int) error {
			plan, err := prep.PlanBootstrap(stmt, n)
			if err != nil {
				return err
			}
			_, err = prep.RunPlan(ctx, plan)
			return err
		}},
	}
	capped := Budget{MaxResamples: 10}
	for _, r := range runs {
		start := time.Now()
		db.SetDefaultBudget(capped)
		if err := r.run(bg, huge); ErrorKindOf(err) != ErrBudgetExceeded {
			t.Errorf("%s, default %+v: kind = %v, want ErrBudgetExceeded (err: %v)", r.name, capped, ErrorKindOf(err), err)
		}
		if err := r.run(WithBudget(bg, Budget{MaxResamples: 20}), 20); err != nil {
			t.Errorf("%s, default %+v, ctx budget admitting the call: %v", r.name, capped, err)
		}
		db.SetDefaultBudget(Budget{})
		if err := r.run(WithBudget(bg, capped), huge); ErrorKindOf(err) != ErrBudgetExceeded {
			t.Errorf("%s, ctx %+v: kind = %v, want ErrBudgetExceeded (err: %v)", r.name, capped, ErrorKindOf(err), err)
		}
		if err := r.run(bg, 20); err != nil {
			t.Errorf("%s: the ctx cap outlived its call: %v", r.name, err)
		}
		if el := time.Since(start); el > 10*time.Second {
			t.Errorf("%s, %+v: over-cap refusals took %v; they must precede the work", r.name, capped, el)
		}
	}
}
