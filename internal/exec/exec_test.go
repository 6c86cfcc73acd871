package exec

import (
	"context"
	"errors"
	"testing"
	"time"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
)

func execTable(n int) *engine.Table {
	r := stats.NewRNG(7)
	k := make([]int64, n)
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		k[i] = int64(r.Intn(200) + 1)
		v[i] = 10 + 0.3*float64(k[i]) + 5*r.NormFloat64()
	}
	return engine.MustNewTable("t",
		engine.NewIntColumn("k", k),
		engine.NewFloatColumn("v", v),
	)
}

func execProcessor(t *testing.T, tbl *engine.Table) *core.Processor {
	t.Helper()
	proc, _, err := core.Build(context.Background(), tbl, core.BuildConfig{
		Template:   cube.Template{Agg: "v", Dims: []string{"k"}},
		SampleRate: 0.2, CellBudget: 64, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return proc
}

// mapSource is a trivial TargetSource of resident tables for tests.
type mapSource map[string]*engine.Table

func (m mapSource) LookupTarget(name string) (*engine.Table, Target, bool) {
	tbl, ok := m[name]
	return tbl, Resident{Table: tbl}, ok
}

// targetSource resolves its one table to a fixed target.
type targetSource struct {
	tbl *engine.Table
	t   Target
}

func (s targetSource) LookupTarget(name string) (*engine.Table, Target, bool) {
	return s.tbl, s.t, name == s.tbl.Name
}

func TestPlanErrorKinds(t *testing.T) {
	tbl := execTable(500)
	src := mapSource{"t": tbl}
	if _, err := PlanExactStatement(src, "garbage"); KindOf(err) != Parse {
		t.Errorf("garbage: kind = %v, want Parse", KindOf(err))
	}
	if _, err := PlanExactStatement(src, "SELECT COUNT(*) FROM missing"); KindOf(err) != UnknownTable {
		t.Errorf("missing table: kind = %v, want UnknownTable", KindOf(err))
	}
	proc := execProcessor(t, tbl)
	if _, err := PlanQueryStatement(Resident{Table: tbl, Proc: proc}, tbl, "SELECT SUM(v) FROM other"); KindOf(err) != UnknownTable {
		t.Errorf("table mismatch: kind = %v, want UnknownTable", KindOf(err))
	}
	if _, err := PlanQueryStatement(Resident{Table: tbl, Proc: proc}, tbl, "SELECT SUM(nope) FROM t"); KindOf(err) != Parse {
		t.Errorf("bad column: kind = %v, want Parse", KindOf(err))
	}
	if KindOf(nil) != Internal {
		t.Error("KindOf(nil) != Internal")
	}
	if KindOf(errors.New("plain")) != Internal {
		t.Error("KindOf(plain error) != Internal")
	}
}

func TestRunExactMatchesEngine(t *testing.T) {
	tbl := execTable(5000)
	src := mapSource{"t": tbl}
	p, err := PlanExactStatement(src, "SELECT SUM(v) FROM t WHERE k BETWEEN 50 AND 150")
	if err != nil {
		t.Fatal(err)
	}
	out, err := New().Run(context.Background(), p, Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := tbl.Execute(context.Background(), p.Query)
	if err != nil {
		t.Fatal(err)
	}
	// The executor's serial exact path must be bit-identical to
	// Table.Execute (same kernels, same accumulation order).
	if !stats.ExactEqual(out.Exact.Value, want.Value) {
		t.Errorf("executor %v != engine %v", out.Exact.Value, want.Value)
	}
}

func TestUnsupportedKind(t *testing.T) {
	tbl := execTable(2000)
	proc := execProcessor(t, tbl)
	p, err := PlanBootstrapStatement(Resident{Table: tbl, Proc: proc}, tbl, "SELECT AVG(v) FROM t", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New().Run(context.Background(), p, Budget{})
	if KindOf(err) != Unsupported {
		t.Errorf("bootstrap AVG: kind = %v, want Unsupported (err: %v)", KindOf(err), err)
	}
	if !errors.Is(err, core.ErrUnsupported) {
		t.Errorf("errors.Is(err, core.ErrUnsupported) = false for %v", err)
	}
}

func TestBudgetMaxResamples(t *testing.T) {
	tbl := execTable(2000)
	proc := execProcessor(t, tbl)
	p, err := PlanBootstrapStatement(Resident{Table: tbl, Proc: proc}, tbl, "SELECT SUM(v) FROM t", 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex := New()
	_, err = ex.Run(context.Background(), p, Budget{MaxResamples: 100})
	if KindOf(err) != BudgetExceeded {
		t.Errorf("kind = %v, want BudgetExceeded (err: %v)", KindOf(err), err)
	}
	// At the cap it runs.
	if _, err := ex.Run(context.Background(), p, Budget{MaxResamples: 500}); err != nil {
		t.Errorf("at-cap run failed: %v", err)
	}
}

// TestCancelVsBudgetDeadline pins the taxonomy split: the budget's own
// deadline reports BudgetExceeded, the caller's cancellation reports
// Canceled — even when both a budget and a canceled parent are present.
func TestCancelVsBudgetDeadline(t *testing.T) {
	tbl := execTable(2000)
	proc := execProcessor(t, tbl)
	p, err := PlanBootstrapStatement(Resident{Table: tbl, Proc: proc}, tbl, "SELECT SUM(v) FROM t", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex := New()

	_, err = ex.Run(context.Background(), p, Budget{Timeout: time.Nanosecond})
	if KindOf(err) != BudgetExceeded {
		t.Errorf("budget deadline: kind = %v, want BudgetExceeded (err: %v)", KindOf(err), err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("errors.Is(err, DeadlineExceeded) = false for %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = ex.Run(ctx, p, Budget{Timeout: time.Hour})
	if KindOf(err) != Canceled {
		t.Errorf("parent cancel: kind = %v, want Canceled (err: %v)", KindOf(err), err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
}

// TestCancelPrepareClassified checks Prepare wraps a canceled build.
func TestCancelPrepareClassified(t *testing.T) {
	tbl := execTable(2000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := New().Prepare(ctx, tbl, core.BuildConfig{
		Template:   cube.Template{Agg: "v", Dims: []string{"k"}},
		SampleRate: 0.2, CellBudget: 64, Seed: 3,
	}, Budget{})
	if KindOf(err) != Canceled || !errors.Is(err, context.Canceled) {
		t.Errorf("kind = %v, err = %v; want Canceled/context.Canceled", KindOf(err), err)
	}
}
