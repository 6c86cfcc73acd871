package aqppp

import (
	"context"
	"time"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/exec"
)

// Insert appends one row to the prepared table (values in schema order:
// int64/int, float64, or string per column) and incrementally maintains
// the sample and BP-Cube(s) — the paper's data-update extension
// (Appendix C). The preparation must use a uniform sample, and string
// cube dimensions cannot receive unseen values.
func (p *Prepared) Insert(vals ...interface{}) error {
	if err := p.live("insert"); err != nil {
		return err
	}
	if p.proc == nil {
		return p.notResident("insert", "incremental maintenance")
	}
	if p.maintainer == nil {
		m, err := core.NewMaintainer(p.tbl, p.proc, 0x5eed5eed)
		if err != nil {
			return err
		}
		p.maintainer = m
	}
	return p.maintainer.Insert(vals...)
}

// QueryBootstrap answers a SUM/COUNT statement with an empirical
// (bootstrap) confidence interval instead of the closed form (§4.2.2).
// A replicate draws only the sample rows that can move it, so its cost
// follows the query's support, not the sample size. The resampling
// loop checks ctx once per four replicates; the budget caps the
// replicate count (MaxResamples) and the worst-case scratch memory,
// 8 bytes per sample row plus 56 per stratum (MaxScratchBytes).
func (p *Prepared) QueryBootstrap(ctx context.Context, statement string, resamples int) (Result, error) {
	plan, err := p.PlanBootstrap(statement, resamples)
	if err != nil {
		return Result{}, err
	}
	return p.RunPlan(ctx, plan)
}

// PlanBootstrap parses and compiles a statement into a bootstrap plan
// without running it (the plan-once counterpart of QueryBootstrap; see
// DB.PlanExact). The resample seed is fixed, so one statement at one
// replicate count always builds the same plan — and the same cache key.
func (p *Prepared) PlanBootstrap(statement string, resamples int) (*exec.Plan, error) {
	if err := p.live("bootstrap"); err != nil {
		return nil, err
	}
	return exec.PlanBootstrapStatement(p.target, p.tbl, statement, resamples, 0xb007)
}

// MultiPrepareOptions configures PrepareMulti: several templates sharing
// one sample and one total cube budget, split with the error-profile
// allocation of Appendix C.
type MultiPrepareOptions struct {
	// Table names the registered table.
	Table string
	// Templates lists the (aggregate, dimensions) templates to serve.
	Templates []Template
	// TotalCells is the combined BP-Cube budget.
	TotalCells int
	// SampleRate and Seed as in PrepareOptions.
	SampleRate float64
	Seed       uint64
}

// Template names one query template for PrepareMulti.
type Template struct {
	Aggregate  string
	Dimensions []string
}

// MultiPrepared serves several templates, routing each query to the best
// one.
type MultiPrepared struct {
	db    *DB
	tbl   *engine.Table
	mgr   *core.Manager
	state *prepState
}

// PrepareMulti builds a multi-template preparation, cancellable at the
// same granularity as Prepare (one climb step).
func (db *DB) PrepareMulti(ctx context.Context, opts MultiPrepareOptions) (*MultiPrepared, error) {
	e, err := db.lookupResident(opts.Table, "prepare")
	if err != nil {
		return nil, err
	}
	tbl := e.tbl
	if opts.SampleRate == 0 {
		opts.SampleRate = 0.01
	}
	templates := make([]cube.Template, len(opts.Templates))
	for i, t := range opts.Templates {
		templates[i] = cube.Template{Agg: t.Aggregate, Dims: t.Dimensions}
	}
	mgr, err := db.ex.PrepareMulti(ctx, tbl, core.ManagerConfig{
		Templates:  templates,
		TotalCells: opts.TotalCells,
		SampleRate: opts.SampleRate,
		Seed:       opts.Seed,
	}, db.budgetFor(ctx))
	if err != nil {
		return nil, err
	}
	return &MultiPrepared{db: db, tbl: tbl, mgr: mgr, state: db.track(opts.Table)}, nil
}

// Budgets reports the per-template cell allocation.
func (m *MultiPrepared) Budgets() []int {
	return append([]int(nil), m.mgr.Budgets...)
}

// Query answers a statement with the best-matching template's processor;
// the second return value is the template index used.
func (m *MultiPrepared) Query(ctx context.Context, statement string) (Result, int, error) {
	if m.state != nil && m.state.dropped.Load() {
		return Result{}, 0, &exec.Error{Kind: exec.UnknownTable, Op: "multi",
			Err: errDropped(m.tbl.Name)}
	}
	plan, err := exec.PlanMultiStatement(m.mgr, m.tbl, statement)
	if err != nil {
		return Result{}, 0, err
	}
	out, err := m.db.ex.Run(ctx, plan, m.db.budgetFor(ctx))
	if err != nil {
		return Result{}, 0, err
	}
	return toResult(out.Answer), out.Template, nil
}

// SpacePlan mirrors core.SpacePlan for the public API.
type SpacePlan = core.SpacePlan

// PlanSpace splits a byte budget between the sample and the BP-Cube so
// that per-query response time stays under the target (Appendix C,
// "Space Allocation"). Feed the result into PrepareOptions via
// SampleRate = plan.SampleRows / table rows and CellBudget =
// plan.CubeCells.
func (db *DB) PlanSpace(table string, totalBytes int64, responseTarget time.Duration) (SpacePlan, error) {
	tbl, err := db.Table(table)
	if err != nil {
		return SpacePlan{}, err
	}
	return core.PlanSpace(tbl, totalBytes, responseTarget)
}
