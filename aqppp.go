// Package aqppp is a Go implementation of AQP++ (Peng, Zhang, Wang, Pei —
// SIGMOD 2018): interactive approximate query processing that connects
// sampling-based AQP with aggregate precomputation. Instead of estimating
// a query's answer directly from a sample, AQP++ estimates the *difference*
// between the query and a precomputed aggregate from a blocked prefix
// cube, then anchors the estimate on the exact precomputed value:
//
//	q(D) ≈ pre(D) + (q̂(S) − prê(S))
//
// The result is typically an order of magnitude more accurate than AQP at
// the same sample size, for a preprocessing cost orders of magnitude below
// materializing full data cubes.
//
// # Quick start
//
//	db := aqppp.NewDB()
//	db.Register(table)                        // an *engine.Table you built or loaded
//	prep, err := db.Prepare(ctx, aqppp.PrepareOptions{
//	    Table:      "lineitem",
//	    Aggregate:  "l_extendedprice",
//	    Dimensions: []string{"l_orderkey", "l_suppkey"},
//	    SampleRate: 0.01,
//	    CellBudget: 50000,
//	})
//	res, err := prep.Query(ctx, "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_orderkey BETWEEN 10 AND 500")
//	fmt.Printf("%.0f ± %.0f (95%%)\n", res.Value, res.HalfWidth)
//
// # Cancellation and budgets
//
// Every entry point that scans, builds or resamples exists once and
// takes a context.Context first. The context reaches the layers that
// actually loop — block kernels, the hill climber, the bootstrap
// resampler — so a canceled context unwinds within one block chunk,
// climb step, or resample. All entry points route through one internal
// executor and return the unified Error type; classify failures with
// ErrorKindOf or errors.As.
//
// A Budget adds a deadline, a resample cap and a scratch-memory cap.
// Every call runs under the DB-wide default (SetDefaultBudget) unless
// its context carries one of its own: WithBudget(ctx, b) replaces the
// default for the calls made with that context, the same way a
// context deadline is scoped to a request.
//
// See the examples/ directory for runnable end-to-end programs.
package aqppp

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/engine"
	"aqppp/internal/exec"
	"aqppp/internal/precompute"
	"aqppp/internal/sample"
	"aqppp/internal/shard"
	"aqppp/internal/store"
)

// DB is a registry of tables plus the prepared AQP++ state built over
// them. It is safe for concurrent readers once tables are registered
// and preparations built.
type DB struct {
	mu sync.RWMutex
	// tables is the one registry: a name resolves to the table its
	// statements compile against and the target that answers them,
	// whether the rows are resident (Register, OpenStore), partitioned
	// in process (RegisterSharded, Reshard) or behind a replica fleet
	// (RegisterDistributed).
	tables map[string]registered
	// preps tracks the prepared state built over each table so Drop can
	// invalidate it: a stale Prepared answers with an ErrUnknownTable-kind
	// error instead of silently serving a table the DB no longer knows.
	preps map[string][]*prepState
	// gens counts registration events per table name: Register and Drop
	// each bump the name's generation, monotonically and forever (the
	// entry survives Drop). A serving-layer cache keys entries on the
	// generation observed *before* running a query, so an answer computed
	// against a since-dropped table can never be served once the name is
	// re-registered — the current generation has moved past the key's.
	gens map[string]uint64
	// stores maps table names to the open store container serving them
	// (see OpenStore); Drop closes and forgets the entry.
	stores map[string]*store.Store
	ex     *exec.Executor
	budget exec.Budget
}

// registered is one registry entry.
type registered struct {
	tbl    *engine.Table
	target exec.Target
	// fleet is set for distributed tables only: tbl is then a zero-row
	// schema table, so nothing can be built over it in this process, and
	// preparations bind a replica-side handle instead (DistPrepared).
	fleet Fleet
}

// prepState is the liveness flag shared between the DB and one
// preparation; Drop flips it.
type prepState struct {
	table   string
	dropped atomic.Bool
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{
		tables: make(map[string]registered),
		preps:  make(map[string][]*prepState),
		gens:   make(map[string]uint64),
		stores: make(map[string]*store.Store),
		ex:     exec.New(),
	}
}

// SetDefaultBudget sets the budget applied to every query and prepare
// run through this DB and its preparations whose context carries none
// (see WithBudget). The zero Budget (the default) is unlimited.
func (db *DB) SetDefaultBudget(b Budget) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.budget = b
}

type budgetKey struct{}

// WithBudget returns a context whose calls run under b instead of the
// DB-wide default. A Budget is a deadline plus two work caps, scoped to
// a request exactly like the deadline a context already carries: a
// serving layer attaches each request's remaining time here, so an
// overrun classifies as ErrBudgetExceeded rather than ErrCanceled.
// b.Timeout counts from the moment each call starts.
func WithBudget(ctx context.Context, b Budget) context.Context {
	return context.WithValue(ctx, budgetKey{}, b)
}

// budgetFor resolves the budget one call runs under: the one its
// context carries, else the DB-wide default.
func (db *DB) budgetFor(ctx context.Context) Budget {
	if b, ok := ctx.Value(budgetKey{}).(Budget); ok {
		return b
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.budget
}

// track registers a new preparation over table so Drop can invalidate
// it later.
func (db *DB) track(table string) *prepState {
	st := &prepState{table: table}
	db.mu.Lock()
	db.preps[table] = append(db.preps[table], st)
	db.mu.Unlock()
	return st
}

// Register adds a table. Registering a second table with the same name is
// an error (drop and re-register to replace).
func (db *DB) Register(tbl *engine.Table) error {
	return db.register(registered{tbl: tbl, target: exec.Resident{Table: tbl}})
}

// register installs a registry entry under its table's name.
func (db *DB) register(e registered) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[e.tbl.Name]; ok {
		return fmt.Errorf("aqppp: table %q already registered", e.tbl.Name)
	}
	db.tables[e.tbl.Name] = e
	db.gens[e.tbl.Name]++
	return nil
}

// Drop removes a table and invalidates every Prepared built over it:
// their queries return an Error of kind ErrUnknownTable from then on.
func (db *DB) Drop(name string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[name]; ok {
		delete(db.tables, name)
		db.gens[name]++
	}
	if s, ok := db.stores[name]; ok {
		// The store only served the dropped table; release its mapping.
		// In-flight scans fail with the store's closed error, the same
		// outcome as racing any Drop.
		_ = s.Close()
		delete(db.stores, name)
	}
	for _, st := range db.preps[name] {
		st.dropped.Store(true)
	}
	delete(db.preps, name)
}

// Generation reports the registration generation of a table name: 0 for
// a name that was never registered, then +1 on every Register and every
// Drop of that name (monotone; re-registering never reuses an old
// value). A response cache keyed on the generation observed before a
// query ran is therefore immune to Drop/re-Register churn: any entry
// whose generation is not the current one is stale by construction.
func (db *DB) Generation(name string) uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.gens[name]
}

// Table returns a registered table. The failure carries the
// ErrUnknownTable kind, so Prepare on a missing table classifies the
// same way a query on one does.
func (db *DB) Table(name string) (*engine.Table, error) {
	e, err := db.lookup(name)
	return e.tbl, err
}

// lookup resolves a registry entry, failing with the ErrUnknownTable
// kind.
func (db *DB) lookup(name string) (registered, error) {
	db.mu.RLock()
	e, ok := db.tables[name]
	db.mu.RUnlock()
	if !ok {
		return registered{}, &exec.Error{Kind: exec.UnknownTable, Op: "table", Err: fmt.Errorf("no table %q", name)}
	}
	return e, nil
}

// lookupResident is lookup for entry points that build over the
// table's rows (Prepare, Reshard): a distributed table holds none in
// this process, so they report ErrUnsupported.
func (db *DB) lookupResident(name, op string) (registered, error) {
	e, err := db.lookup(name)
	if err == nil && e.fleet != nil {
		err = &exec.Error{Kind: exec.Unsupported, Op: op,
			Err: fmt.Errorf("table %q is distributed: its rows and preparations live on the replicas", name)}
	}
	return e, err
}

// LookupTable resolves a table name.
func (db *DB) LookupTable(name string) (*engine.Table, bool) {
	tbl, _, ok := db.LookupTarget(name)
	return tbl, ok
}

// LookupTarget resolves a table name to the table its statements
// compile against and the target that answers them; it implements the
// executor's TargetSource.
func (db *DB) LookupTarget(name string) (*engine.Table, exec.Target, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	e, ok := db.tables[name]
	return e.tbl, e.target, ok
}

// TableNames lists registered tables.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	return names
}

// LoadCSV reads a CSV (with header) into a new registered table. The
// reader checks ctx once per row batch, so a canceled context (e.g. an
// aborted upload request) unwinds the load within one batch instead of
// parsing the rest of the file.
func (db *DB) LoadCSV(ctx context.Context, name string, r io.Reader) (*engine.Table, error) {
	tbl, err := engine.ReadCSV(ctx, name, r)
	if err != nil {
		return nil, err
	}
	if err := db.Register(tbl); err != nil {
		return nil, err
	}
	return tbl, nil
}

// Exact runs a SQL statement exactly over the full table (the slow path a
// user falls back to for MIN/MAX/VAR or when perfect answers are needed).
// The scan checks ctx once per zone block.
func (db *DB) Exact(ctx context.Context, statement string) (engine.Result, error) {
	p, err := db.PlanExact(statement)
	if err != nil {
		return engine.Result{}, err
	}
	return db.RunExactPlan(ctx, p)
}

// PlanExact parses and compiles a statement into an executor plan
// without running it. A serving layer plans once, derives a response
// cache key from the plan (exec.Plan.CacheKey), and on a cache miss
// runs the very same plan with RunExactPlan — no double parse. The
// plan carries the table's registered target, so sharded and
// distributed tables scatter-gather and their cache keys fold the
// layout in.
func (db *DB) PlanExact(statement string) (*exec.Plan, error) {
	return exec.PlanExactStatement(db, statement)
}

// RunExactPlan executes a plan built by PlanExact.
func (db *DB) RunExactPlan(ctx context.Context, p *exec.Plan) (engine.Result, error) {
	out, err := db.ex.Run(ctx, p, db.budgetFor(ctx))
	if err != nil {
		return engine.Result{}, err
	}
	return out.Exact, nil
}

// PrepareOptions configures Prepare: which template to precompute for and
// how much to spend on it.
type PrepareOptions struct {
	// Table names the registered table.
	Table string
	// Aggregate is the aggregation attribute A of the template
	// [SUM(A), Dims...]; empty prepares a COUNT template.
	Aggregate string
	// Dimensions are the condition attributes.
	Dimensions []string
	// SampleRate is the uniform sample's share of the table (default
	// 0.01).
	SampleRate float64
	// CellBudget is the BP-Cube cell threshold k (default 10000).
	CellBudget int
	// Confidence is the CI level for answers (default 0.95).
	Confidence float64
	// Seed fixes all randomness (sampling, identification subsample).
	Seed uint64
	// EqualPartitionOnly skips hill climbing (mostly for comparisons).
	EqualPartitionOnly bool
	// WithCountCube also precomputes a COUNT cube so AVG queries get the
	// full AQP++ treatment.
	WithCountCube bool
	// WithMinMax also builds exact range-extrema indexes (one per
	// dimension) so MIN/MAX queries restricted to a single dimension are
	// answered exactly — the paper's §8 observation that extrema are
	// easy for precomputation and impossible for sampling.
	WithMinMax bool
	// LocalAdjustment switches hill climbing to the weaker local mode.
	LocalAdjustment bool
}

// Prepared answers queries for one template using AQP++. Every query
// plans against target — a single processor, one processor per shard
// merged per stratum, or a prepared handle on a replica fleet — and
// nothing above the target asks which.
type Prepared struct {
	db     *DB
	tbl    *engine.Table
	target exec.Target
	// proc is the target's processor when the sample and cube are
	// resident, nil over sharded and distributed tables: contracts,
	// progressive streams and SaveStore work on the sample and cube
	// themselves, not on answers.
	proc *core.Processor
	conf float64
	// stats is the preprocessing cost as known at construction.
	stats PreprocessingStats
	state *prepState
}

// Prepare builds the sample and BP-Cube for a template (the offline
// stage): sample → per-dimension error profiles → cube shape → hill-climbed
// partition points → one full-data scan to fill the cube. The hill
// climber checks ctx once per climb step.
func (db *DB) Prepare(ctx context.Context, opts PrepareOptions) (*Prepared, error) {
	b := db.budgetFor(ctx)
	e, err := db.lookupResident(opts.Table, "prepare")
	if err != nil {
		return nil, err
	}
	if opts.SampleRate == 0 {
		opts.SampleRate = 0.01
	}
	if opts.CellBudget == 0 {
		opts.CellBudget = 10000
	}
	mode := precompute.Global
	if opts.LocalAdjustment {
		mode = precompute.Local
	}
	cfg := core.BuildConfig{
		Template:           cube.Template{Agg: opts.Aggregate, Dims: opts.Dimensions},
		SampleRate:         opts.SampleRate,
		CellBudget:         opts.CellBudget,
		Confidence:         opts.Confidence,
		Seed:               opts.Seed,
		Mode:               mode,
		EqualPartitionOnly: opts.EqualPartitionOnly,
		WithCountCube:      opts.WithCountCube,
		WithMinMax:         opts.WithMinMax,
	}
	if st, ok := e.target.(exec.Sharded); ok {
		sp, err := db.ex.PrepareSharded(ctx, st.S, cfg, b)
		if err != nil {
			return nil, err
		}
		return db.newSharded(e.tbl, exec.Sharded{S: st.S, Prep: sp}), nil
	}
	proc, st, err := db.ex.Prepare(ctx, e.tbl, cfg, b)
	if err != nil {
		return nil, err
	}
	return db.newResident(e.tbl, proc, st), nil
}

// PrepareContext forwards to Prepare.
//
// Deprecated: call Prepare. The frozen benchmark/trace.go is the only
// caller; the shim goes when a benchmark PR may edit it.
func (db *DB) PrepareContext(ctx context.Context, opts PrepareOptions) (*Prepared, error) {
	return db.Prepare(ctx, opts)
}

// newResident wraps a built (or, with zero build stats, reloaded)
// processor over tbl as a Prepared.
func (db *DB) newResident(tbl *engine.Table, proc *core.Processor, bs core.BuildStats) *Prepared {
	cells := 0
	if proc.Cube != nil { // a stored prep may carry no cube
		cells = proc.Cube.NumCells()
	}
	return &Prepared{
		db: db, tbl: tbl, target: exec.Resident{Table: tbl, Proc: proc}, proc: proc,
		conf: proc.Confidence,
		stats: PreprocessingStats{
			SampleRows:   proc.Sample.Size(),
			SampleBytes:  bs.SampleBytes,
			CubeCells:    cells,
			CubeBytes:    bs.CubeBytes,
			CubeShape:    bs.Shape,
			TotalSeconds: bs.TotalTime().Seconds(),
		},
		state: db.track(tbl.Name),
	}
}

// live reports whether the preparation's table is still registered;
// after DB.Drop it returns an ErrUnknownTable-kind error.
func (p *Prepared) live(op string) error {
	if p.state.dropped.Load() {
		return &exec.Error{Kind: exec.UnknownTable, Op: op, Err: errDropped(p.tbl.Name)}
	}
	return nil
}

// errDropped is the cause carried by stale-preparation errors.
func errDropped(table string) error {
	return fmt.Errorf("table %q was dropped; preparation is stale", table)
}

// Result is an approximate answer with its confidence interval.
type Result struct {
	// Value is the point estimate.
	Value float64
	// HalfWidth is ε: the true answer lies in [Value−ε, Value+ε] at the
	// stated confidence.
	HalfWidth float64
	// Confidence is the interval's level (e.g. 0.95).
	Confidence float64
	// UsedPrecomputed reports whether a precomputed aggregate anchored
	// the answer (false = the query degenerated to plain AQP).
	UsedPrecomputed bool
	// Pre describes the identified aggregate (for diagnostics).
	Pre string
	// Partial reports a degraded distributed answer: one or more
	// replicas were lost and (under the opt-in degraded policy) the
	// survivors' strata answered with a widened interval. Never set on
	// resident or in-process sharded queries.
	Partial bool
	// Groups holds per-group results for GROUP BY queries; scalar
	// queries leave it nil.
	Groups []GroupResult
}

// GroupResult is one group's result.
type GroupResult struct {
	Key string
	Result
}

// Query parses and answers a SQL statement approximately; GROUP BY
// answers check ctx once per group.
func (p *Prepared) Query(ctx context.Context, statement string) (Result, error) {
	plan, err := p.PlanQuery(statement)
	if err != nil {
		return Result{}, err
	}
	return p.RunPlan(ctx, plan)
}

// PlanQuery parses and compiles a statement into a closed-form AQP++
// plan without running it (the plan-once counterpart of Query; see
// DB.PlanExact). It fails with the unknown-table kind if the
// preparation was invalidated by DB.Drop.
func (p *Prepared) PlanQuery(statement string) (*exec.Plan, error) {
	if err := p.live("query"); err != nil {
		return nil, err
	}
	return exec.PlanQueryStatement(p.target, p.tbl, statement)
}

// RunPlan executes a plan built by PlanQuery or PlanBootstrap and
// converts the outcome. The liveness check runs again here, so a
// preparation dropped between planning and running still refuses to
// answer.
func (p *Prepared) RunPlan(ctx context.Context, plan *exec.Plan) (Result, error) {
	if err := p.live(plan.Kind.String()); err != nil {
		return Result{}, err
	}
	out, err := p.db.ex.Run(ctx, plan, p.db.budgetFor(ctx))
	if err != nil {
		return Result{}, err
	}
	if len(plan.Query.GroupBy) > 0 {
		res := Result{Confidence: p.conf, Partial: out.Partial}
		for _, g := range out.Groups {
			res.Groups = append(res.Groups, GroupResult{Key: g.Key, Result: toResult(g.Answer)})
		}
		return res, nil
	}
	res := toResult(out.Answer)
	res.Partial = out.Partial
	return res, nil
}

// QueryStruct answers an engine.Query approximately.
func (p *Prepared) QueryStruct(ctx context.Context, q engine.Query) (Result, error) {
	return p.RunPlan(ctx, exec.PlanQueryStruct(p.target, p.tbl, q))
}

func toResult(a core.Answer) Result {
	return Result{
		Value:           a.Estimate.Value,
		HalfWidth:       a.Estimate.HalfWidth,
		Confidence:      a.Estimate.Confidence,
		UsedPrecomputed: !a.Pre.IsPhi(),
		Pre:             a.Pre.String(),
	}
}

// Stats reports the preprocessing cost of this preparation. For a
// sharded preparation the figures aggregate across shards (rows, bytes
// and cells sum; seconds sum the per-shard build times, which overstates
// wall clock since shards build in parallel; the shape is left nil —
// each shard climbs its own partition points). A fleet's preprocessing
// lives on the replicas; only the total sample size is known here.
func (p *Prepared) Stats() PreprocessingStats {
	st := p.stats
	st.CubeShape = append([]int(nil), st.CubeShape...)
	return st
}

// PreprocessingStats summarizes the offline cost (the paper's
// preprocessing time/space metrics).
type PreprocessingStats struct {
	SampleRows   int
	SampleBytes  int64
	CubeCells    int
	CubeBytes    int64
	CubeShape    []int
	TotalSeconds float64
}

// TableName reports the registered table this preparation answers for.
func (p *Prepared) TableName() string { return p.tbl.Name }

// Confidence reports the CI level this preparation answers at.
func (p *Prepared) Confidence() float64 { return p.conf }

// Sample exposes the underlying sample (read-only use). Sharded
// preparations have one sample per shard, not a single one, so this
// returns nil for them — use ShardedProcessor.
func (p *Prepared) Sample() *sample.Sample {
	if p.proc == nil {
		return nil
	}
	return p.proc.Sample
}

// Processor exposes the underlying AQP++ processor for advanced use
// (ablations, custom pipelines). Nil for sharded preparations — use
// ShardedProcessor.
func (p *Prepared) Processor() *core.Processor { return p.proc }

// ShardedProcessor exposes the per-shard preparation when this Prepared
// was built over a sharded table; nil otherwise.
func (p *Prepared) ShardedProcessor() *shard.Prepared {
	st, _ := p.target.(exec.Sharded)
	return st.Prep
}
