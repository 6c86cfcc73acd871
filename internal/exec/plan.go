package exec

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"aqppp/internal/contract"
	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/sql"
)

// PlanKind selects the answer path a Plan runs.
type PlanKind uint8

const (
	// PlanExact scans the full table through the plan's Target: one
	// serial pass on a resident table, a scatter-gather over the shards
	// or the fleet otherwise.
	PlanExact PlanKind = iota
	// PlanApprox answers through one Prepared template's AQP++
	// processor (closed-form intervals).
	PlanApprox
	// PlanBootstrap answers through a processor with an empirical
	// bootstrap interval.
	PlanBootstrap
	// PlanContract answers under an a-priori error contract: the
	// planner's Decision names the cheapest strategy predicted to meet
	// the bound, and the executor runs the escalation ladder until a
	// rung's realized interval does.
	PlanContract
)

// String implements fmt.Stringer.
func (k PlanKind) String() string {
	switch k {
	case PlanExact:
		return "exact"
	case PlanApprox:
		return "query"
	case PlanBootstrap:
		return "bootstrap"
	case PlanContract:
		return "contract"
	default:
		return fmt.Sprintf("PlanKind(%d)", uint8(k))
	}
}

// Plan is the executor's IR: what to run, fully resolved — the compiled
// predicate and the Target that will answer it. Plans are built by the
// Plan* constructors (which own the parse/resolve/compile error
// classification) and run by Executor.Run.
type Plan struct {
	Kind PlanKind
	// Table is the table the statement compiled against (a fleet's
	// zero-row schema table, for a distributed plan).
	Table *engine.Table
	Query engine.Query
	// Target answers the plan, whatever the kind.
	Target Target
	// Proc is the resident processor a PlanContract plan's ladder draws
	// subsamples from; only a Resident target can supply one.
	Proc *core.Processor
	// Resamples is the bootstrap replicate count (<= 0 selects the
	// default of 200); checked against Budget.MaxResamples at run time.
	Resamples int
	// Seed drives bootstrap resampling.
	Seed uint64
	// Contract is the a-priori error bound of a PlanContract plan, and
	// Decision the planner's strategy choice for it (computed at plan
	// time from prepared state, so infeasible contracts never reach the
	// executor).
	Contract *contract.Contract
	Decision contract.Decision
}

// CacheKey renders the plan as a canonical string suitable for keying a
// response cache: the answer path (kind), the table, and the compiled
// query with its range conditions sorted, so two statements that parse
// and compile to the same work — regardless of WHERE-clause order,
// whitespace, or keyword case — share one key. Bootstrap plans fold the
// replicate count and seed in (they change the interval), and GROUP BY
// columns keep their order (it determines the group key rendering).
// The key deliberately excludes the Budget: a budget changes whether a
// plan completes, never what a completed plan answers.
//
// The key also excludes the Target. A table's registration is
// permanent, so its name fixes where exact plans run, but one table
// may carry several prepared handles (or, on a fleet, several handles
// every replica serves), and two handles answer the same approximate
// statement differently. A caller that caches approximate answers of
// more than one handle must append the handle's identity to the key,
// as the server does with "|h=<name>@<epoch>".
func (p *Plan) CacheKey() string {
	var b strings.Builder
	b.WriteString(p.Kind.String())
	b.WriteByte('|')
	b.WriteString(p.Table.Name)
	b.WriteByte('|')
	b.WriteString(p.Query.Func.String())
	b.WriteByte('(')
	b.WriteString(p.Query.Col)
	b.WriteByte(')')
	// Ranges are rendered first and sorted as strings: range order in a
	// WHERE clause is semantically irrelevant (conjunction), and sorting
	// the rendered form avoids comparing floats. %x renders the exact
	// bits of each bound, so distinct bounds never collide.
	rendered := make([]string, len(p.Query.Ranges))
	for i, r := range p.Query.Ranges {
		rendered[i] = fmt.Sprintf("%s:%x..%x", r.Col, r.Lo, r.Hi)
	}
	sort.Strings(rendered)
	for _, r := range rendered {
		b.WriteByte('|')
		b.WriteString(r)
	}
	if len(p.Query.GroupBy) > 0 {
		b.WriteString("|by:")
		b.WriteString(strings.Join(p.Query.GroupBy, ","))
	}
	if p.Kind == PlanBootstrap {
		fmt.Fprintf(&b, "|n=%d|seed=%d", p.Resamples, p.Seed)
	}
	// The contract folds in whole: two requests with different bounds
	// (or escalation policies) may answer through different strategies,
	// so their answers cache independently.
	if p.Contract != nil {
		b.WriteString("|contract=")
		b.WriteString(p.Contract.Key())
	}
	return b.String()
}

// TargetSource resolves table names for PlanExact: the table
// statements compile against and the target that scans it. *aqppp.DB
// implements it; any registry can.
type TargetSource interface {
	LookupTarget(name string) (*engine.Table, Target, bool)
}

// PlanExactStatement parses a statement, resolves its table against src
// and compiles the predicate into an exact-scan plan.
func PlanExactStatement(src TargetSource, statement string) (*Plan, error) {
	st, err := sql.Parse(statement)
	if err != nil {
		return nil, &Error{Kind: Parse, Op: "exact", Err: err}
	}
	tbl, t, ok := src.LookupTarget(st.Table)
	if !ok {
		return nil, &Error{Kind: UnknownTable, Op: "exact", Err: fmt.Errorf("no table %q", st.Table)}
	}
	q, err := sql.Compile(st, tbl)
	if err != nil {
		return nil, &Error{Kind: Parse, Op: "exact", Err: err}
	}
	return &Plan{Kind: PlanExact, Table: tbl, Query: q, Target: t}, nil
}

// PlanQueryStatement compiles a statement against a prepared target's
// table into an AQP++ plan.
func PlanQueryStatement(t Target, tbl *engine.Table, statement string) (*Plan, error) {
	q, err := CompileStatement(tbl, "query", statement)
	if err != nil {
		return nil, err
	}
	return PlanQueryStruct(t, tbl, q), nil
}

// PlanQueryStruct wraps an already-compiled engine.Query into an AQP++
// plan (the advanced-use path that skips SQL).
func PlanQueryStruct(t Target, tbl *engine.Table, q engine.Query) *Plan {
	return &Plan{Kind: PlanApprox, Table: tbl, Query: q, Target: t}
}

// PlanBootstrapStatement compiles a statement into a bootstrap plan.
func PlanBootstrapStatement(t Target, tbl *engine.Table, statement string, resamples int, seed uint64) (*Plan, error) {
	q, err := CompileStatement(tbl, "bootstrap", statement)
	if err != nil {
		return nil, err
	}
	return &Plan{Kind: PlanBootstrap, Table: tbl, Query: q, Target: t, Resamples: resamples, Seed: seed}, nil
}

// PlanContractStatement compiles a statement into a contract plan: the
// contract planner runs here, at plan time, so an infeasible contract
// fails fast (kind ContractInfeasible) before any cache, gate, or scan
// work. Contract planning inverts the resident sample's interval and
// the ladder draws subsamples of it, so any target but a prepared
// Resident is Unsupported.
func PlanContractStatement(t Target, tbl *engine.Table, statement string, c contract.Contract, seed uint64) (*Plan, error) {
	r, ok := t.(Resident)
	if !ok || r.Proc == nil {
		return nil, &Error{Kind: Unsupported, Op: "contract",
			Err: fmt.Errorf("contracts need a resident preparation over %q", tbl.Name)}
	}
	q, err := CompileStatement(tbl, "contract", statement)
	if err != nil {
		return nil, err
	}
	d, err := contract.Decide(r.Proc, q, c)
	if err != nil {
		var inf *contract.InfeasibleError
		if errors.As(err, &inf) {
			return nil, &Error{Kind: ContractInfeasible, Op: "contract", Err: err}
		}
		if errors.Is(err, core.ErrUnsupported) {
			return nil, &Error{Kind: Unsupported, Op: "contract", Err: err}
		}
		return nil, &Error{Kind: Parse, Op: "contract", Err: err}
	}
	return &Plan{Kind: PlanContract, Table: tbl, Query: q, Target: t, Proc: r.Proc,
		Contract: &c, Decision: d, Seed: seed}, nil
}

// CompileStatement parses and compiles a statement against a single
// known table, classifying a table mismatch as UnknownTable and
// everything else the parser or compiler rejects as Parse. Exported for
// the root progressive path, which streams rounds outside the Plan IR
// but must classify compile failures identically.
func CompileStatement(tbl *engine.Table, op, statement string) (engine.Query, error) {
	st, err := sql.Parse(statement)
	if err != nil {
		return engine.Query{}, &Error{Kind: Parse, Op: op, Err: err}
	}
	if st.Table != tbl.Name {
		return engine.Query{}, &Error{Kind: UnknownTable, Op: op,
			Err: fmt.Errorf("prepared for table %q, statement targets %q", tbl.Name, st.Table)}
	}
	q, err := sql.Compile(st, tbl)
	if err != nil {
		return engine.Query{}, &Error{Kind: Parse, Op: op, Err: err}
	}
	return q, nil
}
