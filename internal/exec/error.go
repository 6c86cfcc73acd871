// Package exec is the serving spine of aqppp: every public and internal
// query or prepare entry point compiles into a Plan (what to run) and
// hands it to an Executor (how to run it), which carries a
// context.Context and a per-query Budget down through the layers that
// actually loop — the engine's block kernels, the hill climber, the
// bootstrap resampler, and the progressive rounds — and maps every
// failure onto one small error taxonomy.
//
// The shape follows the middleware argument of VerdictDB (one request
// path for all AQP traffic) and PilotDB (the serving layer, not the
// caller, owns per-query guarantees): callers get cancellation,
// deadlines, resample caps and scratch-memory caps without any layer
// below knowing who is asking.
package exec

import (
	"context"
	"errors"
	"fmt"

	"aqppp/internal/contract"
	"aqppp/internal/core"
)

// Kind classifies an Error into the executor's unified taxonomy.
type Kind uint8

const (
	// Internal is the zero kind: an unexpected failure inside a lower
	// layer that the taxonomy does not model.
	Internal Kind = iota
	// Parse marks statements that do not parse or compile (bad syntax,
	// unknown columns, malformed literals).
	Parse
	// UnknownTable marks statements that target a table the resolver
	// does not know — including preparations invalidated by DB.Drop.
	UnknownTable
	// Unsupported marks well-formed requests the engine cannot serve
	// (e.g. an aggregate outside the plan kind's repertoire).
	Unsupported
	// Canceled marks queries unwound because the caller's context was
	// canceled or hit the caller's own deadline.
	Canceled
	// BudgetExceeded marks queries rejected or unwound by the per-query
	// Budget: its deadline fired, or a resample/scratch cap was blown.
	BudgetExceeded
	// Unavailable marks distributed queries that lost a required replica:
	// the replica was unreachable, timed out, or shed the partial request,
	// and the degraded-answer policy (if any) could not absorb the loss.
	Unavailable
	// ContractInfeasible marks contract queries no permitted strategy
	// can provably answer within the contracted error bound; the
	// wrapped *contract.InfeasibleError carries the tightest achievable
	// bound. Rejected at plan time, before any scan work.
	ContractInfeasible
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Parse:
		return "parse"
	case UnknownTable:
		return "unknown-table"
	case Unsupported:
		return "unsupported"
	case Canceled:
		return "canceled"
	case BudgetExceeded:
		return "budget-exceeded"
	case Unavailable:
		return "unavailable"
	case ContractInfeasible:
		return "contract-infeasible"
	default:
		return "internal"
	}
}

// Error is the executor's unified error: a Kind, the entry point that
// produced it, and the underlying cause. It unwraps to the cause, so
// errors.Is(err, context.Canceled) holds for Canceled-kind errors
// produced by a canceled context.
type Error struct {
	Kind Kind
	// Op names the entry point: "exact", "query", "bootstrap",
	// "contract", "prepare".
	Op string
	// Err is the underlying cause (never nil).
	Err error
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("aqppp: %s: %s: %v", e.Op, e.Kind, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Error) Unwrap() error { return e.Err }

// KindOf extracts the Kind from an error produced by this package;
// other errors (including nil) report Internal.
func KindOf(err error) Kind {
	var e *Error
	if errors.As(err, &e) {
		return e.Kind
	}
	return Internal
}

// Classify wraps a run error with the right kind. parent is the
// caller's context, run the (possibly budget-bounded) context the work
// actually ran under; budgeted says whether a Budget imposed its own
// deadline on top (see Budget.Bound). The root's progressive stream,
// the one run loop outside the executor, classifies through it too.
func Classify(parent, run context.Context, op string, budgeted bool, err error) error {
	if err == nil {
		return nil
	}
	var e *Error
	if errors.As(err, &e) {
		return err // already classified at a lower level
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		// The caller's context going bad is a cancellation; only a
		// deadline the budget itself imposed counts against the budget.
		if parent.Err() == nil && budgeted && run.Err() != nil {
			return &Error{Kind: BudgetExceeded, Op: op, Err: err}
		}
		return &Error{Kind: Canceled, Op: op, Err: err}
	}
	if errors.Is(err, core.ErrUnsupported) {
		return &Error{Kind: Unsupported, Op: op, Err: err}
	}
	var inf *contract.InfeasibleError
	if errors.As(err, &inf) {
		return &Error{Kind: ContractInfeasible, Op: op, Err: err}
	}
	return &Error{Kind: Internal, Op: op, Err: err}
}
