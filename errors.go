package aqppp

import "aqppp/internal/exec"

// Error is the unified error type every query and prepare entry point
// returns on failure: a Kind from the small taxonomy below, the entry
// point that produced it, and the underlying cause. It unwraps, so
// errors.Is(err, context.Canceled) holds for canceled queries and
// errors.As(err, &e) recovers the Kind.
type Error = exec.Error

// ErrorKind classifies an Error.
type ErrorKind = exec.Kind

// The error taxonomy. Every failure from a DB or Prepared entry point
// carries exactly one of these kinds.
const (
	// ErrInternal is an unexpected failure the taxonomy does not model.
	ErrInternal = exec.Internal
	// ErrParse marks statements that do not parse or compile.
	ErrParse = exec.Parse
	// ErrUnknownTable marks statements targeting an unregistered table.
	ErrUnknownTable = exec.UnknownTable
	// ErrUnsupported marks well-formed requests the engine cannot serve.
	ErrUnsupported = exec.Unsupported
	// ErrCanceled marks queries unwound by the caller's context.
	ErrCanceled = exec.Canceled
	// ErrBudgetExceeded marks queries rejected or unwound by the
	// per-query Budget.
	ErrBudgetExceeded = exec.BudgetExceeded
	// ErrUnavailable marks distributed queries that lost a replica the
	// query needed (unreachable, timed out, or shedding): every stratum
	// a query does not prune answers or the query fails. Its
	// wire-stable String form is "unavailable".
	ErrUnavailable = exec.Unavailable
	// ErrContractInfeasible marks contract queries whose error bound no
	// permitted strategy can meet — at plan time (predicted) or after
	// the escalation ladder ran dry (realized). The cause is a
	// *ContractInfeasibleError carrying the tightest achievable
	// half-width; its wire-stable String form is "contract-infeasible".
	ErrContractInfeasible = exec.ContractInfeasible
)

// ErrorKindOf extracts the kind from an error returned by this package;
// other errors (including nil) report ErrInternal.
//
// The kinds are designed to be a wire-stable contract: ErrorKind's
// String form ("parse", "unknown-table", "unsupported", "canceled",
// "budget-exceeded", "contract-infeasible", "internal") is what internal/server emits in its
// JSON error bodies and what cmd/aqppp-cli folds into exit codes, so
// renaming a kind is a breaking API change.
func ErrorKindOf(err error) ErrorKind { return exec.KindOf(err) }

// Budget bounds a query or preparation: wall time and bootstrap
// resamples. The zero Budget is unlimited. Set a DB-wide
// default with DB.SetDefaultBudget.
type Budget = exec.Budget
