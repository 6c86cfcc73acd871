// Package lint is aqppp's custom static analyzer. It enforces the
// repo-specific invariants that the AQP++ correctness story rests on:
// reproducible confidence intervals require every sampler, bootstrap,
// and prefix-cube computation to be deterministic under the seeded PCG
// RNG (internal/stats), and the concurrent engine paths to be race-free.
//
// The analyzer is a small rule framework: each rule lives in its own
// file and implements the Rule interface; the driver in cmd/aqppp-lint
// loads packages with go/parser + go/types (stdlib only, honoring the
// repo's no-external-deps constraint), runs every rule, filters the
// diagnostics through an allowlist, and reports the rest.
//
// Rules shipped today — each one has either reported a true positive on
// this repo or has a subject in the module and no other gate step or
// type that enforces the property:
//
//   - determinism:     math/rand imports, time.Now/time.Since calls, and
//     map-order-dependent iteration in the numeric packages
//   - float-eq:        ==/!= between floating-point expressions
//   - dropped-error:   discarded error return values
//   - panic:           panic(...) in library (non-main) packages
//   - ctx-first:       context.Context parameters that are not first,
//     and contexts stored in struct fields
//   - lock-balance:    a path from Lock()/RLock() to a return without
//     the matching Unlock (flow-sensitive, over internal/lint/cfg)
//
// Five are AST walkers; lock-balance runs a forward dataflow over the
// CFG in internal/lint/cfg. Properties this package does NOT own, and
// who does (DESIGN.md §11 has the evidence per row): a ctx-holding
// caller dropping its ctx on the way to a scan or a load — the
// signatures (every engine/shard operation exists once, ctx first, so
// the drop cannot be written without typing context.Background());
// copied locks and lost cancel funcs — go vet (copylocks, lostcancel),
// one step earlier in scripts/check.sh; unsynchronised access to a
// mutex-guarded field — go test -race; atomic/plain mixing — the typed
// sync/atomic values the module uses exclusively; loop-variable capture
// — go 1.22 per-iteration loop variables; unclosed response bodies —
// internal/dist's roundTrip is the only function that holds a
// *http.Response.
//
// To add a rule, create a new file implementing Rule and append it in
// Rules.
// To suppress a finding, add a line to the allowlist file (see
// Allowlist) with a comment explaining why — unused entries fail the
// staleness check, so suppressions cannot outlive their findings.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Diagnostic is one finding, positioned in module-relative file
// coordinates so allowlists stay stable across checkouts.
type Diagnostic struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.File, d.Line, d.Col, d.Rule, d.Message)
}

// Package is one loaded, type-checked package ready for rules to walk.
type Package struct {
	// Path is the package's import path (module path + relative dir).
	Path string
	// Dir is the absolute directory the package was loaded from.
	Dir string
	// ModDir is the absolute root of the package's module; diagnostics
	// are reported relative to it.
	ModDir string
	Fset   *token.FileSet
	// Files holds the package's non-test files. Test files are excluded
	// from analysis: every rule's contract is about library code.
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// IsCommand reports whether the package is a main package (commands and
// examples get looser error-discipline rules than libraries).
func (p *Package) IsCommand() bool {
	return p.Types != nil && p.Types.Name() == "main"
}

// Rule checks one package and reports findings through report.
type Rule interface {
	// Name is the stable identifier used in output and allowlists.
	Name() string
	// Check walks pkg and calls report for each violation.
	Check(pkg *Package, report func(pos token.Pos, msg string))
}

// Rules returns the default rule set in reporting order.
func Rules() []Rule {
	return []Rule{
		DeterminismRule{},
		FloatEqRule{},
		DroppedErrorRule{},
		PanicRule{},
		CtxFirstRule{},
		LockBalanceRule{},
	}
}

// Run applies rules to every package and returns the diagnostics that
// survive the allowlist (nil allow means keep everything), sorted by
// file, line, then rule. Analysis fans out across per-package
// goroutines; the final sort (plus per-package collection before the
// shared dedup pass) keeps output deterministic regardless of
// scheduling.
func Run(pkgs []*Package, rules []Rule, allow *Allowlist) []Diagnostic {
	// Fan out: one goroutine per package, diagnostics collected
	// per-package so the merge below is scheduling-independent.
	perPkg := make([][]Diagnostic, len(pkgs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, pkg := range pkgs {
		wg.Add(1)
		go func(i int, pkg *Package) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			var local []Diagnostic
			for _, r := range rules {
				name := r.Name()
				r.Check(pkg, func(pos token.Pos, msg string) {
					p := pkg.Fset.Position(pos)
					local = append(local, Diagnostic{
						Rule:    name,
						File:    relPath(pkg.ModDir, p.Filename),
						Line:    p.Line,
						Col:     p.Column,
						Message: msg,
					})
				})
			}
			perPkg[i] = local
		}(i, pkg)
	}
	wg.Wait()

	var out []Diagnostic
	seen := make(map[Diagnostic]bool)
	for _, local := range perPkg {
		for _, d := range local {
			if seen[d] || (allow != nil && allow.Allows(d)) {
				continue
			}
			seen[d] = true
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

// relPath returns file relative to root in slash form, or file unchanged
// when it does not sit under root.
func relPath(root, file string) string {
	root = strings.TrimSuffix(root, "/")
	if root != "" && strings.HasPrefix(file, root+"/") {
		return strings.TrimPrefix(file, root+"/")
	}
	return file
}

// pathHasSuffix reports whether path ends with the given slash-separated
// suffix on a path-segment boundary ("a/b/c" has suffix "b/c" but not
// "/c" spelled as "c" unless c is a full segment).
func pathHasSuffix(path, suffix string) bool {
	if path == suffix {
		return true
	}
	return strings.HasSuffix(path, "/"+suffix)
}
