// Command aqppp-lint runs the repo's custom static analyzer (see
// internal/lint) over the given package patterns and reports invariant
// violations. The rule set is five plain AST walks (nondeterminism in the
// numeric core, float equality, dropped errors, library panics,
// ctx-first signatures) and one flow-aware analysis on
// the CFG/dataflow framework in internal/lint/cfg (lock-balance); the
// package doc of internal/lint says which tool owns the rest.
//
// Usage:
//
//	aqppp-lint [-json] [-lenient] [-allowlist file] [patterns...]
//
// Patterns are directories, optionally ending in /... for a subtree;
// the default is ./... from the current directory. Unless -allowlist is
// given, a lint.allow file at the enclosing module root is loaded when
// present.
//
// After analysis the allowlist is checked for staleness: an entry whose
// file pattern matched loaded files but which suppressed no diagnostic,
// or whose pattern matches no file under the module root at all, is
// dead weight and is reported. -lenient downgrades stale entries from
// an error to a warning (for use mid-refactor, never in CI).
//
// Exit status is a contract that scripts/check.sh and CI rely on:
//
//	0 — clean: no diagnostics, no stale allowlist entries
//	1 — findings: diagnostics reported, or stale allowlist entries
//	    found (unless -lenient)
//	2 — operational failure: bad usage, an unreadable allowlist or one
//	    naming an unknown rule, or a package that fails to parse or
//	    type-check
//
// With -json, output is a single object (schema_version 1):
//
//	{
//	  "schema_version": 1,
//	  "diagnostics": [{"rule","file","line","col","message"}, ...],
//	  "counts": {"<rule>": n, ...},
//	  "stale_allowlist": ["line 12: ...", ...]
//	}
//
// counts holds one key per rule that fired; map keys serialize sorted,
// so the output is byte-stable for a given tree. The schema_version
// field only changes when a consumer-visible field is renamed, removed,
// or retyped — adding fields is not a version bump.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"aqppp/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit a JSON report object instead of text")
	lenient := flag.Bool("lenient", false, "warn on stale allowlist entries instead of failing")
	allowPath := flag.String("allowlist", "", "allowlist file (default: lint.allow at the module root, if present)")
	flag.Parse()
	os.Exit(run(*jsonOut, *lenient, *allowPath, flag.Args()))
}

// jsonReport is the -json output shape. Bump schemaVersion only on
// incompatible changes (renames/removals), per the package doc.
type jsonReport struct {
	SchemaVersion  int               `json:"schema_version"`
	Diagnostics    []lint.Diagnostic `json:"diagnostics"`
	Counts         map[string]int    `json:"counts"`
	StaleAllowlist []string          `json:"stale_allowlist,omitempty"`
}

const schemaVersion = 1

func run(jsonOut, lenient bool, allowPath string, patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqppp-lint:", err)
		return 2
	}
	var allow *lint.Allowlist
	root := moduleRoot(cwd)
	if allowPath == "" && root != "" {
		if p := filepath.Join(root, "lint.allow"); fileExists(p) {
			allowPath = p
		}
	}
	if allowPath != "" {
		allow, err = lint.LoadAllowlist(allowPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aqppp-lint:", err)
			return 2
		}
	}
	pkgs, err := lint.Load(cwd, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aqppp-lint:", err)
		return 2
	}
	diags := lint.Run(pkgs, lint.Rules(), allow)
	var stale []string
	if allow != nil {
		stale = allow.Stale(root, pkgs)
	}
	if jsonOut {
		rep := jsonReport{
			SchemaVersion:  schemaVersion,
			Diagnostics:    diags,
			Counts:         make(map[string]int),
			StaleAllowlist: stale,
		}
		if rep.Diagnostics == nil {
			rep.Diagnostics = []lint.Diagnostic{}
		}
		for _, d := range diags {
			rep.Counts[d.Rule]++
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "aqppp-lint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	for _, s := range stale {
		level := "stale allowlist entry"
		if lenient {
			level = "warning: stale allowlist entry"
		}
		fmt.Fprintf(os.Stderr, "aqppp-lint: %s: %s: %s\n", level, allowPath, s)
	}
	if len(diags) > 0 {
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "aqppp-lint: %d violation(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		return 1
	}
	if len(stale) > 0 && !lenient {
		fmt.Fprintf(os.Stderr, "aqppp-lint: %d stale allowlist entr%s; prune %s or rerun with -lenient\n",
			len(stale), plural(len(stale), "y", "ies"), allowPath)
		return 1
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// moduleRoot returns the directory of the go.mod enclosing dir — where
// the default lint.allow lives and what allowlist patterns are relative
// to — or "" outside a module (Load then fails before it matters).
func moduleRoot(dir string) string {
	for d := dir; ; {
		if fileExists(filepath.Join(d, "go.mod")) {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return ""
		}
		d = parent
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}
