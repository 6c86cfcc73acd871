package lint

import (
	"fmt"
	"io/fs"
	"os"
	"path"
	"strings"
)

// Allowlist suppresses known, reviewed findings. The file format is one
// entry per line:
//
//	<rule> <file-pattern> [message-substring]
//
// where <rule> is a rule name or "*", <file-pattern> is a module-relative
// path (path.Match globs allowed, e.g. internal/engine/*.go), and the
// optional remainder of the line must appear inside the diagnostic's
// message for the entry to apply. Blank lines and lines starting with
// '#' are comments — every entry is expected to carry one explaining why
// the finding is acceptable.
//
// Entries record whether they matched anything during a Run; Stale
// returns the ones that suppressed nothing, so suppressions cannot
// outlive the findings they were written for. Allows mutates that state,
// so an Allowlist must not be shared across concurrent Runs — Run calls
// it only from its serial merge phase.
type Allowlist struct {
	entries []allowEntry
}

type allowEntry struct {
	rule    string
	pattern string
	substr  string
	// line is the 1-based line number in the source file, raw its
	// original text — both only for reporting stale entries.
	line int
	raw  string
	// used is set by Allows when the entry suppresses a diagnostic.
	used bool
}

// ParseAllowlist parses allowlist text. An entry naming a rule that is
// neither "*" nor in Rules() is an error: it could never suppress
// anything, so it is a typo or has outlived its rule.
func ParseAllowlist(data []byte) (*Allowlist, error) {
	known := map[string]bool{"*": true}
	for _, r := range Rules() {
		known[r.Name()] = true
	}
	a := &Allowlist{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("allowlist line %d: need \"<rule> <file-pattern> [substring]\", got %q", i+1, line)
		}
		if !known[fields[0]] {
			return nil, fmt.Errorf("allowlist line %d: unknown rule %q", i+1, fields[0])
		}
		e := allowEntry{rule: fields[0], pattern: fields[1], line: i + 1, raw: line}
		if len(fields) > 2 {
			e.substr = strings.Join(fields[2:], " ")
		}
		if _, err := path.Match(e.pattern, ""); err != nil {
			return nil, fmt.Errorf("allowlist line %d: bad pattern %q: %v", i+1, e.pattern, err)
		}
		a.entries = append(a.entries, e)
	}
	return a, nil
}

// LoadAllowlist reads and parses the allowlist at file.
func LoadAllowlist(file string) (*Allowlist, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	a, err := ParseAllowlist(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return a, nil
}

// Allows reports whether d matches an allowlist entry, marking every
// matching entry used. Not safe for concurrent use.
func (a *Allowlist) Allows(d Diagnostic) bool {
	hit := false
	for i := range a.entries {
		e := &a.entries[i]
		if e.rule != "*" && e.rule != d.Rule {
			continue
		}
		if ok, _ := path.Match(e.pattern, d.File); !ok && e.pattern != d.File {
			continue
		}
		if e.substr != "" && !strings.Contains(d.Message, e.substr) {
			continue
		}
		e.used = true
		hit = true
	}
	return hit
}

// Stale returns a description of every entry that was never marked used
// by Allows since parsing and is either in scope — its file pattern
// matches at least one file of the loaded packages — or dead: its
// pattern matches no file on disk under root, the module root the
// patterns are relative to ("" skips that check). The in-scope
// condition keeps subset lints honest: running the analyzer over one
// subtree (or over the testdata modules in the self-test) must not
// condemn entries whose files exist but were simply not loaded. Call
// after Run.
func (a *Allowlist) Stale(root string, pkgs []*Package) []string {
	var files []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			files = append(files, relPath(pkg.ModDir, pkg.Fset.Position(f.Pos()).Filename))
		}
	}
	var stale []string
	for i := range a.entries {
		e := &a.entries[i]
		if e.used {
			continue
		}
		loaded := false
		for _, file := range files {
			if ok, _ := path.Match(e.pattern, file); ok || e.pattern == file {
				loaded = true
				break
			}
		}
		if loaded {
			stale = append(stale, fmt.Sprintf("line %d: %q matches no current diagnostic", e.line, e.raw))
		} else if root != "" {
			if onDisk, _ := fs.Glob(os.DirFS(root), e.pattern); len(onDisk) == 0 {
				stale = append(stale, fmt.Sprintf("line %d: %q matches no file under %s", e.line, e.raw, root))
			}
		}
	}
	return stale
}
