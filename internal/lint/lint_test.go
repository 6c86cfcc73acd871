package lint

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// want is one expected diagnostic: a rule name at a file:line.
type want struct {
	file string
	line int
	rule string
}

// parseWants scans every .go file under dir (recursively) for trailing
// "// want rule1 rule2" comments and returns the expectations keyed the
// way diagnostics report them (module-relative file paths).
func parseWants(t *testing.T, modDir string) map[want]int {
	t.Helper()
	wants := make(map[want]int)
	err := filepath.WalkDir(modDir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(modDir, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			_, after, ok := strings.Cut(sc.Text(), "// want ")
			if !ok {
				continue
			}
			for _, rule := range strings.Fields(after) {
				wants[want{file: rel, line: line, rule: rule}]++
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

// TestRulesOnTestdata loads every seeded-violation package and checks
// the diagnostics match the want comments exactly: nothing missing,
// nothing extra.
func TestRulesOnTestdata(t *testing.T) {
	modDir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load("testdata", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 7 {
		t.Fatalf("loaded %d testdata packages, want >= 7 (one per rule)", len(pkgs))
	}
	diags := Run(pkgs, Rules(), nil)
	wants := parseWants(t, modDir)
	if len(wants) == 0 {
		t.Fatal("no want comments found in testdata")
	}
	rulesSeen := make(map[string]bool)
	for _, d := range diags {
		w := want{file: d.File, line: d.Line, rule: d.Rule}
		if wants[w] == 0 {
			t.Errorf("unexpected diagnostic: %s", d)
			continue
		}
		wants[w]--
		rulesSeen[d.Rule] = true
	}
	for w, n := range wants {
		if n > 0 && !strings.HasPrefix(w.rule, "vet:") {
			t.Errorf("missing diagnostic (x%d): %s:%d [%s]", n, w.file, w.line, w.rule)
		}
	}
	for _, r := range Rules() {
		if !rulesSeen[r.Name()] {
			t.Errorf("rule %s produced no diagnostic on testdata", r.Name())
		}
	}
}

// TestGoVetOwnsFixtures pins the sensitivity of the tool that replaced
// the mutex-copy and cancel-leak rules: `go vet` over the two retained
// fixtures must report exactly the lines their "// want vet:<pass>"
// comments mark.
func TestGoVetOwnsFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet; skipped in -short")
	}
	modDir, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "vet", "./mutexcopy", "./cancelleak")
	cmd.Dir = modDir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet found nothing on the seeded fixtures:\n%s", out)
	}
	wants := parseWants(t, modDir)
	for _, line := range strings.Split(string(out), "\n") {
		var pass string
		switch {
		case strings.Contains(line, "copies lock"), strings.Contains(line, "passes lock by value"):
			pass = "vet:copylocks"
		case strings.Contains(line, "cancel function"):
			pass = "vet:lostcancel"
		default:
			continue // package headers, lostcancel's second "this return statement" line
		}
		parts := strings.SplitN(line, ":", 3)
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatalf("unparsable go vet line %q", line)
		}
		w := want{file: filepath.ToSlash(parts[0]), line: n, rule: pass}
		if wants[w] == 0 {
			t.Errorf("unexpected go vet finding: %s", line)
		}
		wants[w]--
	}
	for w, n := range wants {
		if n > 0 && strings.HasPrefix(w.rule, "vet:") {
			t.Errorf("go vet no longer reports %s:%d [%s]\n%s", w.file, w.line, w.rule, out)
		}
	}
}

// TestAllowlistFiltering checks entry matching: rule, glob, substring,
// and wildcard forms.
func TestAllowlistFiltering(t *testing.T) {
	a, err := ParseAllowlist([]byte(`
# comment
panic internal/engine/bitset.go
float-eq internal/cube/*.go
determinism internal/core/build.go time.Now
* internal/experiments/table1.go
`))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		d     Diagnostic
		allow bool
	}{
		{Diagnostic{Rule: "panic", File: "internal/engine/bitset.go"}, true},
		{Diagnostic{Rule: "panic", File: "internal/engine/table.go"}, false},
		{Diagnostic{Rule: "float-eq", File: "internal/cube/exact.go"}, true},
		{Diagnostic{Rule: "float-eq", File: "internal/cube/sub/exact.go"}, false},
		{Diagnostic{Rule: "determinism", File: "internal/core/build.go", Message: "calls time.Now"}, true},
		{Diagnostic{Rule: "determinism", File: "internal/core/build.go", Message: "ranges over a map"}, false},
		{Diagnostic{Rule: "ctx-first", File: "internal/experiments/table1.go"}, true},
	}
	for _, c := range cases {
		if got := a.Allows(c.d); got != c.allow {
			t.Errorf("Allows(%+v) = %v, want %v", c.d, got, c.allow)
		}
	}
}

// TestAllowlistStaleness checks used-entry tracking and the scoping: an
// unused entry is stale when its pattern matched files that were
// actually linted, or matches no file under the module root at all.
func TestAllowlistStaleness(t *testing.T) {
	root, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load("testdata", []string{"./lockbalance"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := ParseAllowlist([]byte(`
# live: suppresses the seeded lock-balance findings
lock-balance lockbalance/lockbalance.go
# stale: matches a loaded file but no diagnostic
determinism lockbalance/lockbalance.go
# out of scope: the file exists but was not loaded in this run
panic panicrule/panicrule.go
# stale: the file is gone, whatever was loaded
panic panicrule/gone.go
`))
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, Rules(), a)
	for _, d := range diags {
		if d.Rule == "lock-balance" {
			t.Errorf("allowlisted diagnostic survived: %s", d)
		}
	}
	stale := a.Stale(root, pkgs)
	if len(stale) != 2 {
		t.Fatalf("Stale() = %q, want exactly the determinism and gone.go entries", stale)
	}
	if !strings.Contains(stale[0], "determinism lockbalance/lockbalance.go") {
		t.Errorf("stale report %q does not name the dead entry", stale[0])
	}
	if !strings.Contains(stale[0], "line 5:") {
		t.Errorf("stale report %q does not carry the source line", stale[0])
	}
	if !strings.Contains(stale[1], "line 9:") || !strings.Contains(stale[1], "panic panicrule/gone.go") {
		t.Errorf("stale report %q does not name the entry for the deleted file", stale[1])
	}
}

func TestParseAllowlistErrors(t *testing.T) {
	if _, err := ParseAllowlist([]byte("panic")); err == nil {
		t.Error("one-field line accepted")
	}
	if _, err := ParseAllowlist([]byte("panic [bad")); err == nil {
		t.Error("malformed glob accepted")
	}
	_, err := ParseAllowlist([]byte("# header\npanic a.go\nno-such-rule internal/engine/gone.go\n* b.go"))
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "no-such-rule") {
		t.Errorf("unknown rule: err = %v, want one naming line 3 and the rule", err)
	}
	// A deleted rule is an unknown rule: its entries cannot linger.
	if _, err := ParseAllowlist([]byte("ctx-propagation internal/engine/io.go")); err == nil {
		t.Error("entry for the deleted ctx-propagation rule accepted")
	}
}

// TestRepoIsLintClean runs the full default rule set over the real
// repository under its checked-in allowlist — the same gate
// scripts/check.sh enforces — so a rule regression or a new violation
// fails here first.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole repo; skipped in -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	allow, err := LoadAllowlist(filepath.Join(root, "lint.allow"))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs, Rules(), allow) {
		t.Errorf("repo not lint-clean: %s", d)
	}
	for _, s := range allow.Stale(root, pkgs) {
		t.Errorf("stale lint.allow entry: %s", s)
	}
}

func ExampleDiagnostic_String() {
	fmt.Println(Diagnostic{Rule: "panic", File: "internal/engine/table.go", Line: 32, Col: 3, Message: "panic in library package"})
	// Output: internal/engine/table.go:32:3: [panic] panic in library package
}
