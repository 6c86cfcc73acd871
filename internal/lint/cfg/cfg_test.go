package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkInvariants asserts the structural properties every graph must
// satisfy: entry at index 0, indices match positions, succ/pred edge
// lists mirror each other, and Exit and Panic have no successors.
func checkInvariants(t *testing.T, g *Graph, label string) {
	t.Helper()
	if len(g.Blocks) == 0 {
		t.Fatalf("%s: graph has no blocks", label)
	}
	if g.Exit == nil {
		t.Fatalf("%s: graph has no exit block", label)
	}
	for i, b := range g.Blocks {
		if b.Index != i {
			t.Fatalf("%s: block %d has Index %d", label, i, b.Index)
		}
		for _, n := range b.Nodes {
			if n == nil {
				t.Fatalf("%s: b%d holds a nil node", label, i)
			}
		}
		for _, s := range b.Succs {
			if !containsBlock(s.Preds, b) {
				t.Fatalf("%s: edge b%d->b%d missing from preds", label, b.Index, s.Index)
			}
		}
		for _, p := range b.Preds {
			if !containsBlock(p.Succs, b) {
				t.Fatalf("%s: pred edge b%d<-b%d missing from succs", label, b.Index, p.Index)
			}
		}
	}
	if len(g.Exit.Succs) != 0 {
		t.Fatalf("%s: exit block has successors", label)
	}
	if g.Panic != nil && len(g.Panic.Succs) != 0 {
		t.Fatalf("%s: panic block has successors", label)
	}
}

func containsBlock(list []*Block, b *Block) bool {
	for _, x := range list {
		if x == b {
			return true
		}
	}
	return false
}

// buildAll parses src and builds a CFG for every function declaration
// and function literal, running the invariant checks on each.
func buildAll(t *testing.T, src, label string) []*Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, label+".go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("%s: parse: %v", label, err)
	}
	return buildAllFromFile(t, f, label)
}

func buildAllFromFile(t *testing.T, f *ast.File, label string) []*Graph {
	t.Helper()
	var graphs []*Graph
	i := 0
	ast.Inspect(f, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.FuncDecl:
			body = n.Body
		case *ast.FuncLit:
			body = n.Body
		default:
			return true
		}
		g := New(body)
		checkInvariants(t, g, label+"#"+string(rune('0'+i%10)))
		graphs = append(graphs, g)
		i++
		return true
	})
	return graphs
}

// pathological holds the table-driven shapes the issue calls out:
// labeled breaks, gotos, select, deferred closures — plus the other
// corners that have historically broken CFG builders.
var pathological = []struct {
	name string
	src  string
}{
	{"labeled_break_continue", `package p
func f(xs [][]int) int {
	total := 0
outer:
	for i := range xs {
		for j := range xs[i] {
			if xs[i][j] < 0 {
				break outer
			}
			if xs[i][j] == 0 {
				continue outer
			}
			total += xs[i][j]
			_ = j
		}
	}
	return total
}`},
	{"goto_forward_backward", `package p
func f(n int) int {
	i := 0
loop:
	if i < n {
		i++
		if i == 7 {
			goto done
		}
		goto loop
	}
done:
	return i
}`},
	{"goto_into_dead_code", `package p
func f() int {
	goto skip
	println("dead")
skip:
	return 1
}`},
	{"select_all_forms", `package p
func f(a, b chan int, done chan struct{}) int {
	for {
		select {
		case v := <-a:
			return v
		case b <- 1:
		case <-done:
			break
		default:
			return 0
		}
	}
}`},
	{"select_empty", `package p
func f() {
	select {}
}`},
	{"labeled_select_break", `package p
func f(c chan int) {
sel:
	select {
	case <-c:
		break sel
	}
}`},
	{"deferred_closures", `package p
import "sync"
func f(mu *sync.Mutex, xs []int) (n int) {
	mu.Lock()
	defer func() {
		mu.Unlock()
		n++
	}()
	for _, x := range xs {
		defer func(v int) { n += v }(x)
	}
	return
}`},
	{"switch_fallthrough_chain", `package p
func f(x int) int {
	switch x {
	case 0:
		fallthrough
	case 1:
		x++
		fallthrough
	case 2:
		x++
	default:
		x--
	}
	return x
}`},
	{"typeswitch_no_default", `package p
func f(v any) int {
	switch v := v.(type) {
	case int:
		return v
	case string:
		return len(v)
	}
	return 0
}`},
	{"infinite_loop_no_exit", `package p
func f(c chan int) {
	for {
		<-c
	}
}`},
	{"panic_paths", `package p
func f(x int) int {
	if x < 0 {
		panic("negative")
	}
	defer println("bye")
	if x == 0 {
		panic(x)
	}
	return x
}`},
	{"dead_after_return", `package p
func f() int {
	return 1
	println("never")
	return 2
}`},
	{"range_over_func_body_breaks", `package p
func f(m map[string]int) int {
	total := 0
	for k, v := range m {
		if k == "stop" {
			break
		}
		if v == 0 {
			continue
		}
		total += v
	}
	return total
}`},
	{"nested_labeled_switch_in_loop", `package p
func f(xs []int) int {
	n := 0
loop:
	for _, x := range xs {
	sw:
		switch {
		case x < 0:
			break loop
		case x == 0:
			break sw
		default:
			n += x
		}
		n++
	}
	return n
}`},
	{"for_with_post_and_continue", `package p
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			continue
		}
		s += i
	}
	return s
}`},
	{"goroutine_and_send", `package p
func f(c chan int) {
	go func() {
		c <- 1
	}()
	c <- 2
}`},
	{"empty_body", `package p
func f() {}`},
	{"labeled_plain_statement", `package p
func f(x int) int {
here:
	x++
	if x < 10 {
		goto here
	}
	return x
}`},
}

func TestPathologicalShapes(t *testing.T) {
	for _, tc := range pathological {
		t.Run(tc.name, func(t *testing.T) {
			graphs := buildAll(t, tc.src, tc.name)
			if len(graphs) == 0 {
				t.Fatal("no functions built")
			}
		})
	}
}

// TestEdgesPinned pins the macro shape of a few graphs: the number of
// predecessors of Exit (return sites + implicit fall-off) and whether
// a Panic block exists, so edge-wiring regressions surface as diffs
// rather than only as rule misbehavior.
func TestEdgesPinned(t *testing.T) {
	cases := []struct {
		name      string
		src       string
		wantPanic bool
	}{
		{"panic_paths", `package p
func f(x int) int {
	if x < 0 {
		panic("no")
	}
	return x
}`, true},
		{"plain", `package p
func f() { println() }`, false},
	}
	for _, tc := range cases {
		graphs := buildAll(t, tc.src, tc.name)
		g := graphs[0]
		if (g.Panic != nil) != tc.wantPanic {
			t.Errorf("%s: panic block present=%v, want %v", tc.name, g.Panic != nil, tc.wantPanic)
		}
		if len(g.Exit.Preds) == 0 {
			t.Errorf("%s: exit has no predecessors", tc.name)
		}
	}
}

// TestDataflowReachingCount exercises the Forward framework with a
// trivial may-analysis (count of nodes seen on the longest-converged
// path is not meaningful; instead we track "a call to mark() has been
// seen on some path") over a diamond, checking merge behavior.
func TestDataflowReachingCount(t *testing.T) {
	src := `package p
func f(c bool) {
	if c {
		mark()
	}
	sink()
}
func mark() {}
func sink() {}`
	g := buildAll(t, src, "dataflow")[0]
	fwd := &Forward[bool]{
		Entry: false,
		Merge: func(a, b bool) bool { return a || b },
		Equal: func(a, b bool) bool { return a == b },
		TransferNode: func(n ast.Node, in bool) bool {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
						return true
					}
				}
			}
			return in
		},
	}
	res := fwd.Run(g)
	if !res.Has[g.Exit.Index] {
		t.Fatal("exit not reached by dataflow")
	}
	if !res.In[g.Exit.Index] {
		t.Error("may-analysis lost the mark() fact at exit")
	}
	if res.In[0] {
		t.Error("entry fact corrupted")
	}
}

// TestMustAnalysisIntersection checks that an intersection merge only
// keeps facts true on every path.
func TestMustAnalysisIntersection(t *testing.T) {
	src := `package p
func f(c bool) {
	if c {
		mark()
	} else {
		other()
	}
	sink()
}
func mark() {}
func other() {}
func sink() {}`
	g := buildAll(t, src, "must")[0]
	fwd := &Forward[bool]{
		Entry: false,
		Merge: func(a, b bool) bool { return a && b },
		Equal: func(a, b bool) bool { return a == b },
		TransferNode: func(n ast.Node, in bool) bool {
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := es.X.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
						return true
					}
				}
			}
			return in
		},
	}
	res := fwd.Run(g)
	if res.In[g.Exit.Index] {
		t.Error("must-analysis kept a fact true on only one path")
	}
}

// TestRepoWideCFG builds a CFG for every function in the repository's
// own source tree (tests included) — the property test the issue asks
// for: no panics, and every block reachable-or-reported.
func TestRepoWideCFG(t *testing.T) {
	root, err := filepath.Abs("../../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found at %s", root)
	}
	fset := token.NewFileSet()
	files := 0
	funcs := 0
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" {
				// The lint testdata module is still valid Go; include
				// it — seeded rule violations must not break the CFG.
				if name != "testdata" {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if perr != nil {
			return nil // generated or intentionally broken files are not CFG's problem
		}
		files++
		rel, _ := filepath.Rel(root, path)
		funcs += len(buildAllFromFile(t, f, rel))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 || funcs < 200 {
		t.Fatalf("repo-wide sweep looks wrong: %d files, %d functions", files, funcs)
	}
	t.Logf("built CFGs for %d functions across %d files", funcs, files)
}

// FuzzCFG feeds arbitrary source through the builder: anything the
// parser accepts must produce a well-formed graph without panicking.
func FuzzCFG(f *testing.F) {
	for _, tc := range pathological {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("builder panicked: %v\nsource:\n%s", r, src)
			}
		}()
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			g := New(body)
			// Structural sanity without *testing.T plumbing: edges
			// symmetric.
			for _, b := range g.Blocks {
				for _, s := range b.Succs {
					if !containsBlock(s.Preds, b) {
						t.Fatalf("asymmetric edge b%d->b%d", b.Index, s.Index)
					}
				}
			}
			return true
		})
	})
}
