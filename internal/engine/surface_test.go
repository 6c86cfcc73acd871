package engine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestEngineSurface pins the engine's scan and load entry points: each
// operation exists once and takes its context.Context first, so a
// caller cannot drop a ctx it holds without typing context.Background()
// — the job the ctx-propagation lint rule had while X/XContext pairs
// existed. The two ...Context names are one-line deprecated forwards
// the frozen benchmark/ module calls; they go with a benchmark PR.
func TestEngineSurface(t *testing.T) {
	want := []string{
		"(*Table).Execute", "(*Table).ExecutePartial",
		"ReadCSV",
		"(*Table).ExecuteContext", "(*Table).ExecutePartialContext",
	}
	sort.Strings(want)

	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	method := regexp.MustCompile(`^Execute`)
	function := regexp.MustCompile(`^ReadCSV`)
	var got []string
	for _, f := range pkgs["engine"].Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			name := fd.Name.Name
			switch {
			case fd.Recv == nil && function.MatchString(name):
			case fd.Recv != nil && method.MatchString(name) && isStarTable(fd.Recv.List[0].Type):
				name = "(*Table)." + name
			default:
				continue
			}
			got = append(got, name)
			params := fd.Type.Params.List
			if len(params) == 0 || !isContextContext(params[0].Type) {
				t.Errorf("%s does not take a context.Context first", name)
			}
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("engine scan/load entry points\n  %v\nwant\n  %v", got, want)
	}
}

func isStarTable(e ast.Expr) bool {
	star, ok := e.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "Table"
}

func isContextContext(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context"
}
