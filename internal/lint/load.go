package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Load expands the patterns (a directory, or a directory followed by
// "/..." for its whole subtree, relative to dir or absolute) and returns
// the parsed, type-checked packages. Each package is resolved against
// the nearest enclosing go.mod, so the analyzer's own testdata modules
// load the same way the repo module does. Test files and directories
// named "testdata" below a pattern root are skipped, matching the go
// tool's conventions.
func Load(dir string, patterns []string) ([]*Package, error) {
	l := &loader{
		fset:   token.NewFileSet(),
		pkgs:   make(map[string]*Package),
		mods:   make(map[string]string),
		parsed: make(map[string][]*ast.File),
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)

	var roots []string
	for _, pat := range patterns {
		recursive := false
		p := pat
		if strings.HasSuffix(p, "/...") || p == "..." {
			recursive = true
			p = strings.TrimSuffix(p, "...")
			p = strings.TrimSuffix(p, "/")
			if p == "" {
				p = "."
			}
		}
		if !filepath.IsAbs(p) {
			p = filepath.Join(dir, p)
		}
		abs, err := filepath.Abs(p)
		if err != nil {
			return nil, err
		}
		if st, err := os.Stat(abs); err != nil || !st.IsDir() {
			return nil, fmt.Errorf("lint: pattern %q: not a directory", pat)
		}
		if recursive {
			if err := filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				roots = append(roots, path)
				return nil
			}); err != nil {
				return nil, err
			}
		} else {
			roots = append(roots, abs)
		}
	}

	// Parsing dominates load time and is embarrassingly parallel
	// (token.FileSet is safe for concurrent AddFile), so fan it out one
	// goroutine per root directory up front. Type-checking stays serial
	// below: the importer recursion shares loader state, and serial
	// checking in sorted root order keeps diagnostics deterministic.
	var goRoots []string
	for _, root := range roots {
		if hasGoFiles(root) {
			goRoots = append(goRoots, root)
		}
	}
	sort.Strings(goRoots)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make(map[string]error)
		sem  = make(chan struct{}, runtime.GOMAXPROCS(0))
	)
	for _, root := range goRoots {
		wg.Add(1)
		go func(dir string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			files, err := l.parseDir(dir)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs[dir] = err
				return
			}
			l.parsed[dir] = files
		}(root)
	}
	wg.Wait()
	for _, root := range goRoots { // first error in sorted order, deterministically
		if err := errs[root]; err != nil {
			return nil, err
		}
	}

	var out []*Package
	for _, root := range goRoots {
		pkg, err := l.load(root)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// loader parses and type-checks packages on demand. It doubles as the
// types.Importer: imports inside a loaded module resolve to local
// directories; everything else (the stdlib) goes through the source
// importer.
type loader struct {
	fset *token.FileSet
	std  types.Importer
	// pkgs memoizes loaded packages by absolute directory.
	pkgs map[string]*Package
	// mods maps a module path to its absolute root directory, for every
	// module seen so far.
	mods map[string]string
	// parsed holds pre-parsed files by absolute directory, filled
	// concurrently by Load before any type-checking starts. Dirs reached
	// only through imports are parsed lazily in load instead.
	parsed map[string][]*ast.File
	// loading guards against import cycles.
	loading []string
}

// parseDir parses the non-test Go files in dir, in directory order.
// Build constraints (//go:build lines and _GOOS/_GOARCH suffixes) are
// evaluated for the host platform, so a package split across platform
// files (e.g. benchmark's pin_linux.go / pin_other.go) type-checks with
// exactly one side, the same view `go build` takes.
func (l *loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err != nil || !match {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// load returns the type-checked package in dir (nil if dir holds no
// non-test Go files).
func (l *loader) load(dir string) (*Package, error) {
	if pkg, ok := l.pkgs[dir]; ok {
		return pkg, nil
	}
	for _, d := range l.loading {
		if d == dir {
			return nil, fmt.Errorf("lint: import cycle through %s", dir)
		}
	}
	modDir, modPath, err := l.moduleFor(dir)
	if err != nil {
		return nil, err
	}
	importPath := modPath
	if rel, err := filepath.Rel(modDir, dir); err == nil && rel != "." {
		importPath = modPath + "/" + filepath.ToSlash(rel)
	}

	files, ok := l.parsed[dir]
	if !ok {
		files, err = l.parseDir(dir)
		if err != nil {
			return nil, err
		}
		l.parsed[dir] = files
	}
	if len(files) == 0 {
		l.pkgs[dir] = nil
		return nil, nil
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	l.loading = append(l.loading, dir)
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	l.loading = l.loading[:len(l.loading)-1]
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", importPath, err)
	}
	pkg := &Package{
		Path:   importPath,
		Dir:    dir,
		ModDir: modDir,
		Fset:   l.fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
	}
	l.pkgs[dir] = pkg
	return pkg, nil
}

// Import implements types.Importer: module-local paths load from source
// here, everything else defers to the stdlib source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	for modPath, modDir := range l.mods {
		if path == modPath || strings.HasPrefix(path, modPath+"/") {
			dir := filepath.Join(modDir, filepath.FromSlash(strings.TrimPrefix(path, modPath)))
			pkg, err := l.load(dir)
			if err != nil {
				return nil, err
			}
			if pkg == nil {
				return nil, fmt.Errorf("lint: no Go files in %s", dir)
			}
			return pkg.Types, nil
		}
	}
	return l.std.Import(path)
}

// moduleFor finds the nearest enclosing go.mod and returns its directory
// and module path, registering it for import resolution.
func (l *loader) moduleFor(dir string) (modDir, modPath string, err error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			path, perr := parseModulePath(data)
			if perr != nil {
				return "", "", fmt.Errorf("lint: %s/go.mod: %w", d, perr)
			}
			l.mods[path] = d
			return d, path, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// parseModulePath extracts the module path from go.mod contents.
func parseModulePath(data []byte) (string, error) {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			rest = strings.Trim(rest, `"`)
			if rest != "" {
				return rest, nil
			}
		}
	}
	return "", fmt.Errorf("no module directive")
}

// hasGoFiles reports whether dir directly contains a non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
