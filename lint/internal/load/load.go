// Package load type-checks Go packages for qclint without importing
// golang.org/x/tools. Two modes share one gc-export-data importer:
//
//   - LoadModule shells out to `go list -test -deps -export -json` and
//     type-checks every in-module package from source (including its
//     in-package and external test files), resolving imports through
//     the export data the go command just compiled. This is the same
//     data the compiler itself consumes, so the checker sees exactly
//     the types the build does.
//   - LoadFixture type-checks analysistest fixture packages under a
//     testdata/src root, resolving fixture-local imports recursively
//     from source and everything else (stdlib) through lazily-fetched
//     export data.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"qcsim/lint/internal/analysis"
)

// Package is one type-checked package ready to analyze.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Target adapts the package for analysis.Run.
func (p *Package) Target() *analysis.Target {
	return &analysis.Target{
		Fset:      p.Fset,
		Files:     p.Syntax,
		PkgPath:   p.PkgPath,
		Pkg:       p.Types,
		TypesInfo: p.TypesInfo,
	}
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath   string
	Dir          string
	Export       string
	Standard     bool
	DepOnly      bool
	ForTest      string
	GoFiles      []string
	CgoFiles     []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// LoadModule loads and type-checks the module packages matching
// patterns, rooted at dir. Each in-module package yields one Package
// holding its GoFiles plus in-package test files; a package with
// external (package foo_test) test files yields a second Package whose
// PkgPath carries a "_test" suffix.
func LoadModule(dir string, patterns []string) ([]*Package, error) {
	modPath, err := goOutput(dir, "list", "-m")
	if err != nil {
		return nil, fmt.Errorf("resolving module path: %w", err)
	}
	modPath = strings.TrimSpace(modPath)

	args := []string{"list", "-test", "-deps", "-export",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,ForTest,GoFiles,CgoFiles,TestGoFiles,XTestGoFiles"}
	args = append(args, patterns...)
	out, err := goOutput(dir, args...)
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}

	exports := make(map[string]string)
	// variants[T] maps an import path to the export data of the package
	// as recompiled for T's tests ("P [T.test]"): T itself with its
	// in-package test files, and every dependency that imports T.
	variants := make(map[string]map[string]string)
	var targets []listPkg
	dec := json.NewDecoder(strings.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		plain := p.ForTest == "" && !strings.Contains(p.ImportPath, " ") &&
			!strings.HasSuffix(p.ImportPath, ".test")
		if plain && p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if path, _, ok := strings.Cut(p.ImportPath, " ["); ok && p.ForTest != "" && p.Export != "" {
			if variants[p.ForTest] == nil {
				variants[p.ForTest] = make(map[string]string)
			}
			variants[p.ForTest][path] = p.Export
		}
		inModule := p.ImportPath == modPath || strings.HasPrefix(p.ImportPath, modPath+"/")
		if plain && !p.DepOnly && !p.Standard && inModule {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	fset := token.NewFileSet()
	exp := &exportImporter{fset: fset, files: exports, packages: make(map[string]*types.Package)}

	var pkgs []*Package
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported", t.ImportPath)
		}
		inPkg, err := checkFiles(fset, t.Dir, append(append([]string{}, t.GoFiles...), t.TestGoFiles...),
			t.ImportPath, exp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, inPkg)
		if len(t.XTestGoFiles) > 0 {
			// The external test package compiles as the go command
			// compiles it: against the test variants, so identifiers
			// declared in export_test.go style files resolve, and a
			// dependency that imports the package under test (a codec
			// the test hands to it) sees the same instance of it.
			files := maps.Clone(exports)
			maps.Copy(files, variants[t.ImportPath])
			ximp := &exportImporter{fset: fset, files: files, packages: make(map[string]*types.Package)}
			xPkg, err := checkFiles(fset, t.Dir, t.XTestGoFiles, t.ImportPath+"_test", ximp)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, xPkg)
		}
	}
	return pkgs, nil
}

// checkFiles parses and type-checks one package's files.
func checkFiles(fset *token.FileSet, dir string, names []string, pkgPath string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pkgPath, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", pkgPath, err)
	}
	return &Package{PkgPath: pkgPath, Fset: fset, Syntax: files, Types: tpkg, TypesInfo: info}, nil
}

// exportImporter resolves import paths through compiled export data
// (the files `go list -export` reports), caching loaded packages. The
// underlying gc importer is built once so its internal package cache
// deduplicates shared dependencies across Import calls.
type exportImporter struct {
	fset     *token.FileSet
	mu       sync.Mutex
	files    map[string]string // import path -> export data file
	packages map[string]*types.Package
	gc       types.Importer
	// fetch, when set, resolves paths missing from files (fixture
	// mode pulls stdlib export data lazily).
	fetch func(path string) (string, error)
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil // the compiler's own package: no export data exists
	}
	e.mu.Lock()
	if p, ok := e.packages[path]; ok {
		e.mu.Unlock()
		return p, nil
	}
	file, ok := e.files[path]
	if !ok && e.fetch != nil {
		e.mu.Unlock()
		f, err := e.fetch(path)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.files[path], file, ok = f, f, true
	}
	if e.gc == nil {
		e.gc = importer.ForCompiler(e.fset, "gc", e.lookup)
	}
	gc := e.gc
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	pkg, err := gc.Import(path)
	if err != nil {
		return nil, fmt.Errorf("reading export data for %q (%s): %w", path, file, err)
	}
	e.mu.Lock()
	e.packages[path] = pkg
	e.mu.Unlock()
	return pkg, nil
}

func (e *exportImporter) lookup(path string) (io.ReadCloser, error) {
	e.mu.Lock()
	f, ok := e.files[path]
	e.mu.Unlock()
	if !ok && e.fetch != nil {
		ff, err := e.fetch(path)
		if err != nil {
			return nil, err
		}
		e.mu.Lock()
		e.files[path] = ff
		e.mu.Unlock()
		f, ok = ff, true
	}
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(f)
}

// goOutput runs the go command in dir and returns stdout.
func goOutput(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}
