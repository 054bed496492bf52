// Package detrand protects bit-identical reproducibility in the
// engine packages. Every random draw in the engine must come from a
// *rand.Rand derived from Config.Seed; the process-global math/rand
// source (or a source seeded from the wall clock) makes runs
// non-reproducible, which breaks checkpoint round-trips, the variant
// batch lockstep contract, and the harness tests' pinned counters.
//
// Two rules, both scoped to the engine prefixes and skipping _test
// files (tests may use throwaway randomness):
//
//  1. no calls to the global top-level draw/seed functions of
//     math/rand or math/rand/v2 (rand.Intn, rand.Float64, rand.Seed,
//     rand.N, ...), and
//  2. no time.Now flowing into a rand source: as an argument (however
//     nested) of rand.New/rand.NewSource/rand.NewPCG/rand.NewChaCha8,
//     or assigned to a variable whose name contains "seed".
package detrand

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"qcsim/lint/internal/analysis"
)

// enginePkgs are the package prefixes where determinism is
// load-bearing.
var enginePkgs = []string{
	"qcsim/internal/core",
	"qcsim/internal/quantum",
	"qcsim/internal/mps",
	"qcsim/internal/blockstore",
	"qcsim/internal/compress",
}

// globalDraw lists the top-level math/rand (v1 and v2) functions that
// read or mutate the shared process-global source.
var globalDraw = map[string]bool{
	// v1 and v2
	"Int": true, "Int32": true, "Int64": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true,
	// v1 only
	"Seed": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint": true, "Read": true,
	// v2 only
	"N": true, "IntN": true, "Int32N": true, "Int64N": true,
	"UintN": true, "Uint32N": true, "Uint64N": true, "UintptrN": true, "Uintptr": true,
}

// sourceCtor lists the constructors whose arguments become a random
// source's seed material.
var sourceCtor = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewChaCha8": true,
}

var Analyzer = &analysis.Analyzer{
	Name: "detrand",
	Doc: "engine packages (internal/{core,quantum,mps,blockstore,compress}) must draw randomness " +
		"only from a Config.Seed-derived *rand.Rand: no global math/rand calls, no seeding from time.Now",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !inEngine(analysis.BasePkgPath(pass.PkgPath)) {
		return nil
	}
	// rand.New(rand.NewSource(time.Now()...)) nests one constructor in
	// another; dedupe so the inner time.Now is reported once.
	reported := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				pkg, name := pkgFunc(pass, n)
				switch {
				case isRandPkg(pkg) && globalDraw[name]:
					pass.Reportf(n.Pos(),
						"global %s.%s draws from the shared process source, which breaks bit-identity; use a Config.Seed-derived *rand.Rand",
						pkgBase(pkg), name)
				case isRandPkg(pkg) && sourceCtor[name]:
					for _, arg := range n.Args {
						reportTimeNow(pass, reported, arg)
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) || !seedName(n.Lhs[i]) {
						continue
					}
					reportTimeNow(pass, reported, rhs)
				}
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if i >= len(n.Names) || !strings.Contains(strings.ToLower(n.Names[i].Name), "seed") {
						continue
					}
					reportTimeNow(pass, reported, v)
				}
			}
			return true
		})
	}
	return nil
}

// reportTimeNow reports every time.Now call nested anywhere in e,
// once per call site.
func reportTimeNow(pass *analysis.Pass, reported map[token.Pos]bool, e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkg, name := pkgFunc(pass, call); pkg == "time" && name == "Now" && !reported[call.Pos()] {
			reported[call.Pos()] = true
			pass.Reportf(call.Pos(),
				"seeding from time.Now breaks run-to-run determinism; derive seeds from Config.Seed")
		}
		return true
	})
}

// pkgFunc resolves a call to its package path and function name, for
// package-level functions only.
func pkgFunc(pass *analysis.Pass, call *ast.CallExpr) (pkg, name string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil {
		return "", ""
	}
	if sig, ok := obj.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return "", ""
	}
	return obj.Pkg().Path(), obj.Name()
}

func isRandPkg(path string) bool {
	return path == "math/rand" || path == "math/rand/v2"
}

func pkgBase(path string) string {
	if path == "math/rand/v2" {
		return "rand/v2"
	}
	return "rand"
}

func seedName(lhs ast.Expr) bool {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(lhs.Name), "seed")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(lhs.Sel.Name), "seed")
	}
	return false
}

func inEngine(pkg string) bool {
	for _, p := range enginePkgs {
		if analysis.HasPathPrefix(pkg, p) {
			return true
		}
	}
	return false
}
