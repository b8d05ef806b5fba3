package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// unreferencedAllowed lists the exported top-level identifiers of
// internal/ that no non-test file outside bench/ references, each with
// the reason it stays. A new entry is a reviewed diff, like facadeExports.
var unreferencedAllowed = map[string]string{
	"internal/gen.Path":                    "test fixture: other packages' tests build known graphs with it",
	"internal/gen.Cycle":                   "test fixture: other packages' tests build known graphs with it",
	"internal/gen.Star":                    "test fixture: other packages' tests build known graphs with it",
	"internal/gen.Complete":                "test fixture: other packages' tests build known graphs with it",
	"internal/graph.Diameter":              "test fixture: other packages' tests check distances with it",
	"internal/stats.ChiSquareLooksUniform": "test fixture: other packages' tests check samplers with it",
	"internal/stats.BootstrapCI":           "reserved for the benchmark ledger's marginal intervals (ROADMAP items 1 and 11)",
	"internal/stats.FitPowerLaw":           "reserved for the scorecard's fitted growth checks (ROADMAP item 2)",
	"internal/lanes.RunBlocks":             "the lane benchmark in bench/ times it",
	"internal/oracle.New":                  "the oracle is test support by design",
	"internal/oracle.Compare":              "the oracle is test support by design",
	"internal/oracle.CompareRecords":       "the oracle is test support by design",
}

// TestNoUnreferencedExports parses every non-test .go file outside bench/
// and requires each exported top-level identifier (function, type,
// variable or constant) declared under internal/ to be referenced by one
// of them — from another package as pkg.Name, or from its own package by
// name — unless unreferencedAllowed names it. Methods are not checked.
func TestNoUnreferencedExports(t *testing.T) {
	const module = "repro/"
	fset := token.NewFileSet()
	declared := map[string]bool{} // "internal/gen.Path"
	used := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (p == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(p))
		scanFile(f, dir, module, declared, used)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	for id := range declared {
		if !used[id] {
			dead = append(dead, id)
		}
	}
	slices.Sort(dead)
	for _, id := range dead {
		if _, ok := unreferencedAllowed[id]; !ok {
			t.Errorf("%s is exported but no non-test file outside bench/ references it: delete it, unexport it, or allowlist it with a reason", id)
		}
	}
	for id := range unreferencedAllowed {
		if !declared[id] {
			t.Errorf("allowlisted %s is no longer declared: remove it from unreferencedAllowed", id)
		} else if used[id] {
			t.Errorf("allowlisted %s now has a caller: remove it from unreferencedAllowed", id)
		}
	}
}

// scanFile records the exported top-level declarations of f (when dir is
// under internal/) in declared, and every identifier f references in
// used: pkg.Name through an import, and bare names against f's own
// package. Declaring names, field and method selectors are not
// references; anything else with the name (a composite-literal key, a
// shadowing local) counts, so the scan can miss a dead export but never
// flags a live one.
func scanFile(f *ast.File, dir, module string, declared, used map[string]bool) {
	imports := map[string]string{} // local name -> module-relative dir
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		rel, ok := strings.CutPrefix(p, module)
		if !ok {
			continue
		}
		name := path.Base(rel)
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = rel
	}
	declNames := map[*ast.Ident]bool{}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			declNames[d.Name] = true
			if d.Recv == nil {
				declare(declared, dir, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declNames[s.Name] = true
					declare(declared, dir, s.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declNames[n] = true
						declare(declared, dir, n)
					}
				}
			}
		}
	}
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if pkg, ok := x.X.(*ast.Ident); ok {
				if rel, ok := imports[pkg.Name]; ok {
					used[rel+"."+x.Sel.Name] = true
					return false
				}
			}
			ast.Inspect(x.X, visit) // x.Sel names a field or method
			return false
		case *ast.Field: // struct fields, parameters, interface methods
			for _, n := range x.Names {
				declNames[n] = true
			}
		case *ast.Ident:
			if !declNames[x] && x.IsExported() {
				used[dir+"."+x.Name] = true
			}
		}
		return true
	}
	ast.Inspect(f, visit)
}

func declare(declared map[string]bool, dir string, id *ast.Ident) {
	if id.IsExported() && strings.HasPrefix(dir, "internal/") {
		declared[dir+"."+id.Name] = true
	}
}
