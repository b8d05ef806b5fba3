package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// facadeExports is the package's whole exported surface, sorted. The
// groups and the reason each identifier is exported are in DESIGN.md's
// "Facade" section; a new export must be added here and there, so it
// shows up as a reviewed diff.
var facadeExports = []string{
	"BuildSchedule",
	"Builder",
	"CentralizedBound",
	"ConnectedGnpDegree",
	"Counters",
	"DistributedBound",
	"Eccentricity",
	"Engine",
	"ErrCanceled",
	"ErrConflictingOptions",
	"ErrNoSuchSource",
	"ErrScheduleMismatch",
	"FrontierProfile",
	"GnpDegree",
	"Graph",
	"JSONLWriter",
	"MaxRounds",
	"NewBuilder",
	"NewEngine",
	"NewJSONLWriter",
	"NewProtocol",
	"NewRand",
	"Observer",
	"Option",
	"Protocol",
	"Rand",
	"Recorder",
	"Result",
	"RoundRecord",
	"Run",
	"RunBatch",
	"RunContext",
	"RunInfo",
	"RunSummary",
	"Schedule",
	"WithContext",
	"WithDegree",
	"WithEngine",
	"WithMaxRounds",
	"WithObserver",
	"WithProtocol",
	"WithRand",
	"WithSchedule",
	"WithSeed",
	"WithSources",
}

// TestFacadeExports parses the package's non-test files and requires
// their package-level exported identifiers (functions, types, variables
// and constants) to be exactly facadeExports.
func TestFacadeExports(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkgs["repro"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					got = append(got, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							got = append(got, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								got = append(got, n.Name)
							}
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	if !slices.IsSorted(facadeExports) {
		t.Fatal("facadeExports is not sorted")
	}
	if !slices.Equal(got, facadeExports) {
		for _, id := range got {
			if !slices.Contains(facadeExports, id) {
				t.Errorf("new export %s: add it to facadeExports and DESIGN.md's facade section, or unexport it", id)
			}
		}
		for _, id := range facadeExports {
			if !slices.Contains(got, id) {
				t.Errorf("export %s is gone: remove it from facadeExports and DESIGN.md", id)
			}
		}
		t.Fatalf("the package exports %d identifiers, facadeExports lists %d", len(got), len(facadeExports))
	}
}
