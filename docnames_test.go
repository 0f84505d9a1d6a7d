package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents whose code names TestDocNamesResolve checks.
var docFiles = []string{"DESIGN.md", "README.md"}

// docName is a pkg.Name or pkg.Name.Member reference inside a backticked
// span, not preceded by a letter, digit, '_' or '.' (so the x of `a.x.Y` and
// the y of `f(y).Z` do not start one). A name followed by '*' is a glob.
var docName = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Z][A-Za-z0-9_]*))?(\*?)`)

// TestDocNamesResolve keeps the documents' code names true: every
// backticked `pkg.Name` in DESIGN.md and README.md whose pkg is a package
// of the module must name a declaration — a function, method, type,
// variable or constant — in that package's non-test files, and
// `pkg.Type.Member` a method or field declared on that type. Lowercase
// names, such as the benchmark's probe names (`core.parsat_s`), and globs
// (`bench.Fig*`) are not declarations and are skipped; so is a pkg that is
// no package of the module (`strings.Fields`, or a variable such as
// `g.Frozen()`).
func TestDocNamesResolve(t *testing.T) {
	pkgs := moduleDecls(t)
	for _, doc := range docFiles {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Backticked spans, split out of the whole text: a span may wrap.
		spans := strings.Split(string(text), "`")
		for i := 1; i < len(spans); i += 2 {
			for _, m := range docName.FindAllStringSubmatch(spans[i], -1) {
				pkg, name, member, glob := m[1], m[2], m[3], m[4]
				p, ok := pkgs[pkg]
				if !ok || glob != "" {
					continue
				}
				if !p[name] {
					t.Errorf("%s: `%s.%s` names nothing in package %s", doc, pkg, name, pkg)
				} else if member != "" && !p[name+"."+member] {
					t.Errorf("%s: `%s.%s.%s`: %s declares no method or field %s", doc, pkg, name, member, name, member)
				}
			}
		}
	}
}

// moduleDecls parses every non-test .go file under internal/ and returns,
// by package name, the set of names each package declares: its top-level
// names and method names (the documents write a method as pkg.Method too,
// `gen.MutateDelta`), and "Type.Member" for each method and struct field.
func moduleDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	pkgs := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := pkgs[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			pkgs[f.Name.Name] = names
		}
		addDecls(names, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func addDecls(names map[string]bool, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names[d.Name.Name] = true
			if d.Recv != nil {
				names[receiverType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				case *ast.TypeSpec:
					names[s.Name.Name] = true
					if st, ok := s.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, n := range fld.Names {
								names[s.Name.Name+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
	}
}

// receiverType is T for a receiver of type T, *T, T[P] or *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
