package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// shippedRoots are the directories whose files decide what stays under
// internal/: the commands, the examples, internal/ itself and the benchmark.
var shippedRoots = []string{"cmd", "examples", "internal", "benchmark/gfdbench"}

// TestEveryInternalPackageIsReachable is the module's scope rule: a package
// under internal/ stays iff a shipped root — a command, an example, or the
// benchmark — reaches it through imports, the test imports of reached
// packages included (that is how internal/oracle and graph/faultio stay).
// A package nothing ships still has to compile against every engine change;
// this names it so it is wired in or deleted.
//
// The same walk enforces one layering rule: internal/bench is imported by
// cmd/benchall and by nothing else, test files included. Each in-process
// measurement has one driver — a paper figure printed by benchall, or a
// RunCI metric gated against BENCH_baseline.json — and a second importer is
// how a second driver for the same workload starts.
func TestEveryInternalPackageIsReachable(t *testing.T) {
	const module = "repro"
	const harness, harnessDriver = module + "/internal/bench", module + "/cmd/benchall"
	// imports maps a package's import path to the in-module paths its
	// files, _test.go files included, import.
	imports := map[string][]string{}
	fset := token.NewFileSet()
	visit := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		deps := imports[pkg]
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if strings.HasPrefix(p, module+"/") {
				deps = append(deps, p)
			}
			if p == harness && pkg != harnessDriver {
				t.Errorf("%s imports %s; only %s may (one driver per measurement)", path, harness, harnessDriver)
			}
		}
		imports[pkg] = deps // an entry even for a package importing nothing in-module
		return nil
	}
	for _, root := range shippedRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			return visit(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// The module root's own files (doc.go and this test) ship nothing, so
	// they reach nothing — but the layering rule covers them too.
	rootFiles, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range rootFiles {
		if err := visit(path); err != nil {
			t.Fatal(err)
		}
	}
	delete(imports, module+"/.")

	reached := map[string]bool{}
	var todo []string
	for pkg := range imports {
		if !strings.HasPrefix(pkg, module+"/internal/") {
			todo = append(todo, pkg)
		}
	}
	for len(todo) > 0 {
		pkg := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		if reached[pkg] {
			continue
		}
		reached[pkg] = true
		todo = append(todo, imports[pkg]...)
	}

	var orphans []string
	for pkg := range imports {
		if !reached[pkg] {
			orphans = append(orphans, pkg)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("no command, example or benchmark reaches (wire in or delete):\n\t%s", strings.Join(orphans, "\n\t"))
	}
}

// testOwned is the one allow-list of TestEveryExportedSymbolIsReferenced:
// exported names under internal/ that no shipped file references and that
// stay anyway, each with the reason. A key is "pkg.Func", "pkg.Type",
// "pkg.(Type).Method", or "pkg/" for a whole package.
var testOwned = map[string]string{
	"oracle/":        "the brute-force reference for matching, validation and simulation: tests are its only callers by design",
	"graph/faultio/": "the failing Writer and Reader the WAL and snapshot fault tests wrap their files in: tests are its only callers by design",

	"core.(SatResult).Model":        "Theorem 1's witness model; deciding satisfiability never builds it, the model tests do",
	"core.IsModel":                  "checks that witness against Σ; SatResult.Model's tests are its callers",
	"graph.(Graph).Subgraph":        "the induced-subgraph reference Compact is tested against",
	"graph.(Frozen).NumAttrColumns": "how many value columns a snapshot made; the tests that pin which searches make them, and which slots a column scratch makes them for, read it",
	"eq.(Eq).Classes":               "canonical rendering of a relation, what the replay/confluence tests compare",
	"gen.(Generator).SharedSet":     "Σ with structurally equal patterns under fresh variable names, for grouped ≡ per-GFD sat/imp tests",
	"match.FindAll":                 "a whole match set as a slice; shipped code streams with Search.Next, tests compare sets",
	"match.FindAllSharded":          "the materializing twin of CountSharded (which ships), what the sharded ≡ flat tests compare",
	"match.(Sim).Nodes":             "reads a simulation relation out; the benchmark's probe only times Simulate, the tests compare the relation with oracle.Simulation",

	"core.(PanicError).Error": "the error interface; called through it",
	"eq.(Conflict).Error":     "the error interface; called through it",
}

// TestEveryExportedSymbolIsReferenced is the scope rule at symbol
// granularity: an exported function, method or type declared in a non-test
// file under internal/ stays iff some non-test file of a shipped root — a
// command, an example, internal/ itself, or the benchmark — names it
// somewhere other than its own declaration. A symbol only tests call still
// has to compile, be documented and be kept equivalent to the path that
// ships; this names it so it is deleted, or allow-listed in testOwned with
// the reason a test owns it.
//
// It is syntactic (go/parser, no type information): a function or type
// counts as referenced by a bare identifier in its own package or by a
// pkg.Name selector through an import of that package; a method counts as
// referenced by any x.Name(...) call, whatever x is. A type's name does not
// count inside its own declaration, its methods, or the functions that
// return it, but a type counts as referenced when a referenced function or
// method returns it: a type is used where its values are. All of this errs
// on the side of "referenced", so a hit is never a false alarm, only a miss
// is possible.
func TestEveryExportedSymbolIsReferenced(t *testing.T) {
	dead, used := unreferencedSymbols(t, shippedRoots)
	if len(dead) > 0 {
		t.Errorf("exported under internal/ but named by no non-test file of cmd/, examples/, internal/ or benchmark/gfdbench/ (delete, or allow-list in testOwned with a reason):\n\t%s", strings.Join(dead, "\n\t"))
	}
	for key := range testOwned {
		if !used[key] {
			t.Errorf("testOwned lists %s, which is referenced or gone: drop the entry", key)
		}
	}
}

// unreferencedSymbols is the walk of TestEveryExportedSymbolIsReferenced over
// the given roots: the sorted keys of the exported symbols under internal/
// that no non-test file of the roots names and testOwned does not list, and
// the testOwned keys that such a symbol used.
func unreferencedSymbols(t *testing.T, roots []string) (dead []string, used map[string]bool) {
	t.Helper()
	const module = "repro"
	type decl struct {
		key, name, dir string
		method, typ    bool
		ident          *ast.Ident
		results        []string // a function's or method's result type names
	}
	var decls []decl
	// bare[dir][name]: identifiers outside selectors; qualified[importPath][name]:
	// pkg.Name selectors; called[name]: x.Name(...) calls.
	bare := map[string]map[string][]*ast.Ident{}
	qualified := map[string]map[string]bool{}
	called := map[string]bool{}

	fset := token.NewFileSet()
	visit := func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkgOf := map[string]string{} // local import name → in-module import path
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if !strings.HasPrefix(p, module+"/") {
				continue
			}
			local := p[strings.LastIndex(p, "/")+1:]
			if spec.Name != nil {
				local = spec.Name.Name
			}
			pkgOf[local] = p
		}
		if strings.HasPrefix(dir, "internal/") {
			short := strings.TrimPrefix(dir, "internal/")
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					results := identNames(d.Type.Results)
					if d.Recv == nil {
						decls = append(decls, decl{key: short + "." + d.Name.Name, name: d.Name.Name, dir: dir, ident: d.Name, results: results})
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
						decls = append(decls, decl{key: short + ".(" + id.Name + ")." + d.Name.Name, name: d.Name.Name, dir: dir, method: true, results: results})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
							decls = append(decls, decl{key: short + "." + ts.Name.Name, name: ts.Name.Name, dir: dir, typ: true, ident: ts.Name})
						}
					}
				}
			}
		}
		if bare[dir] == nil {
			bare[dir] = map[string][]*ast.Ident{}
		}
		selectors := map[*ast.Ident]bool{}
		inspect := func(n ast.Node, owners map[string]bool) {
			ast.Inspect(n, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
						called[sel.Sel.Name] = true
					}
				case *ast.SelectorExpr:
					selectors[n.Sel] = true
					if x, ok := n.X.(*ast.Ident); ok && pkgOf[x.Name] != "" {
						p := pkgOf[x.Name]
						if qualified[p] == nil {
							qualified[p] = map[string]bool{}
						}
						qualified[p][n.Sel.Name] = true
					}
				case *ast.Ident:
					if !selectors[n] && !owners[n.Name] {
						bare[dir][n.Name] = append(bare[dir][n.Name], n)
					}
				}
				return true
			})
		}
		// A type's own declaration, its methods and the functions that
		// return it (its constructors) do not make it used: within each,
		// its name is not a reference.
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				owners := map[string]bool{}
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						owners[id.Name] = true
					}
				}
				for _, name := range identNames(d.Type.Results) {
					owners[name] = true
				}
				inspect(d, owners)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					owners := map[string]bool{}
					if ts, ok := spec.(*ast.TypeSpec); ok {
						owners[ts.Name.Name] = true
					}
					inspect(spec, owners)
				}
			}
		}
		return nil
	}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			return visit(path)
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	referenced := make([]bool, len(decls))
	types := map[string]int{} // dir + "." + name → index of a type's decl
	for i, d := range decls {
		if d.method {
			referenced[i] = called[d.name]
			continue
		}
		if d.typ {
			types[d.dir+"."+d.name] = i
		}
		for _, id := range bare[d.dir][d.name] {
			if id != d.ident {
				referenced[i] = true
			}
		}
		referenced[i] = referenced[i] || qualified[module+"/"+d.dir][d.name]
	}
	// A type is used, too, where a used function or method returns it.
	for i, d := range decls {
		for _, name := range d.results {
			if j, ok := types[d.dir+"."+name]; ok && referenced[i] {
				referenced[j] = true
			}
		}
	}
	used = map[string]bool{}
	for i, d := range decls {
		if referenced[i] {
			continue
		}
		pkg := strings.TrimPrefix(d.dir, "internal/") + "/"
		switch {
		case testOwned[d.key] != "":
			used[d.key] = true
		case testOwned[pkg] != "":
			used[pkg] = true
		default:
			dead = append(dead, d.key)
		}
	}
	sort.Strings(dead)
	return dead, used
}

// identNames returns the names of the identifiers in a result list (nil:
// none), in the order they appear.
func identNames(results *ast.FieldList) []string {
	var names []string
	if results != nil {
		ast.Inspect(results, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				names = append(names, id.Name)
			}
			return true
		})
	}
	return names
}
