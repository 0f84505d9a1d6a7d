package repro

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
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// guardedPkgs are the packages whose errors carry durability state:
// WAL.Flush, Sync and Close report the log's sticky I/O error,
// WriteSnapshot a torn image, Recover a corrupt log, WriteSnapshotAtomic a
// store whose rename may not survive a crash.
var guardedPkgs = map[string]bool{"repro/internal/graph": true, "repro/internal/gfdio": true}

// TestNoDroppedGraphError holds the module to the storage layer's error
// discipline: no call into internal/graph or internal/gfdio drops its error
// result, whether the call is a statement, runs under go or defer, or has
// its error assigned to _. Most such drops also fail a fault-injection test,
// but one cannot: the directory fsync in WriteSnapshotAtomic, which opens
// the directory itself (DESIGN.md "Enforced invariants", row M2). So the
// rule is checked on the code, not on its behaviour.
//
// Every package of the module is type-checked from source, _test.go files
// included; dependencies come from the export data `go list -export`
// records. The fixture under testdata/droppederr shows what is flagged and
// what is not, type-checked against the real internal/graph.
func TestNoDroppedGraphError(t *testing.T) {
	ld := loadModule(t)

	t.Run("fixture", func(t *testing.T) {
		dir := filepath.Join("testdata", "droppederr")
		p, err := ld.source(&listPkg{ImportPath: "droppederr", Dir: dir, GoFiles: []string{"droppederr.go"}})
		if err != nil {
			t.Fatal(err)
		}
		f := p.files[0]
		want := map[int]string{} // line → text its finding must contain
		wantRE := regexp.MustCompile(`// want "([^"]*)"`)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if m := wantRE.FindStringSubmatch(c.Text); m != nil {
					want[ld.fset.Position(c.Pos()).Line] = m[1]
				}
			}
		}
		for _, d := range droppedErrors(p.info, f) {
			pos := ld.fset.Position(d.pos)
			w, ok := want[pos.Line]
			if !ok || !strings.Contains(d.msg, w) {
				t.Errorf("%s: unexpected finding: %s", pos, d.msg)
			}
			delete(want, pos.Line)
		}
		for line, w := range want {
			t.Errorf("%s:%d: no finding, want %q", ld.fset.File(f.Pos()).Name(), line, w)
		}
	})

	t.Run("module", func(t *testing.T) {
		for _, lp := range ld.targets {
			p, err := ld.source(lp)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range p.files {
				for _, d := range droppedErrors(p.info, f) {
					t.Errorf("%s: %s", ld.fset.Position(d.pos), d.msg)
				}
			}
		}
	})
}

type finding struct {
	pos token.Pos
	msg string
}

// droppedErrors returns the calls in f that drop a guarded package's error.
func droppedErrors(info *types.Info, f *ast.File) []finding {
	var out []finding
	dropped := func(call *ast.CallExpr, how string) {
		if fn, _ := guardedCall(info, call); fn != nil {
			out = append(out, finding{call.Pos(), "error result of " + fnName(fn) + " is dropped" + how})
		}
	}
	blank := func(lhs ast.Expr, fn *types.Func) {
		if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
			out = append(out, finding{lhs.Pos(), "error result of " + fnName(fn) + " is discarded with _"})
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				dropped(call, "")
			}
		case *ast.GoStmt:
			dropped(s.Call, " by the go statement")
		case *ast.DeferStmt:
			dropped(s.Call, " by the deferred call")
		case *ast.AssignStmt:
			if len(s.Rhs) == 1 && len(s.Lhs) > 1 { // a, _ := f()
				if fn, errs := guardedCall(info, s.Rhs[0]); fn != nil {
					for _, i := range errs {
						blank(s.Lhs[i], fn)
					}
				}
				break
			}
			for i, rhs := range s.Rhs { // _ = f() and a, _ = x, f()
				if fn, _ := guardedCall(info, rhs); fn != nil {
					blank(s.Lhs[i], fn)
				}
			}
		}
		return true
	})
	return out
}

// guardedCall resolves e to a call of a guarded package's function or
// method and returns it with the positions of its error results; nil when e
// is anything else or the callee returns no error.
func guardedCall(info *types.Info, e ast.Expr) (*types.Func, []int) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return nil, nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil, nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !guardedPkgs[fn.Pkg().Path()] {
		return nil, nil
	}
	var errs []int
	res := fn.Type().(*types.Signature).Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), types.Universe.Lookup("error").Type()) {
			errs = append(errs, i)
		}
	}
	if errs == nil {
		return nil, nil
	}
	return fn, errs
}

// fnName renders fn as pkg.Func or pkg.Type.Method.
func fnName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// listPkg is the part of `go list -json` the loader reads.
type listPkg struct {
	ImportPath, Dir, Export, ForTest string
	Standard, DepOnly                bool
	GoFiles                          []string
	ImportMap                        map[string]string
	Error                            *struct{ Err string }
}

// moduleLoader type-checks the module's packages against the build graph
// `go list -deps -export -test` reports.
type moduleLoader struct {
	fset    *token.FileSet
	index   map[string]*listPkg
	targets []*listPkg         // the module's packages, a test variant in place of its plain package
	checked map[string]*srcPkg // by ImportPath
	gc      types.Importer
}

func loadModule(t *testing.T) *moduleLoader {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command("go", "list", "-deps", "-export", "-test", "-json", "./...")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.Bytes())
	}
	ld := &moduleLoader{fset: token.NewFileSet(), index: map[string]*listPkg{}, checked: map[string]*srcPkg{}}
	var all []*listPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		lp := new(listPkg)
		if err := dec.Decode(lp); err != nil {
			t.Fatalf("go list: %v", err)
		}
		if lp.Error != nil {
			t.Fatalf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		ld.index[lp.ImportPath] = lp
		all = append(all, lp)
	}
	for _, lp := range all {
		// "p.test" is the generated test main; "p [p.test]" subsumes p.
		if lp.DepOnly || lp.Standard || strings.HasSuffix(lp.ImportPath, ".test") ||
			ld.index[lp.ImportPath+" ["+lp.ImportPath+".test]"] != nil {
			continue
		}
		ld.targets = append(ld.targets, lp)
	}
	ld.gc = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		lp := ld.index[path]
		if lp == nil || lp.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(lp.Export)
	})
	return ld
}

// srcPkg is a package type-checked from source.
type srcPkg struct {
	types *types.Package
	files []*ast.File
	info  *types.Info // Uses only
}

// source type-checks lp from source, once; a test variant ("q [p.test]")
// checks as its plain path q.
func (ld *moduleLoader) source(lp *listPkg) (*srcPkg, error) {
	if p := ld.checked[lp.ImportPath]; p != nil {
		return p, nil
	}
	p := &srcPkg{files: make([]*ast.File, len(lp.GoFiles)), info: &types.Info{Uses: map[*ast.Ident]types.Object{}}}
	for i, name := range lp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(lp.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files[i] = f
	}
	conf := types.Config{Importer: srcImporter{ld, lp}}
	var err error
	if p.types, err = conf.Check(strings.Fields(lp.ImportPath)[0], ld.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %v", lp.ImportPath, err)
	}
	ld.checked[lp.ImportPath] = p
	return p, nil
}

// srcImporter resolves lp's imports through its ImportMap. A test variant is
// checked from source: its export data would bind its own imports to the
// plain packages, whose types are not those of the variants seen here.
type srcImporter struct {
	ld *moduleLoader
	lp *listPkg
}

func (im srcImporter) Import(path string) (*types.Package, error) {
	if m := im.lp.ImportMap[path]; m != "" {
		path = m
	}
	dep := im.ld.index[path]
	if dep == nil || dep.ForTest == "" {
		return im.ld.gc.Import(path)
	}
	p, err := im.ld.source(dep)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}
