package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// docFiles are the documents whose code names TestDocNamesResolve checks.
var docFiles = []string{"DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"}

// docName is a pkg.Name or pkg.Name.member reference inside a backticked
// span, not preceded by a letter, digit, '_' or '.' (so the x of `a.x.Y` and
// the y of `f(y).Z` do not start one). A name followed by '*' is a glob.
var docName = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Za-z_][A-Za-z0-9_]*))?(\*?)`)

// docMember is an unqualified Type.member reference inside a backticked
// span, with the same rule for what may precede it; the type may be
// unexported (`strTable.relayer`) and the member lowercase
// (`ParOptions.testHookTerm`).
var docMember = regexp.MustCompile(`(?:^|[^A-Za-z0-9_.])([A-Za-z][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)`)

// TestDocNamesResolve keeps the documents' code names true: in DESIGN.md,
// README.md and the verify skill, every backticked `pkg.Name` whose pkg is
// a package of the module must name a declaration — a function, method,
// type, variable or constant — in that package's non-test files, and
// `pkg.Type.member` a method or field of that type; an unqualified
// `Type.member` whose Type is a type of a module package, exported or not,
// must name a method or field of that type in some package declaring it. A
// member counts when the type has it through an embedded field or as an
// alias. Lowercase names after a package, such as the benchmark's probe
// names (`core.parsat_s`), and globs (`bench.Fig*`) are not declarations and
// are skipped; so is a pkg that is no package of the module
// (`strings.Fields`, or a variable such as `g.Frozen()`), and so are file
// names (`pool.go`).
func TestDocNamesResolve(t *testing.T) {
	pkgs := moduleDecls(t)
	checked := 0
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
				checked++
				if !p.names[name] {
					t.Errorf("%s: `%s.%s` names nothing in package %s", doc, pkg, name, pkg)
				} else if member != "" && !p.hasMember(name, member) {
					t.Errorf("%s: `%s.%s.%s`: %s declares no method or field %s", doc, pkg, name, member, name, member)
				}
			}
			for _, m := range docMember.FindAllStringSubmatch(spans[i], -1) {
				typ, member := m[1], m[2]
				if _, isPkg := pkgs[typ]; isPkg || member == "go" {
					continue // docName's pkg.Name, or a file name
				}
				found, isType := false, false
				for _, p := range pkgs {
					if _, ok := p.types[typ]; ok {
						isType = true
						found = found || p.hasMember(typ, member)
					}
				}
				if isType {
					checked++
					if !found {
						t.Errorf("%s: `%s.%s`: no type %s of the module declares a method or field %s", doc, typ, member, typ, member)
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no code name checked: the patterns no longer match the documents")
	}
}

// pkgDecls is what one package of the module declares: names holds its
// top-level names and method names (the documents write a method as
// pkg.Method too, `gen.MutateDelta`) and "Type.member" for each method,
// struct field and interface method; types maps each type name to the types
// whose members it has as well — its embedded fields, or an alias's target.
type pkgDecls struct {
	names map[string]bool
	types map[string][]string
}

// hasMember reports whether type typ has member, declared on it or on a
// type it embeds or aliases.
func (p pkgDecls) hasMember(typ, member string) bool {
	seen := map[string]bool{}
	var has func(string) bool
	has = func(typ string) bool {
		if p.names[typ+"."+member] {
			return true
		}
		if seen[typ] {
			return false
		}
		seen[typ] = true
		return slices.ContainsFunc(p.types[typ], has)
	}
	return has(typ)
}

// moduleDecls parses every non-test .go file under internal/ and returns
// each package's declarations by package name.
func moduleDecls(t *testing.T) map[string]pkgDecls {
	t.Helper()
	pkgs := map[string]pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p, ok := pkgs[f.Name.Name]
		if !ok {
			p = pkgDecls{names: map[string]bool{}, types: map[string][]string{}}
			pkgs[f.Name.Name] = p
		}
		p.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func (p pkgDecls) add(f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			p.names[d.Name.Name] = true
			if d.Recv != nil {
				p.names[receiverType(d.Recv.List[0].Type)+"."+d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.names[n.Name] = true
					}
				case *ast.TypeSpec:
					p.addType(s)
				}
			}
		}
	}
}

// addType records type s, its members and the types it embeds or aliases.
func (p pkgDecls) addType(s *ast.TypeSpec) {
	typ := s.Name.Name
	p.names[typ] = true
	p.types[typ] = nil
	if s.Assign.IsValid() {
		if target := receiverType(s.Type); target != "" {
			p.types[typ] = append(p.types[typ], target)
		}
		return
	}
	var fields []*ast.Field
	switch x := s.Type.(type) {
	case *ast.StructType:
		fields = x.Fields.List
	case *ast.InterfaceType:
		fields = x.Methods.List
	}
	for _, fld := range fields {
		for _, n := range fld.Names {
			p.names[typ+"."+n.Name] = true
		}
		if len(fld.Names) == 0 {
			if e := receiverType(fld.Type); e != "" {
				p.names[typ+"."+e] = true
				p.types[typ] = append(p.types[typ], e)
			}
		}
	}
}

// receiverType is T for a receiver of type T, *T, T[P] or *T[P], and ""
// for any other type expression (a type of another package among them).
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

// citingDocs are the documents whose DESIGN.md section citations
// TestDocSectionsResolve checks, beside every non-test .go file. CHANGES.md
// is history: its entries cite sections as they were then.
var citingDocs = []string{"README.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md"}

// sectionCite is a citation of a DESIGN.md section — `DESIGN.md "X"`,
// `DESIGN.md, "X"` or `DESIGN.md ("X")` — in flattened text.
var sectionCite = regexp.MustCompile(`DESIGN\.md,? \(?"([^"]+)"`)

// boldLead is a bold paragraph lead, **X.**, which a citation may name as X.
var boldLead = regexp.MustCompile(`\*\*([^*]+)\.\*\*`)

// TestDocSectionsResolve keeps the documents' section citations true: every
// citation of a DESIGN.md section in a non-test .go file, README.md,
// ROADMAP.md or the verify skill must name a heading of DESIGN.md or one of
// its bold paragraph leads. A failure names the citing file and line.
func TestDocSectionsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, line := range strings.Split(string(design), "\n") {
		if strings.HasPrefix(line, "#") {
			sections[strings.TrimSpace(strings.TrimLeft(line, "#"))] = true
		}
	}
	flat, _ := flatten(string(design))
	for _, m := range boldLead.FindAllStringSubmatch(flat, -1) {
		sections[m[1]] = true
	}

	files := slices.Clone(citingDocs)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return fs.SkipDir
		case !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go"):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cites := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text, starts := flatten(string(src))
		for _, m := range sectionCite.FindAllStringSubmatchIndex(text, -1) {
			cites++
			if name := text[m[2]:m[3]]; !sections[name] {
				line := sort.Search(len(starts), func(i int) bool { return starts[i] > m[0] })
				t.Errorf("%s:%d: DESIGN.md has no section %q", file, line, name)
			}
		}
	}
	if cites == 0 {
		t.Fatal("no DESIGN.md section citation found: the pattern no longer matches the documents")
	}
}

// benchmarkOnly is the DESIGN.md section that lists what only the benchmark
// names.
const benchmarkOnly = "## What only the benchmark uses"

// TestDocBenchmarkOnlyListIsComplete keeps that section complete: the walk
// of TestEveryExportedSymbolIsReferenced over every shipped root but
// benchmark/gfdbench finds the exported symbols only the benchmark names,
// and each must be backticked in the section, as `pkg.Name` or, for a
// method, `pkg.Type.Method`.
func TestDocBenchmarkOnlyListIsComplete(t *testing.T) {
	var roots []string
	for _, r := range shippedRoots {
		if r != "benchmark/gfdbench" {
			roots = append(roots, r)
		}
	}
	if len(roots) == len(shippedRoots) {
		t.Fatal("benchmark/gfdbench is no longer a shipped root: the walk finds nothing")
	}
	onlyBenchmark, _ := unreferencedSymbols(t, roots)
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n"+benchmarkOnly+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no section %q", benchmarkOnly)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	named := map[string]bool{}
	spans := strings.Split(section, "`")
	for i := 1; i < len(spans); i += 2 {
		for _, m := range docName.FindAllStringSubmatch(spans[i], -1) {
			if m[3] == "" {
				named[m[1]+"."+m[2]] = true
			} else {
				named[m[1]+".("+m[2]+")."+m[3]] = true
			}
		}
	}
	var missing []string
	for _, key := range onlyBenchmark {
		if !named[key] {
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		t.Errorf("only benchmark/gfdbench names these, and DESIGN.md %q does not list them:\n\t%s", benchmarkOnly, strings.Join(missing, "\n\t"))
	}
}

// flatten joins the lines of src with single spaces, each stripped of a
// leading // comment marker and with its white space collapsed, so that a
// citation wrapped across lines, comment lines included, reads as one.
// starts[i] is the offset in text where line i+1 begins.
func flatten(src string) (text string, starts []int) {
	var b strings.Builder
	for _, line := range strings.Split(src, "\n") {
		fields := strings.Fields(strings.TrimPrefix(strings.TrimSpace(line), "//"))
		if len(fields) > 0 && b.Len() > 0 {
			b.WriteByte(' ')
		}
		starts = append(starts, b.Len())
		b.WriteString(strings.Join(fields, " "))
	}
	return b.String(), starts
}
