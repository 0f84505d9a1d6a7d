package gfdio

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

const sampleGraph = `# a toy graph
node 0 person name=alice age=30
node 1 person name=bob
node 2 city name=paris
edge 0 1 knows
edge 0 2 lives
edge 1 2 lives
`

func TestReadGraph(t *testing.T) {
	g, err := ReadFrozenGraph(strings.NewReader(sampleGraph))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("parsed %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if v, _ := g.Attr(0, "name"); v != "alice" {
		t.Errorf("attr lost: %q", v)
	}
	if !graph.HasEdge(g, 1, 2, "lives") {
		t.Error("edge lost")
	}
}

// TestGraphRoundTrip writes the parsed sample from both build targets — the
// snapshot ReadFrozenGraph returns and an editable graph filled through the
// same parser — and re-parses the text: every spelling is the same graph.
func TestGraphRoundTrip(t *testing.T) {
	f, err := ReadFrozenGraph(strings.NewReader(sampleGraph))
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New()
	if err := readGraphInto(strings.NewReader(sampleGraph), g); err != nil {
		t.Fatal(err)
	}
	var fromFrozen, fromGraph strings.Builder
	if err := WriteGraph(&fromFrozen, f); err != nil {
		t.Fatal(err)
	}
	if err := WriteGraph(&fromGraph, g); err != nil {
		t.Fatal(err)
	}
	g2 := graph.New()
	if err := readGraphInto(strings.NewReader(fromFrozen.String()), g2); err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, fromFrozen.String())
	}
	if g.String() != g2.String() || fromGraph.String() != g.String() {
		t.Fatalf("round trip changed graph:\n%s\nvs\n%s\nvs\n%s", g, g2, fromGraph.String())
	}
}

// TestWriteGraphRefusesWhatItCannotReadBack pins the writer's side of the
// round trip: a token the reader would split or drop, and a tombstoned slot
// the format cannot express, are errors naming the node or edge — never a
// file that parses as another graph or not at all.
func TestWriteGraphRefusesWhatItCannotReadBack(t *testing.T) {
	cases := []struct {
		name  string
		build func(g *graph.Graph)
		want  string // substring of the error; "" = must round-trip
	}{
		{"plain", func(g *graph.Graph) {
			g.SetAttr(g.AddNode("a"), "name", "John")
			g.AddEdge(0, g.AddNode("b"), "knows")
		}, ""},
		{"empty value and '=' in a value are legal", func(g *graph.Graph) {
			g.SetAttr(g.AddNode("a"), "k", "")
			g.SetAttr(0, "eq", "x=y")
		}, ""},
		{"space in value", func(g *graph.Graph) {
			g.AddNode("a")
			g.SetAttr(g.AddNode("a"), "name", "John Smith")
		}, `node 1: value "John Smith" of attribute name`},
		{"tab in attribute name", func(g *graph.Graph) { g.SetAttr(g.AddNode("a"), "first\tname", "J") }, `node 0: attribute name "first\tname"`},
		{"empty attribute name", func(g *graph.Graph) { g.SetAttr(g.AddNode("a"), "", "v") }, `node 0: attribute name ""`},
		{"'=' in attribute name", func(g *graph.Graph) { g.SetAttr(g.AddNode("a"), "a=b", "v") }, `node 0: attribute name "a=b"`},
		{"empty node label", func(g *graph.Graph) { g.AddNode("") }, `node 0: label ""`},
		{"newline in node label", func(g *graph.Graph) { g.AddNode("a\nnode 1 b") }, `node 0: label`},
		{"space in edge label", func(g *graph.Graph) {
			g.AddEdge(g.AddNode("a"), g.AddNode("b"), "lives in")
		}, `edge 0 -> 1: label "lives in"`},
		{"empty edge label", func(g *graph.Graph) { g.AddEdge(g.AddNode("a"), g.AddNode("b"), "") }, `edge 0 -> 1: label ""`},
		{"tombstone", func(g *graph.Graph) {
			g.AddNode("a")
			g.RemoveNode(g.AddNode("b"))
		}, "node 1 is tombstoned"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := graph.New()
			c.build(g)
			// The editable graph, its snapshot and an overlay all report
			// Alive; each must refuse or round-trip alike.
			for name, r := range map[string]graph.Reader{"graph": g, "frozen": g.Frozen(), "overlay": graph.NewDelta(g.Frozen()).Overlay()} {
				var b strings.Builder
				err := WriteGraph(&b, r)
				if c.want != "" {
					if err == nil || !strings.Contains(err.Error(), c.want) {
						t.Errorf("%s: error %v, want one containing %q", name, err, c.want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				back, err := ReadFrozenGraph(strings.NewReader(b.String()))
				if err != nil {
					t.Fatalf("%s: wrote a file it cannot read: %v\n%s", name, err, b.String())
				}
				var again strings.Builder
				if err := WriteGraph(&again, back); err != nil || again.String() != b.String() {
					t.Errorf("%s: second trip differs (%v):\n%s\nvs\n%s", name, err, b.String(), again.String())
				}
				if back.LabelFrequency("b") != r.LabelFrequency("b") {
					t.Errorf("%s: LabelFrequency(b) %d → %d", name, r.LabelFrequency("b"), back.LabelFrequency("b"))
				}
			}
		})
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := []string{
		"node 1 person",        // non-dense id
		"node 0",               // missing label
		"edge 0 1 e",           // endpoints before nodes
		"node 0 p\nedge 0 5 e", // out of range
		"bogus 1 2 3",          // unknown statement
		"node 0 p broken",      // bad attr
	}
	for _, c := range cases {
		if _, err := ReadFrozenGraph(strings.NewReader(c)); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

// graphCorpus is the seed corpus of FuzzReadGraph: the sample, the inputs of
// TestReadGraphErrors, a generated graph, and the corners of the line format.
func graphCorpus() []string {
	var b strings.Builder
	g := gen.New(gen.Config{N: 10, K: 3, L: 3, Seed: 5})
	if err := WriteGraph(&b, g.ConsistentGraph(12)); err != nil {
		panic(err)
	}
	return []string{
		sampleGraph, b.String(), "",
		"node 1 person", "node 0", "edge 0 1 e", "node 0 p\nedge 0 5 e", "bogus 1 2 3", "node 0 p broken",
		// White space: tabs, CRLF, a no-break space and an em space as
		// separators, a lone continuation byte inside a label.
		"\tnode 0\ta\u00a0k=1\r\nnode\u20031 b\xa0c  k=\r\n edge 0 1 e \r\n",
		"node 0 a k=1 k=2 l==x\nnode 1 a\nedge 0 1 e\nedge 0 1 e\nedge 1 0 f\nedge 1 1 e\n",
		"# comment\nnode 0 #a\nedge 0 0 #e\n", "node 0 _\nedge 0 0 _", "node -1 a", "node x a",
		"node 0 a =v", "node 0 a\nedge 0 0", "node 0 a\nedge 0 x e", "node 0 a\nedge 0 -1 e", "node 0 a\nedge 0 0 e f",
	}
}

// TestReadGraphMatchesReference holds the graph-text reader to refReadGraph
// on graphCorpus(): the same error text, or a graph with the same snapshot
// image.
func TestReadGraphMatchesReference(t *testing.T) {
	for _, in := range graphCorpus() {
		checkReadGraphAgainstReference(t, in)
	}
}

func checkReadGraphAgainstReference(t *testing.T, in string) {
	t.Helper()
	got, err := ReadFrozenGraph(strings.NewReader(in))
	want, refErr := refReadGraph(strings.NewReader(in))
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("%q: error %v, the reference's %v", in, err, refErr)
	}
	if err != nil {
		return
	}
	var a, b strings.Builder
	if err := got.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("%q: the graph read differs from the reference's", in)
	}
}

// refReadGraph is ReadFrozenGraph as it was before it stopped allocating per
// line: a strings.Fields split of each scanned line.
func refReadGraph(r io.Reader) (*graph.Frozen, error) {
	g := graph.NewBuilder(0)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) < 3 {
				return nil, fmt.Errorf("line %d: node needs id and label", lineNo)
			}
			id, err := strconv.Atoi(fields[1])
			if err != nil {
				return nil, fmt.Errorf("line %d: bad node id %q", lineNo, fields[1])
			}
			if id != g.NumNodes() {
				return nil, fmt.Errorf("line %d: node ids must be dense and ordered; got %d, want %d", lineNo, id, g.NumNodes())
			}
			nid := g.AddNode(fields[2])
			for _, kv := range fields[3:] {
				eq := strings.IndexByte(kv, '=')
				if eq <= 0 {
					return nil, fmt.Errorf("line %d: bad attribute %q", lineNo, kv)
				}
				g.SetAttr(nid, kv[:eq], kv[eq+1:])
			}
		case "edge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("line %d: edge needs from, to, label", lineNo)
			}
			from, err1 := strconv.Atoi(fields[1])
			to, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("line %d: bad edge endpoints", lineNo)
			}
			if from < 0 || from >= g.NumNodes() || to < 0 || to >= g.NumNodes() {
				return nil, fmt.Errorf("line %d: edge endpoint out of range", lineNo)
			}
			g.AddEdge(graph.NodeID(from), graph.NodeID(to), fields[3])
		default:
			return nil, fmt.Errorf("line %d: unknown statement %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return g.Freeze(), nil
}

// FuzzReadGraph: no input panics the graph-text parser, it reads what
// refReadGraph reads, and a graph it accepts is one WriteGraph writes and
// reads back equal: the same text again from the graph read back, and the
// same node and edge counts.
func FuzzReadGraph(f *testing.F) {
	for _, in := range graphCorpus() {
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in string) {
		checkReadGraphAgainstReference(t, in)
		g, err := ReadFrozenGraph(strings.NewReader(in))
		if err != nil {
			return
		}
		var text strings.Builder
		if err := WriteGraph(&text, g); err != nil {
			t.Fatalf("%q: WriteGraph refuses a graph the reader accepted: %v", in, err)
		}
		back, err := ReadFrozenGraph(strings.NewReader(text.String()))
		if err != nil {
			t.Fatalf("%q: WriteGraph wrote a file the reader rejects: %v\n%s", in, err, text.String())
		}
		var again strings.Builder
		if err := WriteGraph(&again, back); err != nil || again.String() != text.String() ||
			back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("%q: round trip changed the graph (%v):\n%s\nvs\n%s", in, err, text.String(), again.String())
		}
	})
}

const sampleGFDs = `# paper's phi1 and phi3
gfd phi1
var x place
var y place
edge x y locatedIn
edge y x partOf
then false
end

gfd phi3
var x person
var y person
var z country
edge x z president
edge y z vice
when x.c = y.c
then x.nationality = y.nationality
end

gfd constRule
var x car
then x.wheels = "4"
end
`

func TestReadGFDs(t *testing.T) {
	set, err := ReadGFDs(strings.NewReader(sampleGFDs))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != 3 {
		t.Fatalf("parsed %d GFDs, want 3", set.Len())
	}
	phi1 := set.GFDs[0]
	if !phi1.IsFalsehood() {
		t.Error("phi1 should desugar to false")
	}
	phi3 := set.GFDs[1]
	if len(phi3.X) != 1 || phi3.X[0].Kind != gfd.VarLiteral {
		t.Errorf("phi3 antecedent parsed wrong: %+v", phi3.X)
	}
	if phi3.Pattern.NumVars() != 3 {
		t.Errorf("phi3 pattern vars = %d", phi3.Pattern.NumVars())
	}
	c := set.GFDs[2]
	if len(c.Y) != 1 || c.Y[0].Const != "4" {
		t.Errorf("constRule consequent parsed wrong: %+v", c.Y)
	}
}

func TestGFDRoundTrip(t *testing.T) {
	set, err := ReadGFDs(strings.NewReader(sampleGFDs))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteGFDs(&b, set); err != nil {
		t.Fatal(err)
	}
	set2, err := ReadGFDs(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, b.String())
	}
	if set.String() != set2.String() {
		t.Fatalf("round trip changed set:\n%s\nvs\n%s", set, set2)
	}
}

func TestGeneratedSetRoundTrip(t *testing.T) {
	g := gen.New(gen.Config{N: 50, K: 5, L: 4, Seed: 13, WildcardRate: 0.2})
	set := g.Set()
	var b strings.Builder
	if err := WriteGFDs(&b, set); err != nil {
		t.Fatal(err)
	}
	set2, err := ReadGFDs(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("generated set failed to re-parse: %v", err)
	}
	if set.String() != set2.String() {
		t.Fatal("generated set round trip mismatch")
	}
}

func TestReadGFDsErrors(t *testing.T) {
	cases := []struct {
		in   string
		want string // the whole error; "" = any error
	}{
		{"var x p", ""},                                   // var outside block
		{"gfd a\nvar x p\ngfd b", ""},                     // nested block
		{"gfd a\nvar x p\nwhen x.A 1\nend", ""},           // missing =
		{"gfd a\nvar x p\nwhen y.A = \"1\"\nend", ""},     // undeclared var
		{"gfd a\nvar x p\nedge x y e\nend", ""},           // undeclared edge endpoint
		{"gfd a\nvar x p", ""},                            // unterminated
		{"gfd a\nend", ""},                                // no variables
		{"gfd a\nvar x p\nthen x.A = notquoted\nend", ""}, // rhs neither a constant nor var.attr
		{"gfd a\nvar x p\nvar x q\nend", `line 3: duplicate variable "x"`},
		// A term is one field: these used to parse, with the attribute
		// names "b junk" and "a junk".
		{"gfd a\nvar x p\nwhen x.a = x.b junk\nend", `line 3: bad attribute term "x.b junk" (want var.attr)`},
		{"gfd a\nvar x p\nthen x.a junk = \"1\"\nend", `line 3: bad attribute term "x.a junk" (want var.attr)`},
		{"gfd a\nvar x p\nwhen x .a = \"1\"\nend", `line 3: undeclared variable "x "`}, // as before
		// false is the whole consequent: the literal beside it used to be
		// dropped without a word. The later line of the two is named.
		{"gfd a\nvar x p\nthen x.a = \"1\"\n\nthen false\nend", "line 5: then false after another then literal"},
		{"gfd a\nvar x p\nthen false\nwhen x.b = \"2\"\nthen x.a = \"1\"\nend", "line 5: then literal after then false"},
	}
	for _, c := range cases {
		_, err := ReadGFDs(strings.NewReader(c.in))
		if err == nil || c.want != "" && err.Error() != c.want {
			t.Errorf("%q: err = %v, want %s", c.in, err, c.want)
		}
	}
	// Not errors: false said twice, and a when after it.
	if set, err := ReadGFDs(strings.NewReader("gfd a\nvar x p\nthen false\nthen false\nwhen x.a = \"1\"\nend")); err != nil ||
		!set.GFDs[0].IsFalsehood() || len(set.GFDs[0].X) != 1 {
		t.Errorf("then false twice: %v, %v", set, err)
	}
}

// TestWriteGFDsRefusesWhatItCannotReadBack pins the writer's side of the
// round trip, as TestWriteGraphRefusesWhatItCannotReadBack does for graphs:
// a token the reader would split, cut at another place or take for a
// constant is an error naming the GFD and the field — never a file that
// parses as another rule or not at all.
func TestWriteGFDsRefusesWhatItCannotReadBack(t *testing.T) {
	one := func(name, varName, label string, x, y []gfd.Literal) *gfd.GFD {
		p := pattern.New()
		p.AddEdge(p.AddVar(varName, label), p.AddVar("y", "b"), "e")
		return gfd.MustNew(name, p, x, y)
	}
	edge := func(label string) *gfd.GFD {
		p := pattern.New()
		p.AddEdge(p.AddVar("x", "a"), p.AddVar("y", "b"), label)
		return gfd.MustNew("g", p, nil, nil)
	}
	falseOn := func(v pattern.Var) []gfd.Literal {
		return []gfd.Literal{gfd.Const(v, gfd.FalseAttr, gfd.FalseConst0), gfd.Const(v, gfd.FalseAttr, gfd.FalseConst1)}
	}
	cases := []struct {
		name string
		phi  *gfd.GFD
		want string // substring of the error; "" = must round-trip
	}{
		{"plain", one("g", "x", "a", []gfd.Literal{gfd.Const(0, "k", "v")}, []gfd.Literal{gfd.Vars(0, "k", 1, "k")}), ""},
		{"any constant is legal", one("g", "x", "a", nil, []gfd.Literal{gfd.Const(0, "k", "a b\n\"=.\xff"), gfd.Const(1, "k", "")}), ""},
		{"'.' in a variable name is legal", one("g", "x.1", "a", []gfd.Literal{gfd.Vars(0, "k", 0, "l")}, nil), ""},
		{"false on the first variable is sugar", one("g", "x", "a", nil, falseOn(0)), ""},
		{"false on another variable is spelled out", one("g", "x", "a", nil, falseOn(1)), ""},
		{"false beside a literal is spelled out", one("g", "x", "a", nil, append(falseOn(0), gfd.Const(1, "k", "v"))), ""},
		{"empty gfd name", one("", "x", "a", nil, nil), `gfd "": name`},
		{"space in gfd name", one("rule 1", "x", "a", nil, nil), `gfd "rule 1": name`},
		{"empty variable name", one("g", "", "a", nil, nil), `gfd g: variable name ""`},
		{"tab in variable name", one("g", "x\t1", "a", nil, nil), `gfd g: variable name "x\t1"`},
		{"empty node label", one("g", "x", "", nil, nil), `gfd g: label "" of variable x`},
		{"newline in node label", one("g", "x", "a\nvar z b", nil, nil), `gfd g: label "a\nvar z b" of variable x`},
		{"space in edge label", edge("lives in"), `gfd g: label "lives in" of edge x -> y`},
		{"empty edge label", edge(""), `gfd g: label "" of edge x -> y`},
		{"'.' in attribute name", one("g", "x", "a", []gfd.Literal{gfd.Const(0, "x.a", "v")}, nil), `gfd g: attribute name "x.a"`},
		{"'=' in attribute name", one("g", "x", "a", nil, []gfd.Literal{gfd.Const(0, "a=b", "v")}), `gfd g: attribute name "a=b"`},
		{"space in attribute name", one("g", "x", "a", nil, []gfd.Literal{gfd.Vars(1, "k", 0, "b junk")}), `gfd g: attribute name "b junk"`},
		{"empty attribute name", one("g", "x", "a", []gfd.Literal{gfd.Const(0, "", "v")}, nil), `gfd g: attribute name ""`},
		{"'=' in a variable a literal names", one("g", "x=1", "a", []gfd.Literal{gfd.Const(0, "k", "v")}, nil), `gfd g: variable name "x=1" in a literal`},
		{"'\"' opening a variable a literal names", one("g", `"x`, "a", nil, []gfd.Literal{gfd.Vars(1, "k", 0, "k")}), `gfd g: variable name "\"x" in a literal`},
		{"the same variable outside literals is legal", one("g", "x=1", "a", nil, nil), ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			set := gfd.NewSet(edge("e"), c.phi) // a writable rule ahead of the one under test
			var b strings.Builder
			err := WriteGFDs(&b, set)
			if c.want != "" {
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("error %v, want one containing %q", err, c.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			back, err := ReadGFDs(strings.NewReader(b.String()))
			if err != nil {
				t.Fatalf("wrote a file it cannot read: %v\n%s", err, b.String())
			}
			if err := sameSet(set, back); err != nil {
				t.Fatalf("round trip changed the set: %v\n%s", err, b.String())
			}
		})
	}
}

// sameSet reports the first difference between two sets: names, variable
// names, pattern structure (pattern.StructuralEqual) and literals.
func sameSet(a, b *gfd.Set) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%d GFDs vs %d", a.Len(), b.Len())
	}
	for i, g := range a.GFDs {
		h := b.GFDs[i]
		if g.Name != h.Name || !pattern.StructuralEqual(g.Pattern, h.Pattern) || !slices.Equal(g.X, h.X) || !slices.Equal(g.Y, h.Y) {
			return fmt.Errorf("GFD %d: %v vs %v", i, g, h)
		}
		for v := 0; v < g.Pattern.NumVars(); v++ {
			if g.Pattern.Name(pattern.Var(v)) != h.Pattern.Name(pattern.Var(v)) {
				return fmt.Errorf("GFD %d: variable %d is %q vs %q", i, v, g.Pattern.Name(pattern.Var(v)), h.Pattern.Name(pattern.Var(v)))
			}
		}
	}
	return nil
}

// readCorpus is what the parser and its reference are compared on, and the
// seed corpus of FuzzReadGFDs: the inputs of TestReadGFDs and
// TestReadGFDsErrors, one generated set, and the corners of the line format.
func readCorpus() []string {
	var b strings.Builder
	g := gen.New(gen.Config{N: 30, K: 5, L: 4, Seed: 7, WildcardRate: 0.3})
	if err := WriteGFDs(&b, g.Set()); err != nil {
		panic(err)
	}
	return []string{
		sampleGFDs, b.String(), "",
		"var x p", "gfd a\nvar x p\ngfd b", "gfd a\nvar x p\nwhen x.A 1\nend",
		"gfd a\nvar x p\nwhen y.A = \"1\"\nend", "gfd a\nvar x p\nedge x y e\nend", "gfd a\nvar x p",
		"gfd a\nvar x p\nvar x q\nend", "gfd a\nend", "gfd a\nvar x p\nthen x.A = notquoted\nend",
		"gfd a\nvar x p\nwhen x.a = x.b junk\nend", "gfd a\nvar x p\nthen x.a junk = \"1\"\nend",
		"gfd a\nvar x p\nwhen x .a = \"1\"\nend",
		"gfd a\nvar x p\nthen x.a = \"1\"\nthen false\nend", "gfd a\nvar x p\nthen false\nthen x.a = \"1\"\nend",
		"gfd a\nvar x p\nthen false\nthen false\nwhen x.a = \"1\"\nend",
		// White space: tabs, CRLF, a no-break space and an em space as
		// separators, a lone continuation byte inside a name.
		"  gfd\ta \r\n\tvar  x\u00a0p\r\n var\u2003y _ \r\nedge x y e\xa0f\r\nthen  x.a =\t\"1 2\"  \r\nend\r\n",
		"gfd a b\n", "gfd\n", "var x\n", "gfd a\nvar x p q\nend", "gfd a\nvar x p\nedge x x\nend", "gfd a\nvar x p\nedge x x e f\nend",
		"# only a comment", "gfd a\n#var x p\nend", "gfd a\nvar x p\nend trailing words\n", "bogus", "end",
		"gfd a\nvar x p\nwhen\nend", "gfd a\nvar x p\nthen =\nend", "gfd a\nvar x p\nthen x. = \"1\"\nend",
		"gfd a\nvar x p\nthen x.a = \"unterminated\nend", "gfd a\nvar x p\nthen x.a = \"a\\tb\" \nend",
		"gfd a\nvar x p\nwhen x.a=b = \"1\"\nend", "gfd a\nvar x p\nthen x.a = x.b=c\nend",
		"gfd a\nvar x.y p\nvar \"q p\nwhen x.y.a = \"q.b\nthen \"q.b = x.y.a\nend",
		"gfd a\nvar x p\nthen x.__false = \"__bot0\"\nthen x.__false = \"__bot1\"\nend",
		"gfd a\nvar x p\nvar y p\nthen y.__false = \"__bot0\"\nthen y.__false = \"__bot1\"\nthen x.a = \"1\"\nend",
		"gfd a\nvar x1 a\nvar x2 a\nvar x3 a\nvar x4 a\nvar x5 a\nvar x6 a\nvar x7 a\nvar x8 a\nvar x9 a\nvar x10 a\nvar x3 b\nend",
		"gfd a\nvar x1 a\nvar x2 a\nvar x3 a\nvar x4 a\nvar x5 a\nvar x6 a\nvar x7 a\nvar x8 a\nvar x9 a\nvar x10 a\nedge x10 x1 e\nthen x9.a = x10.a\nend",
		// Several blocks, so that forced ranges cut them (checkAgainstReference):
		// an error in the last block, and in the first and the last; a block
		// missing its end before a cut; an unterminated last block; indented
		// and tab-separated gfd lines, which are no cuts, one of them inside
		// an open block; CRLF line ends.
		"gfd a\nvar x p\nend\ngfd b\nvar x p\nthen x.a = \"1\"\nend\ngfd c\nvar x p\nvar x q\nend\n",
		"gfd a\nvar x p\nbogus\nend\ngfd b\nvar x p\nend\ngfd c\nvar x p\nthen x.a = y.b\nend\n",
		"gfd a\nvar x p\nend\ngfd b\nvar x p\nwhen x.a = \"1\"\ngfd c\nvar x p\nend\ngfd d\nvar y q\nend\n",
		"gfd a\nvar x p\nend\ngfd b\nvar x p\nend\ngfd c\nvar x p\nthen false\n",
		"gfd a\nvar x p\nend\n  gfd b\nvar x p\nend\ngfd\tc\nvar x p\nend\n\tgfd d\nvar x p\nend\ngfd e\nvar x p\nend\n",
		"gfd a\nvar x p\nend\ngfd b\nvar x p\n gfd c\nvar x p\nend\ngfd d\nvar x p\nend\n",
		"gfd a\r\nvar x p\r\nend\r\ngfd b\r\nvar x p\r\nthen x.a = \"1\"\r\nend\r\ngfd c\r\nvar x p\r\nvar y q\r\nedge x y e\r\nwhen x.a = y.b\r\nend\r\n",
	}
}

// keepOdd admits the patterns whose first variable's label hashes odd: a
// strict subset of most sets, decided by what ReadGFDsWhere shows keep.
func keepOdd(p *pattern.Pattern) bool {
	if p.NumVars() == 0 {
		return false
	}
	h := fnv.New32a()
	h.Write([]byte(p.Label(0)))
	return h.Sum32()%2 == 1
}

// forcedRanges are the range counts checkAgainstReference forces on the
// range reader, past ReadGFDsWhere's minimum range size.
var forcedRanges = []int{2, 3, 8}

// checkAgainstReference holds one input to the differential contract: the
// parser and the reference accept or reject alike, with the same error text,
// and parse the same set; an accepted set is then either refused by
// WriteGFDs or read back equal from what it wrote. Parsed through a keep that
// drops some blocks (keepOdd) or all, the parser still accepts or rejects
// alike, with the same error text, and returns the reference set filtered by
// keep, in order. All of that holds too when the text is cut into 2, 3 or 8
// ranges, parsed concurrently, however short the text.
func checkAgainstReference(t *testing.T, in string) {
	t.Helper()
	got, err := ReadGFDs(strings.NewReader(in))
	want, refErr := refReadGFDs(strings.NewReader(in))
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("%q: err = %v, the reference says %v", in, err, refErr)
	}
	for name, keep := range map[string]func(*pattern.Pattern) bool{
		"all": nil, "odd": keepOdd, "none": func(*pattern.Pattern) bool { return false },
	} {
		runs := map[string]func() (*gfd.Set, error){
			"one range": func() (*gfd.Set, error) { return ReadGFDsWhere(strings.NewReader(in), keep, 1) },
		}
		for _, n := range forcedRanges {
			runs[fmt.Sprintf("%d ranges", n)] = func() (*gfd.Set, error) { return readRanges(in, keep, cutRanges(in, n)) }
		}
		for run, read := range runs {
			kept, keptErr := read()
			if (keptErr == nil) != (refErr == nil) || keptErr != nil && keptErr.Error() != refErr.Error() {
				t.Fatalf("%q, keep %s, %s: err = %v, the reference says %v", in, name, run, keptErr, refErr)
			}
			if keptErr != nil {
				continue
			}
			filtered := gfd.NewSet()
			for _, phi := range want.GFDs {
				if keep == nil || keep(phi.Pattern) {
					filtered.Add(phi)
				}
			}
			if err := sameSet(filtered, kept); err != nil {
				t.Fatalf("%q, keep %s, %s: parsed another set than the reference's kept GFDs: %v", in, name, run, err)
			}
		}
	}
	if err != nil {
		return
	}
	if err := sameSet(want, got); err != nil {
		t.Fatalf("%q: parsed another set than the reference: %v", in, err)
	}
	var b strings.Builder
	if WriteGFDs(&b, got) != nil {
		return
	}
	back, err := ReadGFDs(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%q: WriteGFDs wrote a file ReadGFDs rejects: %v\n%s", in, err, b.String())
	}
	if err := sameSet(got, back); err != nil {
		t.Fatalf("%q: round trip changed the set: %v\n%s", in, err, b.String())
	}
}

func TestReadGFDsMatchesReference(t *testing.T) {
	corpus := readCorpus()
	for _, in := range corpus {
		checkAgainstReference(t, in)
	}
	// keepOdd splits the generated set, so the filter is tested on both
	// sides of its decision.
	all, err := ReadGFDs(strings.NewReader(corpus[1]))
	kept, keptErr := ReadGFDsWhere(strings.NewReader(corpus[1]), keepOdd, 1)
	if err != nil || keptErr != nil {
		t.Fatal(err, keptErr)
	}
	if kept.Len() == 0 || kept.Len() == all.Len() {
		t.Fatalf("keepOdd kept %d of %d GFDs; want a strict, non-empty subset", kept.Len(), all.Len())
	}
	// The generated set is really cut into each forced number of ranges.
	for _, n := range forcedRanges {
		if cuts := cutRanges(corpus[1], n); len(cuts) != n {
			t.Errorf("%d forced ranges cut the generated set at %v", n, cuts)
		}
	}
}

// TestReadGFDsCutsLongFiles: ReadGFDsWhere parses a file of several minimum
// ranges in as many ranges as it has workers, into the set ReadGFDs reads.
func TestReadGFDsCutsLongFiles(t *testing.T) {
	var b strings.Builder
	g := gen.New(gen.Config{N: 1200, K: 5, L: 4, Seed: 3, WildcardRate: 0.2})
	if err := WriteGFDs(&b, g.Set()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if n := len(text) / minRangeLen; n < 4 {
		t.Fatalf("the file is %d bytes, fewer than four minimum ranges", len(text))
	}
	want, err := ReadGFDs(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		if cuts := cutRanges(text, workers); len(cuts) != workers {
			t.Fatalf("%d workers cut the file at %v", workers, cuts)
		}
		got, err := ReadGFDsWhere(strings.NewReader(text), nil, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameSet(want, got); err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
	}
}

// FuzzReadGFDs: no input panics the parser, and every input meets
// checkAgainstReference's contract.
func FuzzReadGFDs(f *testing.F) {
	for _, in := range readCorpus() {
		f.Add(in)
	}
	f.Fuzz(checkAgainstReference)
}

// refReadGFDs is ReadGFDs as it was before it stopped allocating per line —
// a bufio.Scanner, strings.Fields, a literal slice per block — kept verbatim
// as the reference the parser is differentially tested against
// (TestReadGFDsMatchesReference, FuzzReadGFDs), except for the two rejections
// both gained in the same change, marked "fix" below.
func refReadGFDs(r io.Reader) (*gfd.Set, error) {
	set := gfd.NewSet()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0

	var (
		name    string
		pat     *pattern.Pattern
		xs, ys  []gfd.Literal
		isFalse bool
		inBlock bool
	)
	reset := func() {
		name, pat, xs, ys, isFalse, inBlock = "", nil, nil, nil, false, false
	}
	reset()

	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "gfd":
			if inBlock {
				return nil, fmt.Errorf("line %d: nested gfd block", lineNo)
			}
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: gfd needs a name", lineNo)
			}
			name = fields[1]
			pat = pattern.New()
			inBlock = true
		case "var":
			if !inBlock || len(fields) != 3 {
				return nil, fmt.Errorf("line %d: bad var statement", lineNo)
			}
			if pat.VarByName(fields[1]) != pattern.InvalidVar {
				return nil, fmt.Errorf("line %d: duplicate variable %q", lineNo, fields[1])
			}
			pat.AddVar(fields[1], fields[2])
		case "edge":
			if !inBlock || len(fields) != 4 {
				return nil, fmt.Errorf("line %d: bad edge statement", lineNo)
			}
			from := pat.VarByName(fields[1])
			to := pat.VarByName(fields[2])
			if from == pattern.InvalidVar || to == pattern.InvalidVar {
				return nil, fmt.Errorf("line %d: edge references undeclared variable", lineNo)
			}
			pat.AddEdge(from, to, fields[3])
		case "when", "then":
			if !inBlock {
				return nil, fmt.Errorf("line %d: %s outside gfd block", lineNo, fields[0])
			}
			rest := strings.TrimSpace(line[len(fields[0]):])
			if fields[0] == "then" && rest == "false" {
				if len(ys) > 0 { // fix: the literals beside false were dropped
					return nil, fmt.Errorf("line %d: then false after another then literal", lineNo)
				}
				isFalse = true
				continue
			}
			if fields[0] == "then" && isFalse { // fix, the other order
				return nil, fmt.Errorf("line %d: then literal after then false", lineNo)
			}
			lit, err := refParseLiteral(pat, rest)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if fields[0] == "when" {
				xs = append(xs, lit)
			} else {
				ys = append(ys, lit)
			}
		case "end":
			if !inBlock {
				return nil, fmt.Errorf("line %d: end outside gfd block", lineNo)
			}
			var (
				phi *gfd.GFD
				err error
			)
			if isFalse {
				phi, err = gfd.NewFalse(name, pat, xs)
			} else {
				phi, err = gfd.New(name, pat, xs, ys)
			}
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			set.Add(phi)
			reset()
		default:
			return nil, fmt.Errorf("line %d: unknown statement %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if inBlock {
		return nil, fmt.Errorf("unterminated gfd block %q", name)
	}
	return set, nil
}

func refParseLiteral(pat *pattern.Pattern, s string) (gfd.Literal, error) {
	eq := strings.Index(s, "=")
	if eq < 0 {
		return gfd.Literal{}, fmt.Errorf("literal missing '=': %q", s)
	}
	lhs := strings.TrimSpace(s[:eq])
	rhs := strings.TrimSpace(s[eq+1:])
	x, a, err := refParseTerm(pat, lhs)
	if err != nil {
		return gfd.Literal{}, err
	}
	if strings.HasPrefix(rhs, "\"") {
		c, uerr := strconv.Unquote(rhs)
		if uerr != nil {
			return gfd.Literal{}, fmt.Errorf("bad constant %q: %v", rhs, uerr)
		}
		return gfd.Const(x, a, c), nil
	}
	y, b, err := refParseTerm(pat, rhs)
	if err != nil {
		return gfd.Literal{}, err
	}
	return gfd.Vars(x, a, y, b), nil
}

func refParseTerm(pat *pattern.Pattern, s string) (pattern.Var, string, error) {
	dot := strings.LastIndexByte(s, '.')
	if dot <= 0 || dot == len(s)-1 {
		return 0, "", fmt.Errorf("bad attribute term %q (want var.attr)", s)
	}
	v := pat.VarByName(s[:dot])
	if v == pattern.InvalidVar {
		return 0, "", fmt.Errorf("undeclared variable %q", s[:dot])
	}
	if strings.ContainsFunc(s[dot+1:], unicode.IsSpace) { // fix: "x.b junk" was the attribute "b junk"
		return 0, "", fmt.Errorf("bad attribute term %q (want var.attr)", s)
	}
	return v, s[dot+1:], nil
}

func TestWildcardRoundTrip(t *testing.T) {
	in := "gfd w\nvar x _\nthen x.A = \"1\"\nend\n"
	set, err := ReadGFDs(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if set.GFDs[0].Pattern.Label(0) != graph.Wildcard {
		t.Fatal("wildcard label lost")
	}
	var b strings.Builder
	if err := WriteGFDs(&b, set); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "var x _") {
		t.Fatalf("wildcard not serialized:\n%s", b.String())
	}
}
