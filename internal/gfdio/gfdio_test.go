package gfdio

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
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
	cases := []string{
		"var x p",                                   // var outside block
		"gfd a\nvar x p\ngfd b",                     // nested block
		"gfd a\nvar x p\nwhen x.A 1\nend",           // missing =
		"gfd a\nvar x p\nwhen y.A = \"1\"\nend",     // undeclared var
		"gfd a\nvar x p\nedge x y e\nend",           // undeclared edge endpoint
		"gfd a\nvar x p",                            // unterminated
		"gfd a\nvar x p\nvar x q\nend",              // duplicate variable
		"gfd a\nend",                                // no variables
		"gfd a\nvar x p\nthen x.A = notquoted\nend", // bad rhs: neither quote nor term... actually a term "notquoted" lacks a dot
	}
	for _, c := range cases {
		if _, err := ReadGFDs(strings.NewReader(c)); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
	_, err := ReadGFDs(strings.NewReader("gfd a\nvar x p\nvar x q\nend"))
	if want := `line 3: duplicate variable "x"`; err == nil || err.Error() != want {
		t.Errorf("repeated var: err = %v, want %s", err, want)
	}
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
