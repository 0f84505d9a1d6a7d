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
	g, err := ReadGraph(strings.NewReader(sampleGraph))
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

func TestGraphRoundTrip(t *testing.T) {
	g, err := ReadGraph(strings.NewReader(sampleGraph))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteGraph(&b, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, b.String())
	}
	if g.String() != g2.String() {
		t.Fatalf("round trip changed graph:\n%s\nvs\n%s", g, g2)
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
		if _, err := ReadGraph(strings.NewReader(c)); err == nil {
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
