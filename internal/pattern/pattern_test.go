package pattern

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// q3 builds the paper's Q3-like pattern: x,y (person) each -president_of->
// z (country), plus x,y -nationality-> w1/w2 — simplified to 4 vars here:
// x -p-> z, y -p-> z.
func vee() *Pattern {
	p := New()
	x := p.AddVar("x", "person")
	y := p.AddVar("y", "person")
	z := p.AddVar("z", "country")
	p.AddEdge(x, z, "president")
	p.AddEdge(y, z, "vice")
	return p
}

func TestAddVarAndLookup(t *testing.T) {
	p := vee()
	if p.NumVars() != 3 {
		t.Fatalf("NumVars = %d", p.NumVars())
	}
	if v := p.VarByName("y"); v == InvalidVar || p.Label(v) != "person" {
		t.Errorf("VarByName(y) broken: %v", v)
	}
	if p.VarByName("nope") != InvalidVar {
		t.Error("VarByName on missing name should be InvalidVar")
	}
}

func TestDuplicateVarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate AddVar did not panic")
		}
	}()
	p := New()
	p.AddVar("x", "a")
	p.AddVar("x", "b")
}

// TestCloneOutlivesItsScratch pins the scratch-pattern protocol the rule
// reader uses: a Clone is independent of the pattern it was taken from, which
// Reset then empties for the next block, names included.
func TestCloneOutlivesItsScratch(t *testing.T) {
	scratch := vee()
	c := scratch.Clone()
	want := vee().String()
	scratch.Reset()
	if scratch.NumVars() != 0 || len(scratch.Edges()) != 0 || scratch.VarByName("x") != InvalidVar {
		t.Fatalf("Reset left %q", scratch)
	}
	scratch.AddVar("x", "other")
	if c.String() != want || c.VarByName("z") != 2 || !StructuralEqual(c, vee()) {
		t.Fatalf("clone %q changed with its scratch; want %q", c, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Reset of a frozen pattern did not panic")
		}
	}()
	c.Freeze()
	c.Reset()
}

func TestComponentsConnected(t *testing.T) {
	p := vee()
	if len(p.Components()) != 1 {
		t.Error("vee pattern should be connected")
	}
	q := New()
	q.AddVar("a", "x")
	q.AddVar("b", "y")
	if len(q.Components()) == 1 {
		t.Error("two isolated vars reported connected")
	}
	if got := len(q.Components()); got != 2 {
		t.Errorf("components = %d, want 2", got)
	}
}

func TestLabelMatches(t *testing.T) {
	cases := []struct {
		pat, data string
		want      bool
	}{
		{"person", "person", true},
		{"person", "place", false},
		{graph.Wildcard, "anything", true},
		{graph.Wildcard, graph.Wildcard, true},
		{"person", graph.Wildcard, false}, // data '_' only matched by pattern '_'
	}
	for _, c := range cases {
		if got := LabelMatches(c.pat, c.data); got != c.want {
			t.Errorf("LabelMatches(%q,%q) = %v, want %v", c.pat, c.data, got, c.want)
		}
	}
}

func TestPivotPrefersSelectiveLabel(t *testing.T) {
	p := vee()
	g := graph.New()
	for i := 0; i < 10; i++ {
		g.AddNode("person")
	}
	g.AddNode("country")
	pivots := p.Pivot(g)
	if len(pivots) != 1 {
		t.Fatalf("pivots = %v, want one per component", pivots)
	}
	if p.Label(pivots[0]) != "country" {
		t.Errorf("pivot label = %s, want the selective label country", p.Label(pivots[0]))
	}
}

func TestPivotOnePerComponent(t *testing.T) {
	p := New()
	a := p.AddVar("a", "x")
	b := p.AddVar("b", "y")
	p.AddEdge(a, a, "self")
	_ = b
	g := graph.New()
	g.AddNode("x")
	g.AddNode("y")
	if got := len(p.Pivot(g)); got != 2 {
		t.Errorf("pivots = %d, want 2 (one per component)", got)
	}
}

func TestMatchOrderConnectivity(t *testing.T) {
	p := vee()
	order := p.PivotOrder(p.VarByName("z"))
	if len(order) != 3 || order[0] != p.VarByName("z") {
		t.Fatalf("order = %v", order)
	}
	// Every subsequent var must touch an earlier one.
	placed := map[Var]bool{order[0]: true}
	for _, v := range order[1:] {
		touching := false
		for _, e := range p.Out(v) {
			if placed[e.To] {
				touching = true
			}
		}
		for _, e := range p.In(v) {
			if placed[e.From] {
				touching = true
			}
		}
		if !touching {
			t.Errorf("var %v placed without an assigned neighbor", v)
		}
		placed[v] = true
	}
}

// TestAppendToIsADisjointUnion appends one pattern after another into both
// build targets: each copy lands at the returned offset, labels (a wildcard
// kept as the literal '_') and edges shifted with it, nothing crossing
// between copies — the disjoint union G_Σ and G^X_Q are built by.
func TestAppendToIsADisjointUnion(t *testing.T) {
	p := vee()
	loop := New()
	loop.AddEdge(loop.AddVar("x", "extra"), 0, "self")
	wild := New()
	wild.AddVar("w", graph.Wildcard)
	g, b := graph.New(), graph.NewBuilder(0)
	for _, sink := range []graph.Sink{g, b} {
		if off := p.AppendTo(sink); off != 0 {
			t.Fatalf("first offset = %d, want 0", off)
		}
		if off := loop.AppendTo(sink); off != 3 {
			t.Fatalf("second offset = %d, want 3", off)
		}
		if off := p.AppendTo(sink); off != 4 {
			t.Fatalf("third offset = %d, want 4", off)
		}
		if off := wild.AppendTo(sink); off != 7 {
			t.Fatalf("fourth offset = %d, want 7", off)
		}
	}
	x, z := graph.NodeID(p.VarByName("x")), graph.NodeID(p.VarByName("z"))
	for name, r := range map[string]graph.Reader{"graph": g, "builder": b.Freeze()} {
		if r.NumNodes() != 8 || r.NumEdges() != 5 {
			t.Fatalf("%s: union has %d nodes %d edges; want 8, 5", name, r.NumNodes(), r.NumEdges())
		}
		if r.Label(7) != graph.Wildcard {
			t.Errorf("%s: wildcard label = %q, want %q", name, r.Label(7), graph.Wildcard)
		}
		if !graph.HasEdge(r, 3, 3, "self") || r.Label(3) != "extra" {
			t.Errorf("%s: self-loop not shifted to its offset", name)
		}
		if !graph.HasEdge(r, 4+x, 4+z, "president") || r.Label(4+z) != "country" {
			t.Errorf("%s: second copy not shifted to its offset", name)
		}
		if graph.HasEdge(r, x, 4+z, "president") || graph.HasEdge(r, 4+x, z, "president") {
			t.Errorf("%s: union invents an edge between copies", name)
		}
	}
}

// TestFreezeDerivedDataPinned pins what Freeze derives — components and
// signatures — on the shapes its walks can get wrong, to the values the
// map-based implementation it replaced computed. The component order is part
// of the pin: "crossed" has its smaller-member component second, because the
// components stand in union-find root order, and Pivot, PivotOrder and the
// matcher walk them in that order.
func TestFreezeDerivedDataPinned(t *testing.T) {
	type edge struct {
		from, to int
		label    string
	}
	cases := []struct {
		name  string
		vars  int
		edges []edge
		want  string // components | signatures
	}{
		{"single variable", 1, nil,
			"[[0]] | [{[] []}]"},
		{"self-loop", 1, []edge{{0, 0, "s"}},
			"[[0]] | [{[s] [s]}]"},
		{"self-loop beside an isolated variable", 2, []edge{{0, 0, "s"}},
			"[[0] [1]] | [{[s] [s]} {[] []}]"},
		{"directed 3-cycle", 3, []edge{{0, 1, "a"}, {1, 2, "b"}, {2, 0, "c"}},
			"[[0 1 2]] | [{[a] [c]} {[b] [a]} {[c] [b]}]"},
		{"4-cycle with a chord and a parallel edge", 4, []edge{{0, 1, "e"}, {1, 2, "e"}, {2, 3, "e"}, {3, 0, "e"}, {0, 2, "_"}, {0, 1, "f"}},
			"[[0 1 2 3]] | [{[_ e f] [e]} {[e] [e f]} {[e] [_ e]} {[e] [e]}]"},
		{"chain of five, edges against the chain", 5, []edge{{1, 0, "e"}, {2, 1, "e"}, {3, 2, "e"}, {4, 3, "e"}},
			"[[0 1 2 3 4]] | [{[] [e]} {[e] [e]} {[e] [e]} {[e] [e]} {[e] []}]"},
		{"two components in declaration order", 4, []edge{{0, 1, "e"}, {3, 2, "e"}},
			"[[0 1] [2 3]] | [{[e] []} {[] [e]} {[] [e]} {[e] []}]"},
		{"crossed", 4, []edge{{0, 3, "e"}, {1, 2, "e"}},
			"[[1 2] [0 3]] | [{[e] []} {[e] []} {[] [e]} {[] [e]}]"},
		{"star, an isolated variable, a pair", 7, []edge{{0, 1, "a"}, {0, 2, "b"}, {0, 3, "a"}, {6, 5, "c"}},
			"[[0 1 2 3] [4] [5 6]] | [{[a b] []} {[] [a]} {[] [b]} {[] [a]} {[] []} {[] [c]} {[c] []}]"},
	}
	for _, c := range cases {
		p := New()
		for i := 0; i < c.vars; i++ {
			p.AddVar(fmt.Sprintf("x%d", i), "l")
		}
		for _, e := range c.edges {
			p.AddEdge(Var(e.from), Var(e.to), e.label)
		}
		sigs := make([]graph.Signature, c.vars)
		for v := range sigs {
			sigs[v] = p.Signature(Var(v))
		}
		if got := fmt.Sprintf("%v | %v", p.Components(), sigs); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.name, got, c.want)
		}
	}
}
