package oracle

import (
	"fmt"
	"testing"

	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// The oracle's own anchor: answers worked out by hand on a five-node graph.
//
//	0:a -e-> 1:b -e-> 2:a,   0 -f-> 2,   2 -e-> 2 (loop),   3:b isolated,
//	4:a removed (its edge 4 -e-> 1 goes with it)
func fixture() *graph.Graph {
	g := graph.New()
	for _, l := range []string{"a", "b", "a", "b", "a"} {
		g.AddNode(l)
	}
	g.AddEdge(0, 1, "e")
	g.AddEdge(1, 2, "e")
	g.AddEdge(0, 2, "f")
	g.AddEdge(2, 2, "e")
	g.AddEdge(4, 1, "e")
	g.RemoveNode(4)
	g.SetAttr(0, "k", "1")
	g.SetAttr(1, "k", "1")
	g.SetAttr(2, "k", "2")
	return g
}

func TestMatchesByHand(t *testing.T) {
	g := fixture()
	cases := []struct {
		name string
		p    func(*pattern.Pattern)
		want string
	}{
		{"single a skips the removed node", func(p *pattern.Pattern) { p.AddVar("x", "a") }, "[[0] [2]]"},
		{"a -e-> b", func(p *pattern.Pattern) { p.AddEdge(p.AddVar("x", "a"), p.AddVar("y", "b"), "e") }, "[[0 1]]"},
		{"wildcard node and edge, target a", func(p *pattern.Pattern) {
			p.AddEdge(p.AddVar("x", "_"), p.AddVar("y", "a"), "_")
		}, "[[0 2] [1 2] [2 2]]"},
		{"self loop", func(p *pattern.Pattern) { x := p.AddVar("x", "a"); p.AddEdge(x, x, "e") }, "[[2]]"},
		{"two variables on one node", func(p *pattern.Pattern) {
			p.AddEdge(p.AddVar("x", "a"), p.AddVar("y", "a"), "e")
		}, "[[2 2]]"},
		{"disconnected is a cross product", func(p *pattern.Pattern) { p.AddVar("x", "a"); p.AddVar("y", "b") }, "[[0 1] [0 3] [2 1] [2 3]]"},
	}
	for _, c := range cases {
		p := pattern.New()
		c.p(p)
		if got := fmt.Sprint(Matches(p, g)); got != c.want {
			t.Errorf("%s: Matches = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSimulationByHand(t *testing.T) {
	g := fixture()
	cases := []struct {
		name string
		p    func(*pattern.Pattern)
		want string
	}{
		{"single a skips the removed node", func(p *pattern.Pattern) { p.AddVar("x", "a") }, "[[0 2]]"},
		{"a -e-> b: the loop at 2 ends in an a, 3 has no edge", func(p *pattern.Pattern) {
			p.AddEdge(p.AddVar("x", "a"), p.AddVar("y", "b"), "e")
		}, "[[0] [1]]"},
		{"wildcard chain: 0 has no live in-edge, 1 no in-edge from a middle", func(p *pattern.Pattern) {
			x, y, z := p.AddVar("x", "_"), p.AddVar("y", "_"), p.AddVar("z", "_")
			p.AddEdge(x, y, "e")
			p.AddEdge(y, z, "e")
		}, "[[0 1 2] [1 2] [2]]"},
		{"two-cycle collapses onto the loop", func(p *pattern.Pattern) {
			x, y := p.AddVar("x", "_"), p.AddVar("y", "_")
			p.AddEdge(x, y, "e")
			p.AddEdge(y, x, "e")
		}, "[[2] [2]]"},
		{"an empty variable empties the relation", func(p *pattern.Pattern) {
			p.AddEdge(p.AddVar("x", "a"), p.AddVar("y", "b"), "f")
		}, "[]"},
	}
	for _, c := range cases {
		p := pattern.New()
		c.p(p)
		if got := fmt.Sprint(Simulation(p, g)); got != c.want {
			t.Errorf("%s: Simulation = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestViolationsByHand(t *testing.T) {
	g := fixture()
	edge := func() *pattern.Pattern {
		p := pattern.New()
		p.AddEdge(p.AddVar("x", "_"), p.AddVar("y", "_"), "e")
		return p
	}
	set := gfd.NewSet()
	// Matches of _ -e-> _: [0 1] [1 2] [2 2]. x.k = y.k fails only at [1 2].
	set.Add(gfd.MustNew("same-k", edge(), nil, []gfd.Literal{gfd.Vars(0, "k", 1, "k")}))
	// X = {x.k = "1"} holds at [0 1] and [1 2]; y.missing never exists.
	set.Add(gfd.MustNew("missing", edge(), []gfd.Literal{gfd.Const(0, "k", "1")}, []gfd.Literal{gfd.Const(1, "missing", "v")}))
	var got []string
	for _, v := range Violations(g, set) {
		got = append(got, fmt.Sprint(v.GFD.Name, v.Match))
	}
	if want := "[same-k[1 2] missing[0 1] missing[1 2]]"; fmt.Sprint(got) != want {
		t.Errorf("Violations = %v, want %s", got, want)
	}
}
