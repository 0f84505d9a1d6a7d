package match

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// triangleData: v0 -e-> v1 -e-> v2 -e-> v0, all labeled "n".
func triangleData() *graph.Graph {
	g := graph.New()
	a := g.AddNode("n")
	b := g.AddNode("n")
	c := g.AddNode("n")
	g.AddEdge(a, b, "e")
	g.AddEdge(b, c, "e")
	g.AddEdge(c, a, "e")
	return g
}

func edgePattern(fromLabel, toLabel, edgeLabel string) *pattern.Pattern {
	p := pattern.New()
	x := p.AddVar("x", fromLabel)
	y := p.AddVar("y", toLabel)
	p.AddEdge(x, y, edgeLabel)
	return p
}

func TestFindAllSimpleEdge(t *testing.T) {
	g := triangleData()
	p := edgePattern("n", "n", "e")
	ms := FindAll(p, g)
	if len(ms) != 3 {
		t.Fatalf("edge pattern in triangle: %d matches, want 3", len(ms))
	}
	for _, h := range ms {
		if !graph.HasEdge(g, h[0], h[1], "e") {
			t.Errorf("reported match %v has no edge", h)
		}
	}
}

func TestHomomorphismAllowsNonInjective(t *testing.T) {
	// Data: single node with a self-loop. Pattern: x -e-> y (two vars).
	// Under homomorphism x and y may both map to the node.
	g := graph.New()
	a := g.AddNode("n")
	g.AddEdge(a, a, "e")
	p := edgePattern("n", "n", "e")
	ms := FindAll(p, g)
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1 (x,y both to the loop node)", len(ms))
	}
	if ms[0][0] != a || ms[0][1] != a {
		t.Errorf("match = %v", ms[0])
	}
}

func TestWildcardSemantics(t *testing.T) {
	g := graph.New()
	a := g.AddNode("car")
	b := g.AddNode(graph.Wildcard) // a wildcard node in a canonical graph
	g.AddEdge(a, b, "has")

	// Wildcard pattern node matches both labels.
	p := pattern.New()
	x := p.AddVar("x", graph.Wildcard)
	_ = x
	if got := len(FindAll(p, g)); got != 2 {
		t.Errorf("wildcard var matches = %d, want 2", got)
	}
	// Concrete pattern label does not match the '_' data node.
	q := pattern.New()
	q.AddVar("x", "car")
	if got := len(FindAll(q, g)); got != 1 {
		t.Errorf("car matches = %d, want 1", got)
	}
	// Wildcard edge label matches any edge.
	r := pattern.New()
	rx := r.AddVar("x", "car")
	ry := r.AddVar("y", graph.Wildcard)
	r.AddEdge(rx, ry, graph.Wildcard)
	if got := len(FindAll(r, g)); got != 1 {
		t.Errorf("wildcard edge matches = %d, want 1", got)
	}
}

func TestEdgeLabelRespected(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("n"), g.AddNode("n")
	g.AddEdge(a, b, "likes")
	p := edgePattern("n", "n", "hates")
	if got := len(FindAll(p, g)); got != 0 {
		t.Errorf("wrong-label matches = %d, want 0", got)
	}
}

func TestDirectionRespected(t *testing.T) {
	g := graph.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddEdge(a, b, "e")
	p := edgePattern("b", "a", "e") // asks for b -> a, which does not exist
	if got := len(FindAll(p, g)); got != 0 {
		t.Errorf("reversed matches = %d, want 0", got)
	}
}

func TestCyclicPattern(t *testing.T) {
	// Paper Q1: x -locatedIn-> y, y -partOf-> x (a 2-cycle).
	g := graph.New()
	ap := g.AddNode("place")
	bp := g.AddNode("place")
	cp := g.AddNode("place")
	g.AddEdge(ap, bp, "locatedIn")
	g.AddEdge(bp, ap, "partOf")
	g.AddEdge(bp, cp, "locatedIn") // no back-edge: not part of a cycle match
	p := pattern.New()
	x := p.AddVar("x", "place")
	y := p.AddVar("y", "place")
	p.AddEdge(x, y, "locatedIn")
	p.AddEdge(y, x, "partOf")
	ms := FindAll(p, g)
	if len(ms) != 1 {
		t.Fatalf("cyclic matches = %d, want 1", len(ms))
	}
	if ms[0][x] != ap || ms[0][y] != bp {
		t.Errorf("match = %v", ms[0])
	}
}

func TestSeededSearch(t *testing.T) {
	g := triangleData()
	p := edgePattern("n", "n", "e")
	// Pin x to node 1: a one-node root frame.
	s := NewSearch(p, g, Options{RootCandidates: []graph.NodeID{1}, Order: []pattern.Var{0, 1}})
	var got []Assignment
	for {
		h, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, h.Clone())
	}
	if len(got) != 1 || got[0][0] != 1 || got[0][1] != 2 {
		t.Fatalf("seeded matches = %v, want [[1 2]]", got)
	}
}

func TestDisconnectedPatternCrossProduct(t *testing.T) {
	g := graph.New()
	g.AddNode("a")
	g.AddNode("a")
	g.AddNode("b")
	g.AddNode("b")
	g.AddNode("b")
	p := pattern.New()
	p.AddVar("x", "a")
	p.AddVar("y", "b")
	if got := len(FindAll(p, g)); got != 6 {
		t.Errorf("cross product matches = %d, want 6", got)
	}
}

// TestPivotRestrictionConfinesMatches pins the property the parallel engine's
// work units rely on instead of an explicit candidate restriction: a search
// rooted at a pivot, following a pivot-first order, generates every further
// candidate from an assigned neighbor's adjacency and so never leaves the
// pivot's d_Q-neighborhood.
func TestPivotRestrictionConfinesMatches(t *testing.T) {
	// Two disjoint triangles; pivoting in one must not match the other.
	g := triangleData()
	off := graph.NodeID(g.NumNodes())
	for i := 0; i < 3; i++ {
		g.AddNode("n")
	}
	for i := graph.NodeID(0); i < 3; i++ {
		g.AddEdge(off+i, off+(i+1)%3, "e")
	}
	p := edgePattern("n", "n", "e")
	s := NewSearch(p, g, Options{RootCandidates: []graph.NodeID{off}, Order: p.PivotOrder(0)})
	n := 0
	for {
		h, ok := s.Next()
		if !ok {
			break
		}
		for _, v := range h {
			if v < off || v > off+2 {
				t.Errorf("match escaped the pivot neighborhood: %v", h)
			}
		}
		n++
	}
	if n != 1 {
		t.Errorf("pivoted matches = %d, want 1", n)
	}
}

// TestSplitPreservesMatchSet: cutting the root frame's candidates into
// parts — one node each, here — and running one search per part finds every
// match exactly once. The parallel engines' work units are such parts.
func TestSplitPreservesMatchSet(t *testing.T) {
	// A star graph: center "c" with many leaves; rooted at the leaf, the
	// pattern c->leaf has one root candidate per match.
	g := graph.New()
	c := g.AddNode("c")
	var leaves []graph.NodeID
	for i := 0; i < 8; i++ {
		l := g.AddNode("l")
		g.AddEdge(c, l, "e")
		leaves = append(leaves, l)
	}
	p := edgePattern("c", "l", "e")

	baseline := len(FindAll(p, g))
	if baseline != 8 {
		t.Fatalf("baseline = %d, want 8", baseline)
	}
	var collected []Assignment
	for _, l := range leaves {
		sub := NewSearch(p, g, Options{Order: p.PivotOrder(1), RootCandidates: []graph.NodeID{l}})
		for h, ok := sub.Next(); ok; h, ok = sub.Next() {
			collected = append(collected, h.Clone())
		}
	}
	if len(collected) != baseline {
		t.Fatalf("split lost/duplicated matches: got %d, want %d", len(collected), baseline)
	}
	seen := map[graph.NodeID]bool{}
	for _, h := range collected {
		if seen[h[1]] {
			t.Fatalf("duplicate match for leaf %d", h[1])
		}
		seen[h[1]] = true
	}
}

// Property: on random graphs, cutting the root frame's candidates at a
// random point into two ranges preserves the exact number of matches of a
// 3-variable path.
func TestQuickSplitEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		n := 3 + rng.Intn(8)
		for i := 0; i < n; i++ {
			g.AddNode("n")
		}
		for i := 0; i < n*2; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "e")
		}
		p := pattern.New()
		x := p.AddVar("x", "n")
		y := p.AddVar("y", "n")
		z := p.AddVar("z", "n")
		p.AddEdge(x, y, "e")
		p.AddEdge(y, z, "e")

		want := len(FindAll(p, g))
		roots := graph.CandidateNodes(g, "n")
		cut := rng.Intn(len(roots) + 1)
		got := 0
		for _, part := range [][]graph.NodeID{roots[:cut], roots[cut:]} {
			got += NewSearch(p, g, Options{RootCandidates: part}).CountAll()
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSimulatePrefilter(t *testing.T) {
	g := triangleData()
	p := edgePattern("n", "n", "e")
	sim := Simulate(p, g)
	if sim == nil {
		t.Fatal("simulation empty though homomorphism exists")
	}
	for v := 0; v < p.NumVars(); v++ {
		if got := len(sim.Nodes(pattern.Var(v))); got != 3 {
			t.Errorf("sim(%d) = %d nodes, want 3", v, got)
		}
	}
	// A pattern demanding a missing edge label cannot simulate.
	q := edgePattern("n", "n", "missing")
	if Simulate(q, g) != nil {
		t.Error("simulation nonempty though no homomorphism exists")
	}
}

func TestSimulateSoundness(t *testing.T) {
	// Every homomorphism image must lie inside the simulation sets.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		n := 3 + rng.Intn(6)
		labels := []string{"a", "b"}
		for i := 0; i < n; i++ {
			g.AddNode(labels[rng.Intn(2)])
		}
		for i := 0; i < n*2; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), "e")
		}
		p := pattern.New()
		x := p.AddVar("x", labels[rng.Intn(2)])
		y := p.AddVar("y", labels[rng.Intn(2)])
		p.AddEdge(x, y, "e")
		sim := Simulate(p, g)
		for _, h := range FindAll(p, g) {
			if sim == nil {
				return false
			}
			if !sim.Has(x, h[x]) || !sim.Has(y, h[y]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
