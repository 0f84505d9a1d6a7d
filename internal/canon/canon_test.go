package canon

import (
	"testing"

	"repro/internal/eq"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

func edgeP(a, b string) *pattern.Pattern {
	p := pattern.New()
	x := p.AddVar("x", a)
	y := p.AddVar("y", b)
	p.AddEdge(x, y, "e")
	return p
}

func TestBuildSigmaDisjointUnion(t *testing.T) {
	phi1 := gfd.MustNew("p1", edgeP("a", "b"), nil, []gfd.Literal{gfd.Const(0, "A", "1")})
	phi2 := gfd.MustNew("p2", edgeP("b", "c"), nil, []gfd.Literal{gfd.Const(0, "B", "2")})
	cs := BuildSigma(gfd.NewSet(phi1, phi2))
	if cs.Graph.NumNodes() != 4 || cs.Graph.NumEdges() != 2 {
		t.Fatalf("G_Σ has %d nodes %d edges; want 4, 2", cs.Graph.NumNodes(), cs.Graph.NumEdges())
	}
	// Offsets rename variables apart.
	if cs.NodeOf(0, 0) == cs.NodeOf(1, 0) {
		t.Error("patterns not renamed apart")
	}
	if cs.Graph.Label(cs.NodeOf(1, 0)) != "b" {
		t.Errorf("offset mapping wrong: label %q", cs.Graph.Label(cs.NodeOf(1, 0)))
	}
	// F_A^Σ is empty: no attributes yet.
	for i := 0; i < cs.Graph.NumNodes(); i++ {
		if len(cs.Graph.Attrs(graph.NodeID(i))) != 0 {
			t.Error("canonical graph has non-empty attribute assignment")
		}
	}
	// Terms address offset nodes.
	tm := cs.TermOf(1, 1, "B")
	if tm.Node != cs.NodeOf(1, 1) || tm.Attr != "B" {
		t.Errorf("TermOf = %v", tm)
	}
}

func TestBuildSigmaKeepsWildcards(t *testing.T) {
	p := pattern.New()
	p.AddVar("x", graph.Wildcard)
	phi := gfd.MustNew("w", p, nil, []gfd.Literal{gfd.Const(0, "A", "1")})
	cs := BuildSigma(gfd.NewSet(phi))
	if cs.Graph.Label(0) != graph.Wildcard {
		t.Errorf("wildcard node label = %q", cs.Graph.Label(0))
	}
}

func TestBuildPhiSeedsEqX(t *testing.T) {
	p := edgeP("a", "b")
	phi := gfd.MustNew("i", p,
		[]gfd.Literal{gfd.Const(0, "A", "1"), gfd.Vars(0, "B", 1, "C")},
		[]gfd.Literal{gfd.Const(1, "D", "2")})
	cp := BuildPhi(phi)
	if cp.Graph.NumNodes() != 2 {
		t.Fatalf("G^X_Q nodes = %d", cp.Graph.NumNodes())
	}
	if c, ok := cp.EqX.Const(eq.Term{Node: 0, Attr: "A"}); !ok || c != "1" {
		t.Errorf("Eq_X missing x.A=1: %q %v", c, ok)
	}
	if !cp.EqX.Same(eq.Term{Node: 0, Attr: "B"}, eq.Term{Node: 1, Attr: "C"}) {
		t.Error("Eq_X missing x.B=y.C merge")
	}
	// The construction log must be drained (Eq_X is base state, not delta).
	if d := cp.EqX.TakeDelta(); len(d) != 0 {
		t.Errorf("Eq_X left %d ops in the broadcast log", len(d))
	}
}

func TestBuildPhiTransitivity(t *testing.T) {
	// x.A = y.B and y.B = y.C must put all three in one class (F^X_A closed
	// under transitivity).
	p := edgeP("a", "b")
	phi := gfd.MustNew("t", p,
		[]gfd.Literal{gfd.Vars(0, "A", 1, "B"), gfd.Vars(1, "B", 1, "C")},
		nil)
	cp := BuildPhi(phi)
	if !cp.EqX.Same(eq.Term{Node: 0, Attr: "A"}, eq.Term{Node: 1, Attr: "C"}) {
		t.Error("transitive closure broken in Eq_X")
	}
}

func TestBuildPhiInconsistentX(t *testing.T) {
	p := edgeP("a", "b")
	phi := gfd.MustNew("c", p,
		[]gfd.Literal{gfd.Const(0, "A", "1"), gfd.Const(0, "A", "2")},
		nil)
	cp := BuildPhi(phi)
	if cp.EqX.Conflicted() == nil {
		t.Error("inconsistent X not detected at construction")
	}
}

func TestYDeduced(t *testing.T) {
	p := edgeP("a", "b")
	phi := gfd.MustNew("y", p, nil,
		[]gfd.Literal{gfd.Const(0, "A", "1"), gfd.Vars(0, "B", 1, "B")})
	cp := BuildPhi(phi)
	// YDeduced reads relations that speak Eq_X's IDs: Eq_X and its clones.
	e := cp.EqX.Clone()
	if cp.YDeduced(e) {
		t.Error("empty Eq deduces Y")
	}
	e.AssignConst(eq.Term{Node: 0, Attr: "A"}, "1")
	if cp.YDeduced(e) {
		t.Error("partial Eq deduces Y")
	}
	e.Merge(eq.Term{Node: 0, Attr: "B"}, eq.Term{Node: 1, Attr: "B"})
	if !cp.YDeduced(e) {
		t.Error("full Eq does not deduce Y")
	}
	// Equal constants deduce a variable literal without a merge.
	e2 := cp.EqX.Clone()
	e2.AssignConst(eq.Term{Node: 0, Attr: "A"}, "1")
	e2.AssignConst(eq.Term{Node: 0, Attr: "B"}, "7")
	e2.AssignConst(eq.Term{Node: 1, Attr: "B"}, "7")
	if !cp.YDeduced(e2) {
		t.Error("equal constants do not deduce x.B=y.B")
	}
	// Empty Y is trivially deduced.
	triv := gfd.MustNew("e", edgeP("a", "b"), nil, nil)
	if cpt := BuildPhi(triv); !cpt.YDeduced(cpt.EqX) {
		t.Error("empty Y not trivially deduced")
	}
}
