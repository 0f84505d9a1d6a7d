package canon

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/eq"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/oracle"
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

// bare is a GFD without literals over p, for the Σ′ tests below.
func bare(name string, p *pattern.Pattern) *gfd.GFD { return gfd.MustNew(name, p, nil, nil) }

// chainP builds the path v0 -l0-> v1 -l1-> ... over the given node labels.
func chainP(nodes []string, edges ...string) *pattern.Pattern {
	p := pattern.New()
	for i, l := range nodes {
		p.AddVar(fmt.Sprintf("v%d", i), l)
	}
	for i, l := range edges {
		p.AddEdge(pattern.Var(i), pattern.Var(i+1), l)
	}
	return p
}

// TestApplicable pins the condition on hand-made cases: label compatibility
// runs from ψ's label to Q's (a '_' of Q is data, matched by '_' only), an
// edge needs one edge of Q compatible at both ends, Σ order is kept, and the
// condition is necessary only — "split" passes edge by edge and has no match.
func TestApplicable(t *testing.T) {
	// Q: n0:a -e-> n1:_ ; n2:b -f-> n3:c
	q := pattern.New()
	q.AddEdge(q.AddVar("n0", "a"), q.AddVar("n1", "_"), "e")
	q.AddEdge(q.AddVar("n2", "b"), q.AddVar("n3", "c"), "f")
	cp := BuildPhi(bare("target", q))
	cases := []struct {
		name string
		p    *pattern.Pattern
		keep bool
	}{
		{"lone wildcard", chainP([]string{"_"}), true},
		{"label of Q", chainP([]string{"c"}), true},
		{"label absent from Q", chainP([]string{"z"}), false},
		{"one absent label among present ones", chainP([]string{"a", "z"}), false},
		{"edge of Q", chainP([]string{"b", "c"}, "f"), true},
		{"edge of Q under wildcards", chainP([]string{"_", "_"}, "_"), true},
		{"named label against Q's wildcard node", chainP([]string{"a", "b"}, "e"), false},
		{"wildcard against Q's wildcard node", chainP([]string{"a", "_"}, "e"), true},
		{"edge label absent", chainP([]string{"a", "_"}, "g"), false},
		{"edge reversed", chainP([]string{"c", "b"}, "f"), false},
		{"labels present, no such triple", chainP([]string{"a", "c"}, "f"), false},
		{"split: each edge has a compatible edge of Q, the path has no match", chainP([]string{"a", "_", "c"}, "e", "_"), true},
	}
	set := gfd.NewSet()
	var want []string
	for _, c := range cases {
		set.Add(bare(c.name, c.p))
		if c.keep {
			want = append(want, c.name)
		}
		if n := len(oracle.Matches(c.p, cp.Graph.Frozen())); !c.keep && n > 0 {
			t.Fatalf("%s: the case is wrong, the oracle finds %d matches", c.name, n)
		}
	}
	var got []string
	for _, psi := range cp.Applicable(set).GFDs {
		got = append(got, psi.Name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("Σ′ = %q\nwant %q", got, want)
	}
	if n := len(oracle.Matches(set.GFDs[len(cases)-1].Pattern, cp.Graph.Frozen())); n != 0 {
		t.Errorf("split has %d matches; it is there to show the condition is not sufficient", n)
	}
}

// TestApplicableDropsOnlyMatchlessGFDs is the filter's soundness against the
// independent oracle: on generated Σ and each kind of generated target, at
// the default, a moderate and a total wildcard rate, every GFD outside Σ′ has
// no homomorphism into G^X_Q, Σ′ keeps Σ's order, and a GFD over one wildcard
// variable is never dropped.
func TestApplicableDropsOnlyMatchlessGFDs(t *testing.T) {
	for _, rate := range []float64{0, 0.4, 1.0} {
		for seed := int64(1); seed <= 3; seed++ {
			gr := gen.New(gen.Config{N: 120, K: 5, L: 3, WildcardRate: rate, Seed: seed})
			set, chain := gr.ImpInstance(4)
			wild := bare("wild", chainP([]string{"_"}))
			set.GFDs = slices.Insert(set.GFDs, set.Len()/2, wild)
			dropped, matchless := 0, 0
			for _, phi := range []*gfd.GFD{chain, gr.ImpliedGFD(set), gr.NonImpliedGFD()} {
				cp := BuildPhi(phi)
				g := cp.Graph.Frozen()
				kept := cp.Applicable(set).GFDs
				for _, psi := range set.GFDs {
					if len(kept) > 0 && kept[0] == psi {
						kept = kept[1:]
						if len(oracle.Matches(psi.Pattern, g)) == 0 {
							matchless++
						}
						continue
					}
					dropped++
					if psi == wild {
						t.Errorf("rate %v seed %d, %s: the lone-wildcard GFD was dropped", rate, seed, phi.Name)
					}
					if ms := oracle.Matches(psi.Pattern, g); len(ms) > 0 {
						t.Errorf("rate %v seed %d, %s: dropped %s, which has %d matches in G^X_Q", rate, seed, phi.Name, psi.Name, len(ms))
					}
				}
				if len(kept) > 0 {
					t.Errorf("rate %v seed %d, %s: Σ′ is not a subsequence of Σ (%d left over)", rate, seed, phi.Name, len(kept))
				}
			}
			t.Logf("rate %v seed %d: %d of %d (GFD, target) pairs dropped; %d kept without a match", rate, seed, dropped, 3*set.Len(), matchless)
		}
	}
}
