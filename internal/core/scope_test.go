package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/oracle"
	"repro/internal/pattern"
)

// scopeSigma is a hand-built Σ for the cases generated sets may miss: an
// edgeless pattern, two disconnected ones, a G_Σ '_' node next to a node a
// concrete label names, and a '_' edge label in Σ and in a pattern.
func scopeSigma() *gfd.Set {
	y := []gfd.Literal{gfd.Const(0, "A", "1")}
	build := func(name string, labels []string, edges ...[3]string) *gfd.GFD {
		p := pattern.New()
		for i, l := range labels {
			p.AddVar(fmt.Sprintf("v%d", i), l)
		}
		for _, e := range edges {
			p.AddEdge(p.VarByName(e[0]), p.VarByName(e[1]), e[2])
		}
		return gfd.MustNew(name, p, nil, y)
	}
	return gfd.NewSet(
		build("lone", []string{"a"}),
		build("lone wildcard", []string{graph.Wildcard}),
		build("a-e-b", []string{"a", "b"}, [3]string{"v0", "v1", "e"}),
		build("_-e-b", []string{graph.Wildcard, "b"}, [3]string{"v0", "v1", "e"}),
		build("a-_-b", []string{"a", "b"}, [3]string{"v0", "v1", graph.Wildcard}),
		build("a-e-b and c", []string{"a", "b", "c"}, [3]string{"v0", "v1", "e"}),
		build("a-e-b and b-f-c", []string{"a", "b", "b", "c"}, [3]string{"v0", "v1", "e"}, [3]string{"v2", "v3", "f"}),
		build("_-_-_", []string{graph.Wildcard, graph.Wildcard}, [3]string{"v0", "v1", graph.Wildcard}),
	)
}

// TestScopedSigmaMatchesFull pins matching on G_Σ scoped to the GFD copies
// that can host a pattern (canon.Sigma.Scope) to the unscoped definition:
// for every GFD, SeqSat's search enumerates the matches a search rooted in
// the whole label index does, in the same order; for every pattern group,
// a simulation started from the scope equals the one started from the
// label index and oracle.Simulation. (ParSat's units, cut from the scope,
// are held to the full match set by TestUnitsPartitionGroupRoots.) The sets are gen's at wildcard rates
// 0 (gen's default, 0.1), 0.3 and 1, the paper's worked examples, and
// scopeSigma.
func TestScopedSigmaMatchesFull(t *testing.T) {
	sets := map[string]*gfd.Set{"hand-built": scopeSigma(), "Example 8": impExample8Sigma()}
	paper := gfd.NewSet()
	for i, p := range []*pattern.Pattern{q5(), q6(), q7(), q8(), q9()} {
		paper.Add(gfd.MustNew(fmt.Sprintf("q%d", i+5), p, nil, []gfd.Literal{gfd.Const(0, "A", "1")}))
	}
	sets["Fig. 2"] = paper
	for _, rate := range []float64{0, 0.3, 1} {
		for seed := int64(1); seed <= 3; seed++ {
			sets[fmt.Sprintf("rate %v seed %d", rate, seed)] = gen.New(gen.Config{N: 40, K: 4, L: 3, WildcardRate: rate, Seed: seed}).Set()
		}
	}
	for name, set := range sets {
		cs := canon.BuildSigma(set)
		g := cs.Graph.Frozen()
		matches := 0
		for _, phi := range set.GFDs {
			var scoped []match.Assignment
			if s := sigmaSearch(cs, phi.Pattern, g); s != nil {
				for h, ok := s.Next(); ok; h, ok = s.Next() {
					scoped = append(scoped, h.Clone())
				}
			}
			full := match.FindAll(phi.Pattern, g)
			if !slices.EqualFunc(scoped, full, slices.Equal) {
				t.Fatalf("%s, %s: scoped search found %v, full %v", name, phi.Name, scoped, full)
			}
			matches += len(full)
		}
		sim := match.NewSimulator(g)
		simulated := 0
		for _, grp := range set.Groups() {
			p := grp.Pattern
			var scoped *match.Sim
			if base, ok := cs.Scope(p); ok {
				scoped = sim.Simulate(p, base)
			}
			full, want := match.Simulate(p, g), oracle.Simulation(p, g)
			if (scoped == nil) != (want == nil) || (full == nil) != (want == nil) {
				t.Fatalf("%s, %s: simulation exists scoped %v, full %v, oracle %v", name, p, scoped != nil, full != nil, want != nil)
			}
			for v := range want {
				if s, f := scoped.Nodes(pattern.Var(v)), full.Nodes(pattern.Var(v)); !slices.Equal(s, want[v]) || !slices.Equal(f, want[v]) {
					t.Fatalf("%s, %s: sim(%s) scoped %v, full %v, oracle %v", name, p, p.Name(pattern.Var(v)), s, f, want[v])
				}
			}
			if want != nil {
				simulated++
			}
		}
		if matches == 0 || simulated == 0 {
			t.Fatalf("%s: %d matches, %d groups simulated: the set tests nothing", name, matches, simulated)
		}
	}
}

// TestScopeWildcardSemantics pins what the equivalence above cannot see: a
// scope wider than needed still finds every match. A concrete label must not
// scope G_Σ's '_' nodes, a concrete edge label must not count a '_' edge of
// G_Σ, a pattern '_' scopes every label, and an edgeless component is left
// to the label index.
func TestScopeWildcardSemantics(t *testing.T) {
	set := scopeSigma()
	cs := canon.BuildSigma(set)
	named := func(name string) int {
		return slices.IndexFunc(set.GFDs, func(phi *gfd.GFD) bool { return phi.Name == name })
	}
	// nodes maps "<GFD name> v<i>" to the G_Σ node of that variable.
	nodes := func(names ...string) []graph.NodeID {
		var out []graph.NodeID
		for _, n := range names {
			i, v := n[:len(n)-3], pattern.Var(n[len(n)-1]-'0')
			out = append(out, cs.NodeOf(named(i), v))
		}
		slices.Sort(out)
		return out
	}
	q := func(labels []string, edge string) *pattern.Pattern {
		p := pattern.New()
		for i, l := range labels {
			p.AddVar(fmt.Sprintf("x%d", i), l)
		}
		p.AddEdge(0, 1, edge)
		return p
	}
	for _, tc := range []struct {
		name string
		p    *pattern.Pattern
		want [2][]graph.NodeID
	}{
		{"a -e-> b", q([]string{"a", "b"}, "e"), [2][]graph.NodeID{
			nodes("a-e-b v0", "a-e-b and c v0", "a-e-b and b-f-c v0"),
			nodes("a-e-b v1", "a-e-b and c v1", "a-e-b and b-f-c v1", "a-e-b and b-f-c v2"),
		}},
		{"_ -e-> b", q([]string{graph.Wildcard, "b"}, "e"), [2][]graph.NodeID{
			nodes("a-e-b v0", "a-e-b v1", "_-e-b v0", "_-e-b v1", "a-e-b and c v0", "a-e-b and c v1", "a-e-b and c v2",
				"a-e-b and b-f-c v0", "a-e-b and b-f-c v1", "a-e-b and b-f-c v2", "a-e-b and b-f-c v3"),
			nodes("a-e-b v1", "_-e-b v1", "a-e-b and c v1", "a-e-b and b-f-c v1", "a-e-b and b-f-c v2"),
		}},
		{"a -_-> b", q([]string{"a", "b"}, graph.Wildcard), [2][]graph.NodeID{
			nodes("a-e-b v0", "a-_-b v0", "a-e-b and c v0", "a-e-b and b-f-c v0"),
			nodes("a-e-b v1", "a-_-b v1", "a-e-b and c v1", "a-e-b and b-f-c v1", "a-e-b and b-f-c v2"),
		}},
		{"b -_-> _", q([]string{"b", graph.Wildcard}, graph.Wildcard), [2][]graph.NodeID{
			nodes("a-e-b and b-f-c v1", "a-e-b and b-f-c v2"),
			nodes("a-e-b and b-f-c v0", "a-e-b and b-f-c v1", "a-e-b and b-f-c v2", "a-e-b and b-f-c v3"),
		}},
	} {
		scope, ok := cs.Scope(tc.p)
		if !ok || !slices.Equal(scope[0], tc.want[0]) || !slices.Equal(scope[1], tc.want[1]) {
			t.Errorf("%s: scope %v (ok %v), want %v", tc.name, scope, ok, tc.want)
		}
	}
	if _, ok := cs.Scope(q([]string{"c", "a"}, "e")); ok {
		t.Error("c -e-> a: no copy holds the triple, yet Scope reports hosts")
	}
	lone := pattern.New()
	lone.AddVar("x", "a")
	lone.AddVar("y", graph.Wildcard)
	if scope, ok := cs.Scope(lone); !ok || scope[0] != nil || scope[1] != nil {
		t.Errorf("edgeless pattern: scope %v (ok %v), want nil lists", scope, ok)
	}
}
