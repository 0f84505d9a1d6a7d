package match_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/oracle"
	"repro/internal/pattern"
)

// diffSim fails unless sim is exactly the relation want, in oracle.Simulation's
// form (nil for the empty relation): same members in the same order through
// Nodes, the same Count, and Has true on the members and nowhere else.
func diffSim(t *testing.T, ctx string, p *pattern.Pattern, g graph.Reader, sim *match.Sim, want [][]graph.NodeID) {
	t.Helper()
	if (sim == nil) != (want == nil) {
		t.Fatalf("%s: simulation exists = %v, oracle says %v", ctx, sim != nil, want != nil)
	}
	if sim == nil {
		return
	}
	for v := range want {
		u := pattern.Var(v)
		if got := sim.Nodes(u); !slices.Equal(got, want[v]) {
			t.Fatalf("%s var %s: sim = %v, oracle %v", ctx, p.Name(u), got, want[v])
		}
		for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
			if _, in := slices.BinarySearch(want[v], n); sim.Has(u, n) != in {
				t.Fatalf("%s var %s: Has(%d) = %v, oracle %v", ctx, p.Name(u), n, !in, in)
			}
		}
	}
}

// TestSimulateMatchesOracle checks simulation against the definition on
// G_Σ inputs — the pattern groups of a generated Σ (wildcard
// nodes and edges on) into G_Σ — through the mutable graph, its Frozen
// snapshot and an Overlay carrying a random update stream with removals.
// Every pattern goes through the one-shot entry and through one Simulator
// shared by the whole Σ, so recycled scratch is exercised on every reader.
func TestSimulateMatchesOracle(t *testing.T) {
	passed, empty := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		set := gen.New(gen.Config{N: 24, K: 4, L: 2, WildcardRate: 0.4, Seed: seed}).Set()
		g := canon.BuildSigma(set).Graph
		base := g.Frozen()
		edgeLabels := []string{graph.Wildcard}
		for _, phi := range set.GFDs {
			for _, e := range phi.Pattern.Edges() {
				if !slices.Contains(edgeLabels, e.Label) {
					edgeLabels = append(edgeLabels, e.Label)
				}
			}
		}
		d := graph.NewDelta(base)
		applyMirroredOps(rand.New(rand.NewSource(seed)), g.Clone(), d, g.NumNodes()/2, g.Labels(), edgeLabels)
		readers := []struct {
			name string
			r    graph.Reader
		}{{"mutable", g}, {"frozen", base}, {"overlay", d.Overlay()}}
		for _, rd := range readers {
			shared := match.NewSimulator(rd.r)
			for i, grp := range set.Groups() {
				p := grp.Pattern
				ctx := fmt.Sprintf("seed=%d %s group#%d %s", seed, rd.name, i, p)
				want := oracle.Simulation(p, rd.r)
				diffSim(t, ctx+" (one-shot)", p, rd.r, match.Simulate(p, rd.r), want)
				diffSim(t, ctx+" (shared)", p, rd.r, shared.Simulate(p, nil), want)
				if want != nil {
					passed++
				} else {
					empty++
				}
			}
		}
	}
	if passed == 0 || empty == 0 {
		t.Fatalf("%d relations compared, %d empty: both outcomes must occur for the test to mean anything", passed, empty)
	}
}

// TestSimulatorSeedsSurviveRefinement is the aliasing case of a shared
// Simulator: x of A and x of B start from the same seed {0, 2}, built in the
// same scratch, but A refines it to {0} and B to {2}. A refinement that wrote
// through to the scratch would hand B (and the second A) a shrunken start,
// and a result that aliased it would change under the later calls.
func TestSimulatorSeedsSurviveRefinement(t *testing.T) {
	g := graph.New()
	for _, l := range []string{"a", "b", "a", "c"} {
		g.AddNode(l)
	}
	g.AddEdge(0, 1, "e")
	g.AddEdge(2, 3, "e")
	edgeTo := func(label string) *pattern.Pattern {
		p := pattern.New()
		p.AddEdge(p.AddVar("x", "a"), p.AddVar("y", label), "e")
		return p
	}
	a, b := edgeTo("b"), edgeTo("c")
	m := match.NewSimulator(g)
	first := m.Simulate(a, nil)
	diffSim(t, "A", a, g, first, [][]graph.NodeID{{0}, {1}})
	diffSim(t, "B after A", b, g, m.Simulate(b, nil), [][]graph.NodeID{{2}, {3}})
	second := m.Simulate(a, nil)
	diffSim(t, "A after B", a, g, second, oracle.Simulation(a, g))
	fresh := match.Simulate(a, g)
	diffSim(t, "A after B vs one-shot", a, g, second, [][]graph.NodeID{fresh.Nodes(0), fresh.Nodes(1)})
	diffSim(t, "first A after later calls", a, g, first, [][]graph.NodeID{{0}, {1}})
}
