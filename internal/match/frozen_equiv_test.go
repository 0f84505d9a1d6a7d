package match_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// TestFrozenMatchEquivalenceGen asserts, property-style, that the indexed
// search enumerates exactly the same homomorphism set on the frozen CSR
// snapshot as on the mutable graph (and as the brute-force oracle reading
// the snapshot), on random gen workloads — mirroring equiv_test.go with the
// representation as the axis under test.
func TestFrozenMatchEquivalenceGen(t *testing.T) {
	profiles := dataset.All()
	total, nonEmpty := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		prof := profiles[int(seed)%len(profiles)]
		gr := gen.New(gen.Config{N: 10, K: 4, L: 2, Profile: prof, WildcardRate: 0.3, Seed: seed})
		g := gr.ConsistentGraph(40)
		f := g.Frozen()
		for i := 0; i < 10; i++ {
			p := gr.Pattern()
			ctx := fmt.Sprintf("seed=%d pattern#%d %s", seed, i, p)
			mutable := matchSet(p, g, match.Options{})
			frozen := matchSet(p, f, match.Options{})
			diffSets(t, ctx+" (frozen vs mutable)", frozen, mutable)
			diffSets(t, ctx+" (frozen vs oracle)", frozen, oracleSet(p, f, nil))
			total++
			if len(frozen) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatalf("all %d random instances had empty match sets; workload too sparse to be meaningful", total)
	}
}

// TestFrozenMatchEquivalenceUniform repeats the property on uniformly
// random dense multigraphs (parallel edges, self-loops, literal wildcard
// labels), including the seeded/pivoted usage the reasoning engines rely
// on.
func TestFrozenMatchEquivalenceUniform(t *testing.T) {
	nodeLabels := []string{"a", "b", graph.Wildcard}
	edgeLabels := []string{"e", "f", graph.Wildcard}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		const n = 12
		for i := 0; i < n; i++ {
			g.AddNode(nodeLabels[rng.Intn(len(nodeLabels))])
		}
		for i := 0; i < 3*n; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), edgeLabels[rng.Intn(len(edgeLabels))])
		}
		f := g.Frozen()
		for i := 0; i < 6; i++ {
			p := pattern.New()
			k := 2 + rng.Intn(3)
			for v := 0; v < k; v++ {
				p.AddVar(fmt.Sprintf("x%d", v), nodeLabels[rng.Intn(len(nodeLabels))])
			}
			for v := 1; v < k; v++ {
				p.AddEdge(pattern.Var(rng.Intn(v)), pattern.Var(v), edgeLabels[rng.Intn(len(edgeLabels))])
			}
			for e := 0; e < rng.Intn(3); e++ {
				p.AddEdge(pattern.Var(rng.Intn(k)), pattern.Var(rng.Intn(k)), edgeLabels[rng.Intn(len(edgeLabels))])
			}
			ctx := fmt.Sprintf("seed=%d pattern#%d %s", seed, i, p)
			diffSets(t, ctx, matchSet(p, f, match.Options{}), matchSet(p, g, match.Options{}))

			// Pivoted units: a seeded pivot planned on the frozen snapshot
			// must enumerate identically on both representations — exactly
			// the oracle's matches through that pivot.
			pivots := p.Pivot(f)
			pv := pivots[0]
			order := p.PivotOrder(pv)
			cands := graph.CandidateNodes(f, p.Label(pv))
			if len(cands) > 3 {
				cands = cands[:3]
			}
			for _, z := range cands {
				seed := match.NewAssignment(p.NumVars())
				seed[pv] = z
				fr := matchSet(p, f, match.Options{Order: order, Seed: seed.Clone()})
				mu := matchSet(p, g, match.Options{Order: order, Seed: seed.Clone()})
				diffSets(t, fmt.Sprintf("%s pivot=%d", ctx, z), fr, mu)
				atPivot := func(h []graph.NodeID) bool { return h[pv] == z }
				diffSets(t, fmt.Sprintf("%s pivot=%d (vs oracle)", ctx, z), fr, oracleSet(p, f, atPivot))
			}
		}
	}
}

// TestFrozenSimulationEquivalence checks that the simulation pre-filter
// computes the same relation on both representations.
func TestFrozenSimulationEquivalence(t *testing.T) {
	gr := gen.New(gen.Config{N: 10, K: 4, L: 2, WildcardRate: 0.2, Seed: 11})
	g := gr.ConsistentGraph(30)
	f := g.Frozen()
	checked := 0
	for i := 0; i < 10; i++ {
		p := gr.Pattern()
		sm := match.Simulate(p, g)
		sf := match.Simulate(p, f)
		if (sm == nil) != (sf == nil) {
			t.Fatalf("pattern#%d %s: simulation existence diverges: mutable=%v frozen=%v", i, p, sm != nil, sf != nil)
		}
		if sm == nil {
			continue
		}
		for v := 0; v < p.NumVars(); v++ {
			u := pattern.Var(v)
			nm, nf := sm.Nodes(u), sf.Nodes(u)
			if len(nm) != len(nf) {
				t.Fatalf("pattern#%d %s var %d: |sim| diverges: %d vs %d", i, p, v, len(nm), len(nf))
			}
			for j := range nm {
				if nm[j] != nf[j] {
					t.Fatalf("pattern#%d %s var %d: sim sets diverge at %d", i, p, v, j)
				}
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no simulation relations compared; test is vacuous")
	}
}
