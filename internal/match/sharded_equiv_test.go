package match_test

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// TestShardedMatchEquivalenceGen asserts, property-style, that the per-shard
// root-candidate fan-out enumerates exactly the same homomorphisms as the
// flat frozen search, in the same order, on random gen workloads — across
// shard and worker counts.
func TestShardedMatchEquivalenceGen(t *testing.T) {
	profiles := dataset.All()
	total, nonEmpty := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		prof := profiles[int(seed)%len(profiles)]
		gr := gen.New(gen.Config{N: 10, K: 4, L: 2, Profile: prof, WildcardRate: 0.3, Seed: seed})
		g := gr.ConsistentGraph(40)
		f := g.Frozen()
		for _, k := range []int{1, 3, 8} {
			s := f.Sharded(k)
			for i := 0; i < 6; i++ {
				p := gr.Pattern()
				ctx := fmt.Sprintf("seed=%d k=%d pattern#%d %s", seed, k, i, p)
				flat := match.FindAll(p, f)
				for _, workers := range []int{1, 4} {
					fanned := match.FindAllSharded(p, s, workers, match.Options{})
					if len(fanned) != len(flat) {
						t.Fatalf("%s workers=%d: %d matches, want %d", ctx, workers, len(fanned), len(flat))
					}
					for j := range flat {
						for v := range flat[j] {
							if fanned[j][v] != flat[j][v] {
								t.Fatalf("%s workers=%d: match %d diverges: %v vs %v", ctx, workers, j, fanned[j], flat[j])
							}
						}
					}
					if c := match.CountSharded(p, s, workers, match.Options{}); c != len(flat) {
						t.Fatalf("%s workers=%d: CountSharded=%d, want %d", ctx, workers, c, len(flat))
					}
				}
				total++
				if len(flat) > 0 {
					nonEmpty++
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatalf("all %d random instances had empty match sets; workload too sparse to be meaningful", total)
	}
}

// TestShardedMatchEquivalenceUniform repeats the property on uniformly
// random dense multigraphs (parallel edges, self-loops, literal wildcard
// labels), with a simulation filter layered on to check composition.
func TestShardedMatchEquivalenceUniform(t *testing.T) {
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
		s := f.Sharded(4)
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
			diffSets(t, ctx, matchSetOf(match.FindAllSharded(p, s, 3, match.Options{})), matchSet(p, f, match.Options{}))

			// With the simulation pre-filter layered on as a Filter.
			if sim := match.Simulate(p, f); sim != nil {
				opts := match.Options{Filter: sim.Has}
				diffSets(t, ctx+" (filtered)",
					matchSetOf(match.FindAllSharded(p, s, 3, opts)), matchSet(p, f, opts))
			}
		}
	}
}

// TestRootCandidatesPartition pins the Options.RootCandidates contract
// directly: searches over any partition of the root candidate list
// enumerate the full match set exactly once, and an empty part yields
// nothing.
func TestRootCandidatesPartition(t *testing.T) {
	gr := gen.New(gen.Config{N: 10, K: 4, L: 2, WildcardRate: 0.2, Seed: 9})
	g := gr.ConsistentGraph(30)
	f := g.Frozen()
	p := gr.Pattern()
	order := match.DefaultOrder(p)
	if len(order) == 0 {
		t.Skip("degenerate pattern")
	}
	all := graph.CandidateNodes(f, p.Label(order[0]))
	flat := matchSet(p, f, match.Options{})
	var union []match.Assignment
	// Split candidates into three uneven parts (some possibly empty).
	for i := 0; i < 3; i++ {
		lo, hi := i*len(all)/3, (i+1)*len(all)/3
		part := all[lo:hi]
		union = append(union, match.FindAllOpts(p, f, match.Options{RootCandidates: part})...)
	}
	diffSets(t, "3-way root partition", matchSetOf(union), flat)
	if got := match.FindAllOpts(p, f, match.Options{RootCandidates: []graph.NodeID{}}); len(got) != 0 {
		t.Fatalf("empty root part produced %d matches", len(got))
	}
}

// TestShardedFanOutWithSeedFallsBack pins the Seed guard: the fan-out
// cannot partition a seeded search (the root frame generates from the
// seeded neighbor, not the label index), so it must degrade to one
// sequential search — never duplicate the match set per shard part.
func TestShardedFanOutWithSeedFallsBack(t *testing.T) {
	gr := gen.New(gen.Config{N: 10, K: 4, L: 2, WildcardRate: 0.2, Seed: 9})
	g := gr.ConsistentGraph(30)
	f := g.Frozen()
	s := f.Sharded(4)
	checked := 0
	for i := 0; i < 8; i++ {
		p := gr.Pattern()
		pivots := p.Pivot(f)
		pv := pivots[0]
		for _, z := range graph.CandidateNodes(f, p.Label(pv)) {
			seed := match.NewAssignment(p.NumVars())
			seed[pv] = z
			opts := match.Options{Order: p.PivotOrder(pv), Seed: seed}
			flat := match.FindAllOpts(p, f, opts)
			fanned := match.FindAllSharded(p, s, 3, opts)
			if len(fanned) != len(flat) {
				t.Fatalf("pattern#%d pivot=%d: seeded fan-out found %d matches, flat %d", i, z, len(fanned), len(flat))
			}
			if c := match.CountSharded(p, s, 3, opts); c != len(flat) {
				t.Fatalf("pattern#%d pivot=%d: seeded CountSharded=%d, want %d", i, z, c, len(flat))
			}
			if len(flat) > 0 {
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no seeded instance had matches; test is vacuous")
	}
}

// TestShardedFanOutKeepsRootCandidates pins the RootCandidates guard: a
// caller's restriction of the root frame must survive the fan-out, which
// therefore degrades to one sequential search instead of overwriting the
// restriction with each shard's label candidates.
func TestShardedFanOutKeepsRootCandidates(t *testing.T) {
	b := graph.NewBuilder(0)
	var as []graph.NodeID
	for i := 0; i < 8; i++ {
		a := b.AddNode("a")
		b.AddEdge(a, b.AddNode("b"), "e")
		as = append(as, a)
	}
	s := b.Freeze().Sharded(4)
	p := pattern.New()
	p.AddEdge(p.AddVar("x", "a"), p.AddVar("y", "b"), "e")
	opts := match.Options{Order: []pattern.Var{0, 1}, RootCandidates: as[:2]}
	if got := len(match.FindAllOpts(p, s, opts)); got != 2 {
		t.Fatalf("setup: flat restricted search found %d matches, want 2", got)
	}
	if got := len(match.FindAllSharded(p, s, 3, opts)); got != 2 {
		t.Fatalf("FindAllSharded ignored RootCandidates: %d matches, want 2", got)
	}
	if got := match.CountSharded(p, s, 3, opts); got != 2 {
		t.Fatalf("CountSharded ignored RootCandidates: %d, want 2", got)
	}
}

// matchSetOf canonicalizes an already-enumerated assignment list the way
// matchSet does.
func matchSetOf(hs []match.Assignment) []string {
	out := make([]string, 0, len(hs))
	for _, h := range hs {
		out = append(out, fmt.Sprint(h))
	}
	sort.Strings(out)
	return out
}
