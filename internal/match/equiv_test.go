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
	"repro/internal/oracle"
	"repro/internal/pattern"
)

// matchSet enumerates every homomorphism under the given options and
// canonicalizes the result as a sorted list of assignment strings, so two
// enumerations can be compared independent of discovery order.
func matchSet(p *pattern.Pattern, g graph.Reader, opts match.Options) []string {
	s := match.NewSearch(p, g, opts)
	var out []string
	for {
		h, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, fmt.Sprint(h))
	}
	sort.Strings(out)
	return out
}

// oracleSet is the reference for matchSet: the brute-force homomorphism set
// of internal/oracle — every node tried for every variable, edges probed one
// by one — in matchSet's canonical form. keep, when non-nil, selects the
// matches a seeded or partitioned search is expected to produce.
func oracleSet(p *pattern.Pattern, g graph.Reader, keep func([]graph.NodeID) bool) []string {
	var out []string
	for _, h := range oracle.Matches(p, g) {
		if keep == nil || keep(h) {
			out = append(out, fmt.Sprint(h))
		}
	}
	sort.Strings(out)
	return out
}

func diffSets(t *testing.T, ctx string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: search found %d matches, reference %d", ctx, len(got), len(want))
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: match set diverges at %d: search %s, reference %s", ctx, i, got[i], want[i])
			return
		}
	}
}

// TestIndexedScanEquivalenceGen asserts, property-style, that the indexed
// search enumerates exactly the oracle's homomorphism set on random gen
// workloads (dataset-profiled patterns with wildcards matched into
// consistent data graphs).
func TestIndexedScanEquivalenceGen(t *testing.T) {
	profiles := dataset.All()
	total, nonEmpty := 0, 0
	for seed := int64(1); seed <= 6; seed++ {
		prof := profiles[int(seed)%len(profiles)]
		gr := gen.New(gen.Config{N: 10, K: 4, L: 2, Profile: prof, WildcardRate: 0.3, Seed: seed})
		g := gr.ConsistentGraph(40)
		for i := 0; i < 12; i++ {
			p := gr.Pattern()
			ctx := fmt.Sprintf("seed=%d pattern#%d %s", seed, i, p)
			indexed := matchSet(p, g, match.Options{})
			diffSets(t, ctx, indexed, oracleSet(p, g, nil))
			total++
			if len(indexed) > 0 {
				nonEmpty++
			}
		}
	}
	// Guard against the property passing vacuously on all-empty match sets.
	if nonEmpty == 0 {
		t.Fatalf("all %d random instances had empty match sets; workload too sparse to be meaningful", total)
	}
}

// TestIndexedScanEquivalenceUniform repeats the property on uniformly random
// dense multigraphs (small label alphabets force parallel edges, self-loops
// and heavy wildcard overlap — the cases the index must get right).
func TestIndexedScanEquivalenceUniform(t *testing.T) {
	nodeLabels := []string{"a", "b", graph.Wildcard}
	edgeLabels := []string{"e", "f", graph.Wildcard}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		const n = 14
		for i := 0; i < n; i++ {
			g.AddNode(nodeLabels[rng.Intn(len(nodeLabels))])
		}
		for i := 0; i < 3*n; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), edgeLabels[rng.Intn(len(edgeLabels))])
		}
		for i := 0; i < 8; i++ {
			p := pattern.New()
			k := 2 + rng.Intn(3)
			for v := 0; v < k; v++ {
				p.AddVar(fmt.Sprintf("x%d", v), nodeLabels[rng.Intn(len(nodeLabels))])
			}
			// Connected chain plus random extra edges (possibly loops).
			for v := 1; v < k; v++ {
				p.AddEdge(pattern.Var(rng.Intn(v)), pattern.Var(v), edgeLabels[rng.Intn(len(edgeLabels))])
			}
			for e := 0; e < rng.Intn(3); e++ {
				p.AddEdge(pattern.Var(rng.Intn(k)), pattern.Var(rng.Intn(k)), edgeLabels[rng.Intn(len(edgeLabels))])
			}
			ctx := fmt.Sprintf("seed=%d pattern#%d %s", seed, i, p)
			diffSets(t, ctx, matchSet(p, g, match.Options{}), oracleSet(p, g, nil))
		}
	}
}

// TestIndexedScanEquivalenceSeededRestricted covers the reasoning engines'
// actual usage: a pivoted unit (seeded pivot variable, pivot-first order)
// must enumerate exactly the oracle's matches that map the pivot variable
// to the pivot node — so the units of one pattern partition its match set.
func TestIndexedScanEquivalenceSeededRestricted(t *testing.T) {
	gr := gen.New(gen.Config{N: 10, K: 4, L: 2, WildcardRate: 0.2, Seed: 7})
	g := gr.ConsistentGraph(30)
	checked := 0
	for i := 0; i < 10; i++ {
		p := gr.Pattern()
		pivots := p.Pivot(g)
		pv := pivots[0]
		order := p.PivotOrder(pv)
		for _, z := range graph.CandidateNodes(g, p.Label(pv)) {
			seed := match.NewAssignment(p.NumVars())
			seed[pv] = z
			unit := matchSet(p, g, match.Options{Order: order, Seed: seed})
			atPivot := func(h []graph.NodeID) bool { return h[pv] == z }
			diffSets(t, fmt.Sprintf("pattern#%d pivot=%d %s", i, z, p), unit, oracleSet(p, g, atPivot))
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no pivoted units generated; test is vacuous")
	}
}
