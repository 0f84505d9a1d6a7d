package match_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// applyMirroredOps drives one random update stream into both the mutable
// graph and the delta: adds (nodes, edges), removals (edges, nodes) and
// attribute rewrites, with identical arguments on both sides.
func applyMirroredOps(rng *rand.Rand, mirror *graph.Graph, d *graph.Delta, ops int, nodeLabels, edgeLabels []string) {
	alive := func() (graph.NodeID, bool) {
		for try := 0; try < 20; try++ {
			v := graph.NodeID(rng.Intn(mirror.NumNodes()))
			if mirror.Alive(v) {
				return v, true
			}
		}
		return 0, false
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 15:
			l := nodeLabels[rng.Intn(len(nodeLabels))]
			mirror.AddNode(l)
			d.AddNode(l)
		case r < 50:
			from, ok1 := alive()
			to, ok2 := alive()
			if !ok1 || !ok2 {
				continue
			}
			l := edgeLabels[rng.Intn(len(edgeLabels))]
			mirror.AddEdge(from, to, l)
			d.AddEdge(from, to, l)
		case r < 70:
			v, ok := alive()
			if !ok {
				continue
			}
			es := mirror.Out(v)
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			mirror.RemoveEdge(e.From, e.To, e.Label)
			d.RemoveEdge(e.From, e.To, e.Label)
		case r < 88:
			v, ok := alive()
			if !ok {
				continue
			}
			a, val := fmt.Sprintf("a%d", rng.Intn(3)), fmt.Sprintf("u%d", rng.Intn(4))
			mirror.SetAttr(v, a, val)
			d.SetAttr(v, a, val)
		default:
			v, ok := alive()
			if !ok {
				continue
			}
			mirror.RemoveNode(v)
			d.RemoveNode(v)
		}
	}
}

// randomPattern draws a small connected-ish multigraph pattern, the same
// shape family the frozen equivalence tests use.
func randomPattern(rng *rand.Rand, nodeLabels, edgeLabels []string) *pattern.Pattern {
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
	return p
}

// TestOverlayMatchEquivalence is the update-stream half of the
// overlay-equivalence property at the matching layer: after any random
// update stream, FindAll over the Overlay — and over the Refreeze output —
// enumerates exactly the match set of a mutable graph that applied the same
// stream. Tombstoned nodes, extended ID spaces and delta-new labels all ride
// through the same Reader code paths the engines use.
func TestOverlayMatchEquivalence(t *testing.T) {
	nodeLabels := []string{"a", "b", graph.Wildcard}
	edgeLabels := []string{"e", "f", graph.Wildcard}
	total, nonEmpty := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mirror := graph.New()
		const n = 12
		for i := 0; i < n; i++ {
			mirror.AddNode(nodeLabels[rng.Intn(len(nodeLabels))])
		}
		for i := 0; i < 3*n; i++ {
			mirror.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), edgeLabels[rng.Intn(len(edgeLabels))])
		}
		base := mirror.Frozen()
		d := graph.NewDelta(base)
		applyMirroredOps(rng, mirror, d, 2+rng.Intn(2*n), nodeLabels, edgeLabels)
		refrozen := base.Refreeze(d)
		// Derived after the Refreeze: snapshot readers die at the snapshot
		// boundary, and the delta itself is untouched by the merge.
		overlay := d.Overlay()
		for i := 0; i < 8; i++ {
			p := randomPattern(rng, nodeLabels, edgeLabels)
			ctx := fmt.Sprintf("seed=%d pattern#%d %s", seed, i, p)
			mut := matchSet(p, mirror, match.Options{})
			diffSets(t, ctx+" (overlay vs mutable)", matchSet(p, overlay, match.Options{}), mut)
			diffSets(t, ctx+" (refrozen vs mutable)", matchSet(p, refrozen, match.Options{}), mut)
			total++
			if len(mut) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatalf("all %d random instances had empty match sets; workload too sparse to be meaningful", total)
	}
}

// TestScopedRootCandidates pins the delta-scoping primitive: a search
// ordered from variable v with RootCandidates restricted to a node set
// enumerates exactly the matches that map v into the set, in the order the
// unrestricted search with that order finds them.
func TestScopedRootCandidates(t *testing.T) {
	nodeLabels := []string{"a", "b", "c"}
	edgeLabels := []string{"e", "f"}
	checked := 0
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 40))
		g := graph.New()
		const n = 25
		for i := 0; i < n; i++ {
			g.AddNode(nodeLabels[rng.Intn(len(nodeLabels))])
		}
		for i := 0; i < 3*n; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), edgeLabels[rng.Intn(len(edgeLabels))])
		}
		f := g.Frozen()
		for i := 0; i < 5; i++ {
			p := randomPattern(rng, nodeLabels, edgeLabels)
			inScope := make(map[graph.NodeID]bool)
			var scope []graph.NodeID
			for len(scope) < n/3 {
				if u := graph.NodeID(rng.Intn(n)); !inScope[u] {
					inScope[u] = true
					scope = append(scope, u)
				}
			}
			slices.Sort(scope)
			v := pattern.Var(rng.Intn(p.NumVars()))
			order := p.PivotOrder(v)
			cands := match.ScopedRootCandidates(p, f, v, scope)
			scoped := match.FindAllOpts(p, f, match.Options{Order: order, RootCandidates: cands})
			var want []match.Assignment
			for _, h := range match.FindAllOpts(p, f, match.Options{Order: order}) {
				if inScope[h[v]] {
					want = append(want, h)
				}
			}
			if len(scoped) != len(want) {
				t.Fatalf("seed=%d pattern#%d: scoped found %d matches, want %d", seed, i, len(scoped), len(want))
			}
			for j := range want {
				for v := range want[j] {
					if scoped[j][v] != want[j][v] {
						t.Fatalf("seed=%d pattern#%d: match %d diverges", seed, i, j)
					}
				}
			}
			checked += len(want)
		}
	}
	if checked == 0 {
		t.Fatal("no scoped matches compared; test is vacuous")
	}
}
