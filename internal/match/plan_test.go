package match_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// expectStalePanic runs fn and fails unless it panics with one of match's
// own messages: the stale-plan or wrong-pattern one NewSearch raises, or the
// stale-search one Next raises. A panic from elsewhere (an index
// out of range on voided IDs, say) is not the contract.
func expectStalePanic(t *testing.T, ctx string, fn func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "match: ") {
			t.Errorf("%s: expected a match staleness panic, got %q", ctx, msg)
		}
	}()
	fn()
}

// TestPlanSearchEquivalence checks that a plan-driven search enumerates
// exactly what a planless one does, on every reader a plan can be compiled
// for, including the seeded form the parallel engines use.
func TestPlanSearchEquivalence(t *testing.T) {
	gr := gen.New(gen.Config{N: 10, K: 4, L: 2, WildcardRate: 0.3, Seed: 3})
	g := gr.ConsistentGraph(40)
	f := g.Frozen()
	d := graph.NewDelta(f)
	d.AddEdge(0, 1, f.Label(0))
	readers := map[string]graph.Reader{
		"mutable": g,
		"frozen":  f,
		"sharded": f.Sharded(3),
		"overlay": d.Overlay(),
	}
	nonEmpty := 0
	for i := 0; i < 10; i++ {
		p := gr.Pattern()
		for name, r := range readers {
			plan := match.CompilePlan(p, r)
			ctx := fmt.Sprintf("pattern#%d %s on %s", i, p, name)
			planned := matchSet(p, r, match.Options{Plan: plan})
			planless := matchSet(p, r, match.Options{})
			diffSets(t, ctx, planned, planless)
			if len(planned) > 0 {
				nonEmpty++
			}

			// Pivoted, seeded searches are the engines' shape: the plan
			// carries the per-pivot order.
			for _, pv := range plan.Pivots() {
				order := plan.OrderFor(pv)
				cands := graph.CandidateNodes(r, p.Label(pv))
				if len(cands) > 2 {
					cands = cands[:2]
				}
				for _, z := range cands {
					seed := match.NewAssignment(p.NumVars())
					seed[pv] = z
					a := matchSet(p, r, match.Options{Order: order, Seed: seed.Clone(), Plan: plan})
					b := matchSet(p, r, match.Options{Order: order, Seed: seed.Clone()})
					diffSets(t, fmt.Sprintf("%s pivot=%d seeded", ctx, z), a, b)
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("all plan-equivalence instances had empty match sets; property is vacuous")
	}
}

// TestPlanCacheReuse checks the cache contract on epoch-carrying readers:
// same pattern + same snapshot → the identical *Plan; a different snapshot
// (Refreeze) → a recompiled one; an editable graph → cached per snapshot,
// shared with that snapshot, recompiled after a mutation.
func TestPlanCacheReuse(t *testing.T) {
	gr := gen.New(gen.Config{N: 8, K: 3, L: 2, Seed: 5})
	g := gr.ConsistentGraph(30)
	f := g.Frozen()
	p := gr.Pattern()
	cache := match.NewPlanCache()

	pl := cache.Get(p, f)
	if pl2 := cache.Get(p, f); pl2 != pl {
		t.Fatal("cache recompiled for an unchanged snapshot epoch")
	}
	if pl2 := cache.Get(p, f.Sharded(3)); pl2 != pl {
		t.Fatal("sharded view of the same snapshot must hit the same plan")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries for one pattern, want 1", cache.Len())
	}

	d := graph.NewDelta(f)
	d.AddEdge(0, 1, f.Label(0))
	nf := f.Refreeze(d)
	npl := cache.Get(p, nf)
	if npl == pl {
		t.Fatal("cache served a stale plan across Refreeze")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache grew to %d entries across Refreeze, want entry replaced in place", cache.Len())
	}

	// An editable graph reads through its snapshot and carries its epoch:
	// the graph and the snapshot share one plan, until a mutation.
	m1 := cache.Get(p, g)
	if cache.Get(p, g) != m1 || cache.Get(p, g.Frozen()) != m1 {
		t.Fatal("plans for an unmutated graph must be cached per snapshot")
	}
	g.SetAttr(0, "touched", "1")
	if cache.Get(p, g) == m1 {
		t.Fatal("cache served a stale plan across a graph mutation")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache grew to %d entries across a graph mutation, want entry replaced in place", cache.Len())
	}
}

// TestPlanStaleness checks that every snapshot transition that can change
// match results makes previously compiled plans unusable: Refreeze, a
// compacting Compact, the Overlay of a mutated delta, and any mutation of an editable
// graph — which voids the searches compiled on it too. A no-op Compact keeps
// the snapshot — and its plans — alive.
func TestPlanStaleness(t *testing.T) {
	gr := gen.New(gen.Config{N: 8, K: 3, L: 2, Seed: 9})
	g := gr.ConsistentGraph(30)
	f := g.Frozen()
	p := gr.Pattern()

	pl := match.CompilePlan(p, f)

	// No-op Compact: same snapshot comes back, plan stays valid.
	same, _ := f.Compact()
	if same != f {
		t.Fatal("Compact of a tombstone-free snapshot should return it unchanged")
	}
	match.NewSearch(p, same, match.Options{Plan: pl})

	// Refreeze: new epoch, old plan must panic.
	d := graph.NewDelta(f)
	d.AddEdge(0, 1, f.Label(0))
	nf := f.Refreeze(d)
	expectStalePanic(t, "refreeze", func() {
		match.NewSearch(p, nf, match.Options{Plan: pl})
	})

	// Compacting Compact: tombstones force a rebuild and a new epoch.
	d2 := graph.NewDelta(nf)
	d2.RemoveNode(graph.NodeID(nf.NumNodes() - 1))
	withDead := nf.Refreeze(d2)
	plDead := match.CompilePlan(p, withDead)
	compacted, _ := withDead.Compact()
	if compacted == withDead {
		t.Fatal("Compact did not rebuild despite tombstones")
	}
	expectStalePanic(t, "compact", func() {
		match.NewSearch(p, compacted, match.Options{Plan: plDead})
	})

	// An Overlay is one snapshot per delta version: a plan compiled on it
	// serves a second call at that version, but not the overlay taken
	// after the delta mutates.
	d3 := graph.NewDelta(f)
	d3.AddEdge(1, 0, f.Label(1))
	plO := match.CompilePlan(p, d3.Overlay())
	match.NewSearch(p, d3.Overlay(), match.Options{Plan: plO})
	d3.AddNode(f.Label(0))
	expectStalePanic(t, "overlay after a mutation", func() {
		match.NewSearch(p, d3.Overlay(), match.Options{Plan: plO})
	})

	// Editable graph: a plan and a search are pinned to the snapshot the
	// graph read through when they were compiled; every mutator voids both
	// (label IDs resolved before it mean nothing after it).
	last := graph.NodeID(g.NumNodes() - 1)
	for _, m := range []struct {
		name   string
		mutate func()
	}{
		{"AddEdge", func() { g.AddEdge(0, 1, g.Label(0)) }},
		{"SetAttr", func() { g.SetAttr(0, "touched", "1") }},
		{"RemoveNode", func() { g.RemoveNode(last) }},
	} {
		plG := match.CompilePlan(p, g)
		fresh, half := match.NewSearch(p, g, match.Options{Plan: plG}), match.NewSearch(p, g, match.Options{})
		half.Next()
		m.mutate()
		expectStalePanic(t, m.name+": plan", func() { match.NewSearch(p, g, match.Options{Plan: plG}) })
		expectStalePanic(t, m.name+": fresh search", func() { fresh.Next() })
		expectStalePanic(t, m.name+": half-consumed search", func() { half.Next() })
		// Recompiled after the mutation, both work again; the snapshot
		// frozen before all of them still serves its own plan.
		match.NewSearch(p, g, match.Options{Plan: match.CompilePlan(p, g)}).Next()
		match.NewSearch(p, f, match.Options{Plan: pl}).Next()
	}

	// A plan never crosses patterns, stale or not.
	other := pattern.New()
	other.AddVar("x", graph.Wildcard)
	expectStalePanic(t, "wrong pattern", func() {
		match.NewSearch(other, f, match.Options{Plan: pl})
	})
}
