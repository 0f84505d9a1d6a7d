package match_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// expectStalePanic runs fn and fails unless it panics with one of match's
// own messages: the stale-plan or wrong-pattern one NewSearch raises. A
// panic from elsewhere (an index out of range on voided IDs, say) is not
// the contract.
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
// for, including the pivot-rooted form the parallel engines use.
func TestPlanSearchEquivalence(t *testing.T) {
	gr := gen.New(gen.Config{N: 10, K: 4, L: 2, WildcardRate: 0.3, Seed: 3})
	f := gr.ConsistentGraph(40)
	g := mutableCopy(f)
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

			// Searches rooted in one pivot node are the engines' shape: the
			// plan carries the per-pivot order.
			for _, pv := range plan.Pivots() {
				order := plan.OrderFor(pv)
				cands := graph.CandidateNodes(r, p.Label(pv))
				if len(cands) > 2 {
					cands = cands[:2]
				}
				for _, z := range cands {
					root := []graph.NodeID{z}
					a := matchSet(p, r, match.Options{Order: order, RootCandidates: root, Plan: plan})
					b := matchSet(p, r, match.Options{Order: order, RootCandidates: root})
					diffSets(t, fmt.Sprintf("%s pivot=%d rooted", ctx, z), a, b)
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("all plan-equivalence instances had empty match sets; property is vacuous")
	}
}

// TestPlanCacheReuse checks the cache contract on every reader:
// same pattern + same snapshot → the identical *Plan; a different snapshot
// (Refreeze) → a recompiled one; an editable graph → cached per snapshot,
// shared with that snapshot, recompiled after a mutation.
func TestPlanCacheReuse(t *testing.T) {
	gr := gen.New(gen.Config{N: 8, K: 3, L: 2, Seed: 5})
	f := gr.ConsistentGraph(30)
	g := mutableCopy(f)
	p := gr.Pattern()
	cache := match.NewPlanCache()

	pl := cache.Get(p, f)
	if pl2 := cache.Get(p, f); pl2 != pl {
		t.Fatal("cache recompiled for an unchanged snapshot")
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

	// An editable graph reads through its snapshot:
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

// TestPlanCacheConcurrent runs PlanCache.Get and a plan-driven search from
// eight goroutines at once: on an editable graph whose first Frozen is built
// under that contention, then on that Frozen, then on a Sharded view of it.
// Every goroutine must get the one *Plan (whose lazily built root frame the
// unpartitioned searches share) and a planless search's match set, and the
// cache must hold one entry.
func TestPlanCacheConcurrent(t *testing.T) {
	gr := gen.New(gen.Config{N: 10, K: 4, L: 2, WildcardRate: 0.3, Seed: 11})
	base := gr.ConsistentGraph(40)
	var p *pattern.Pattern
	for i := 0; i < 50 && p == nil; i++ {
		if q := gr.Pattern(); len(match.FindAll(q, base)) > 0 {
			p = q
		}
	}
	if p == nil {
		t.Fatal("fixture: no generated pattern has a match")
	}
	want := matchSet(p, base, match.Options{})
	g := mutableCopy(base) // no snapshot built yet
	readers := []func() graph.Reader{
		func() graph.Reader { return g },
		func() graph.Reader { return g.Frozen() },
		func() graph.Reader { return g.Frozen().Sharded(3) },
	}
	const workers = 8
	cache := match.NewPlanCache()
	var plans [workers]*match.Plan
	var got [workers][]string
	var first *match.Plan
	for ri, reader := range readers {
		r := reader()
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				plans[w] = cache.Get(p, r)
				got[w] = matchSet(p, r, match.Options{Plan: plans[w]})
			}()
		}
		close(start)
		wg.Wait()
		if first == nil {
			first = plans[0]
		}
		for w := range workers {
			if plans[w] != first {
				t.Fatalf("reader %d, goroutine %d: got another *Plan", ri, w)
			}
			diffSets(t, fmt.Sprintf("reader %d, goroutine %d", ri, w), got[w], want)
		}
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries for one pattern, want 1", cache.Len())
	}
}

// TestPlanStaleness checks that every snapshot transition that can change
// match results makes previously compiled plans unusable: Refreeze, a
// compacting Compact, the Overlay of a mutated delta, and any mutation of an
// editable graph. A search holds its snapshot, so one built on a graph
// before a mutation enumerates the graph as it was. A no-op Compact keeps
// the snapshot — and its plans — alive.
func TestPlanStaleness(t *testing.T) {
	gr := gen.New(gen.Config{N: 8, K: 3, L: 2, Seed: 9})
	f := gr.ConsistentGraph(30)
	g := mutableCopy(f)
	p := gr.Pattern()

	pl := match.CompilePlan(p, f)

	// No-op Compact: same snapshot comes back, plan stays valid.
	same, _ := f.Compact()
	if same != f {
		t.Fatal("Compact of a tombstone-free snapshot should return it unchanged")
	}
	match.NewSearch(p, same, match.Options{Plan: pl})

	// Refreeze: a new snapshot, the old plan must panic.
	d := graph.NewDelta(f)
	d.AddEdge(0, 1, f.Label(0))
	nf := f.Refreeze(d)
	expectStalePanic(t, "refreeze", func() {
		match.NewSearch(p, nf, match.Options{Plan: pl})
	})

	// Compacting Compact: tombstones force a rebuild, a new snapshot.
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

	// Editable graph: a plan is pinned to the snapshot the graph read
	// through when it was compiled, and every mutator voids it (label IDs
	// resolved before it mean nothing after it). A search built before the
	// mutator, fresh or half consumed, enumerates that snapshot to the end.
	last := graph.NodeID(g.NumNodes() - 1)
	enumerated := 0
	for _, m := range []struct {
		name   string
		mutate func()
	}{
		{"AddEdge", func() { g.AddEdge(0, 1, g.Label(0)) }},
		{"SetAttr", func() { g.SetAttr(0, "touched", "1") }},
		{"RemoveNode", func() { g.RemoveNode(last) }},
	} {
		plG := match.CompilePlan(p, g)
		want := match.FindAll(p, g.Snapshot())
		fresh, half := match.NewSearch(p, g, match.Options{Plan: plG}), match.NewSearch(p, g, match.Options{})
		var got [2][]match.Assignment
		if h, ok := half.Next(); ok {
			got[1] = append(got[1], h.Clone())
		}
		m.mutate()
		expectStalePanic(t, m.name+": plan", func() { match.NewSearch(p, g, match.Options{Plan: plG}) })
		for i, s := range []*match.Search{fresh, half} {
			for h, ok := s.Next(); ok; h, ok = s.Next() {
				got[i] = append(got[i], h.Clone())
			}
		}
		for i, name := range []string{"fresh", "half-consumed"} {
			if !slices.EqualFunc(got[i], want, slices.Equal) {
				t.Errorf("%s: %s search built before it found %v, want the old snapshot's %v", m.name, name, got[i], want)
			}
		}
		enumerated += len(want)
		// Recompiled after the mutation, both work again; the snapshot
		// frozen before all of them still serves its own plan.
		match.NewSearch(p, g, match.Options{Plan: match.CompilePlan(p, g)}).Next()
		match.NewSearch(p, f, match.Options{Plan: pl}).Next()
	}

	if enumerated == 0 {
		t.Fatal("no search built before a mutation found a match; the property is vacuous")
	}

	// A plan never crosses patterns, stale or not.
	other := pattern.New()
	other.AddVar("x", graph.Wildcard)
	expectStalePanic(t, "wrong pattern", func() {
		match.NewSearch(other, f, match.Options{Plan: pl})
	})
}
