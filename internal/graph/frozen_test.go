package graph

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// buildBoth replays the same construction script into a mutable Graph and a
// Builder, returning the mutable graph and the frozen snapshot. The script
// is random: n nodes over the label alphabet, e edges (with deliberate
// duplicates) over the edge-label alphabet, plus attributes on a few nodes.
func buildBoth(seed int64, n, e int, nodeLabels, edgeLabels []string) (*Graph, *Frozen) {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	b := NewBuilder(e)
	for i := 0; i < n; i++ {
		l := nodeLabels[rng.Intn(len(nodeLabels))]
		g.AddNode(l)
		b.AddNode(l)
		if rng.Intn(3) == 0 {
			a, v := fmt.Sprintf("a%d", rng.Intn(3)), fmt.Sprintf("v%d", rng.Intn(2))
			g.SetAttr(NodeID(i), a, v)
			b.SetAttr(NodeID(i), a, v)
		}
	}
	for i := 0; i < e; i++ {
		from, to := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		l := edgeLabels[rng.Intn(len(edgeLabels))]
		g.AddEdge(from, to, l)
		b.AddEdge(from, to, l)
		if rng.Intn(4) == 0 {
			// Exact duplicate: idempotent on both paths.
			g.AddEdge(from, to, l)
			b.AddEdge(from, to, l)
		}
	}
	return g, b.Freeze()
}

// TestFrozenEquivalence is the freeze-equivalence property: on random
// multigraphs (parallel edges, self-loops, literal-wildcard labels,
// duplicate inserts), the snapshot a Builder freezes — and the one the
// editable Graph reads through — must answer every Reader query as a linear
// scan of that Graph's edit model says (see scanRef).
func TestFrozenEquivalence(t *testing.T) {
	nodeLabels := []string{"a", "b", "c", Wildcard}
	edgeLabels := []string{"e", "f", "g", Wildcard}
	queryEdgeLabels := append(edgeLabels, "absent")
	for seed := int64(0); seed < 10; seed++ {
		n := 5 + rand.New(rand.NewSource(seed)).Intn(20)
		g, f := buildBoth(seed, n, 4*n, nodeLabels, edgeLabels)
		ctx := fmt.Sprintf("seed=%d n=%d", seed, n)
		checkReaderEquivalence(t, ctx+" frozen", g, f, nodeLabels, edgeLabels)
		checkReaderEquivalence(t, ctx+" graph", g, g, nodeLabels, edgeLabels)

		present := map[string]bool{}
		for v := 0; v < n; v++ {
			present[g.Label(NodeID(v))] = true
		}
		var labels []string
		for l := range present {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		if fmt.Sprint(f.Labels()) != fmt.Sprint(labels) || fmt.Sprint(g.Labels()) != fmt.Sprint(labels) {
			t.Fatalf("%s: Labels: frozen %v, graph %v, want %v", ctx, f.Labels(), g.Labels(), labels)
		}

		// Signature covers over random label subsets.
		ref := scan(g)
		rng := rand.New(rand.NewSource(seed + 1000))
		for trial := 0; trial < 20; trial++ {
			sig := Signature{}
			for _, l := range queryEdgeLabels {
				if rng.Intn(3) == 0 {
					sig.Out = append(sig.Out, l)
				}
				if rng.Intn(3) == 0 {
					sig.In = append(sig.In, l)
				}
			}
			for v := 0; v < n; v++ {
				want := ref.covers(NodeID(v), sig)
				if covers(g, NodeID(v), sig) != want || covers(f, NodeID(v), sig) != want {
					t.Fatalf("%s: Covers(%d, %+v) is not %v", ctx, v, sig, want)
				}
			}
		}
	}
}

// TestFrozenSortedAdjacency pins the Reader ordering contract the matching
// merge-intersections rely on: per-label endpoint lists and wildcard lists
// are ascending.
func TestFrozenSortedAdjacency(t *testing.T) {
	_, f := buildBoth(42, 30, 150, []string{"a", "b"}, []string{"e", "f", "g"})
	check := func(list []NodeID, ctx string) {
		for i := 1; i < len(list); i++ {
			if list[i] < list[i-1] {
				t.Fatalf("%s not ascending: %v", ctx, list)
			}
		}
	}
	for v := 0; v < f.NumNodes(); v++ {
		id := NodeID(v)
		check(f.OutByLabelID(id, AnyLabel), fmt.Sprintf("out wildcard @%d", v))
		check(f.InByLabelID(id, AnyLabel), fmt.Sprintf("in wildcard @%d", v))
		for _, l := range []string{"e", "f", "g"} {
			check(outByLabel(f, id, l), fmt.Sprintf("out %q @%d", l, v))
			check(inByLabel(f, id, l), fmt.Sprintf("in %q @%d", l, v))
		}
	}
}

// TestFrozenCopySemantics pins the Reader copy contract on the frozen side:
// AppendCandidates (and so CandidateNodes) hands out slices the caller may
// mutate.
func TestFrozenCopySemantics(t *testing.T) {
	_, f := buildBoth(7, 10, 30, []string{"a", "b"}, []string{"e"})
	for _, l := range []string{"a", "b", Wildcard} {
		c1 := CandidateNodes(f, l)
		for i := range c1 {
			c1[i] = -1
		}
		for _, v := range CandidateNodes(f, l) {
			if v == -1 {
				t.Fatalf("CandidateNodes(%q) aliases internal storage", l)
			}
		}
	}
}

// TestGraphNodesByLabelCopySemantics pins the same contract on the mutable
// side (it used to alias the label index).
func TestGraphNodesByLabelCopySemantics(t *testing.T) {
	g := New()
	g.AddNode("a")
	g.AddNode("a")
	ids := g.AppendCandidates(nil, "a")
	ids[0] = 99
	if got := g.AppendCandidates(nil, "a"); got[0] != 0 {
		t.Fatalf("AppendCandidates aliases the internal index: %v", got)
	}
	if g.AppendCandidates(nil, "missing") != nil {
		t.Fatal("candidates of an absent label should stay nil")
	}
}

// TestBuilderPanics pins the freeze lifecycle: a consumed builder rejects
// further mutation.
func TestBuilderPanics(t *testing.T) {
	b := NewBuilder(0)
	b.AddNode("a")
	b.Freeze()
	for name, fn := range map[string]func(){
		"AddNode": func() { b.AddNode("b") },
		"AddEdge": func() { b.AddEdge(0, 0, "e") },
		"SetAttr": func() { b.SetAttr(0, "a", "v") },
		"Freeze":  func() { b.Freeze() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Freeze did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestGraphFrozenRoundTrip checks the Graph.Frozen convenience snapshot on
// the shared index fixture.
func TestGraphFrozenRoundTrip(t *testing.T) {
	g := New()
	for i := 0; i < 3; i++ {
		g.AddNode("person")
	}
	g.AddEdge(0, 1, "knows")
	g.AddEdge(1, 2, "knows")
	g.AddEdge(0, 1, "likes")
	g.AddEdge(1, 1, "likes")
	g.AddEdge(2, 0, Wildcard)
	f := g.Frozen()
	if f.NumNodes() != 3 || f.NumEdges() != 5 {
		t.Fatalf("snapshot cardinalities: got (%d,%d), want (3,5)", f.NumNodes(), f.NumEdges())
	}
	if !HasEdge(f, 1, 1, "likes") || HasEdge(f, 1, 0, "knows") {
		t.Fatal("snapshot edge probes diverge from source graph")
	}
	// The literal '_' data edge is an ordinary label: the wildcard query
	// sees it, the literal query matches only itself.
	if got := outByLabel(f, 2, Wildcard); !idsEqual(got, []NodeID{0}) {
		t.Fatalf("wildcard query at 2: %v", got)
	}
}
