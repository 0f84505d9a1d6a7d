package graph

import (
	"fmt"
	"math/rand"
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
// duplicate inserts), the Frozen snapshot must answer every Reader query
// exactly like the mutable Graph it was built from.
func TestFrozenEquivalence(t *testing.T) {
	nodeLabels := []string{"a", "b", "c", Wildcard}
	edgeLabels := []string{"e", "f", "g", Wildcard}
	queryEdgeLabels := append(edgeLabels, "absent")
	for seed := int64(0); seed < 10; seed++ {
		n := 5 + rand.New(rand.NewSource(seed)).Intn(20)
		g, f := buildBoth(seed, n, 4*n, nodeLabels, edgeLabels)
		ctx := fmt.Sprintf("seed=%d n=%d", seed, n)

		if g.NumNodes() != f.NumNodes() || g.NumEdges() != f.NumEdges() || size(g) != size(f) {
			t.Fatalf("%s: cardinalities diverge: mutable (%d,%d,%d) frozen (%d,%d,%d)", ctx,
				g.NumNodes(), g.NumEdges(), size(g), f.NumNodes(), f.NumEdges(), size(f))
		}
		if fmt.Sprint(g.Labels()) != fmt.Sprint(f.Labels()) {
			t.Fatalf("%s: Labels diverge: %v vs %v", ctx, g.Labels(), f.Labels())
		}

		// Per-label adjacency, raw adjacency, edge probes, per node pair.
		for v := 0; v < n; v++ {
			id := NodeID(v)
			if g.Label(id) != f.Label(id) {
				t.Fatalf("%s: Label(%d) diverges", ctx, v)
			}
			if fmt.Sprint(g.Attrs(id)) != fmt.Sprint(f.Attrs(id)) {
				t.Fatalf("%s: Attrs(%d) diverge: %v vs %v", ctx, v, g.Attrs(id), f.Attrs(id))
			}
			if got, want := edgeMultiset(f.Out(id)), edgeMultiset(g.Out(id)); got != want {
				t.Fatalf("%s: Out(%d) diverges: %v vs %v", ctx, v, got, want)
			}
			for _, l := range queryEdgeLabels {
				gl := g.OutByLabelID(id, g.EdgeLabelID(l))
				fl := f.OutByLabelID(id, f.EdgeLabelID(l))
				if !idsEqual(gl, fl) {
					t.Fatalf("%s: OutByLabel(%d,%q) diverges: %v vs %v", ctx, v, l, gl, fl)
				}
				gl = g.InByLabelID(id, g.EdgeLabelID(l))
				fl = f.InByLabelID(id, f.EdgeLabelID(l))
				if !idsEqual(gl, fl) {
					t.Fatalf("%s: InByLabel(%d,%q) diverges: %v vs %v", ctx, v, l, gl, fl)
				}
				for u := 0; u < n; u++ {
					if HasEdge(g, id, NodeID(u), l) != HasEdge(f, id, NodeID(u), l) {
						t.Fatalf("%s: HasEdge(%d,%d,%q) diverges", ctx, v, u, l)
					}
				}
			}
		}

		// Node-label index and candidate generation.
		for _, l := range append(g.Labels(), "absent", Wildcard) {
			if !idsEqual(CandidateNodes(g, l), CandidateNodes(f, l)) {
				t.Fatalf("%s: CandidateNodes(%q) diverges", ctx, l)
			}
			if g.LabelFrequency(l) != f.LabelFrequency(l) {
				t.Fatalf("%s: LabelFrequency(%q) diverges", ctx, l)
			}
		}

		// Signature covers over random label subsets.
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
				if covers(g, NodeID(v), sig) != covers(f, NodeID(v), sig) {
					t.Fatalf("%s: Covers(%d, %+v) diverges", ctx, v, sig)
				}
			}
		}

		// Traversal.
		for v := 0; v < n; v++ {
			for d := 0; d <= 3; d++ {
				gh, fh := Neighborhood(g, NodeID(v), d), Neighborhood(f, NodeID(v), d)
				if len(gh) != len(fh) {
					t.Fatalf("%s: Neighborhood(%d,%d) sizes diverge: %d vs %d", ctx, v, d, len(gh), len(fh))
				}
				for u := range gh {
					if !fh[u] {
						t.Fatalf("%s: Neighborhood(%d,%d) misses %d in frozen", ctx, v, d, u)
					}
				}
			}
		}
	}
}

// edgeMultiset canonicalizes an edge slice independent of order.
func edgeMultiset(es []Edge) string {
	counts := make(map[Edge]int, len(es))
	for _, e := range es {
		counts[e]++
	}
	return fmt.Sprint(counts)
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

// TestBuilderGraphReplay pins Builder.Graph: a builder loaded with a
// mutable graph's contents replays into an identical mutable graph
// (String covers nodes, attributes and edges in deterministic order).
func TestBuilderGraphReplay(t *testing.T) {
	g, _ := buildBoth(13, 15, 60, []string{"a", "b"}, []string{"e", "f"})
	b := NewBuilder(0)
	for i := 0; i < g.NumNodes(); i++ {
		b.AddNodeWithAttrs(g.Label(NodeID(i)), g.Attrs(NodeID(i)))
	}
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(NodeID(v)) {
			b.AddEdge(e.From, e.To, e.Label)
		}
	}
	if got, want := b.Graph().String(), g.String(); got != want {
		t.Fatalf("Builder.Graph replay diverges:\n got: %s\nwant: %s", got, want)
	}
}
