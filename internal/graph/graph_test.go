package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
)

func buildDiamond(t *testing.T) (*Graph, []NodeID) {
	t.Helper()
	g := New()
	a := g.AddNode("person")
	b := g.AddNode("blog")
	c := g.AddNode("blog")
	d := g.AddNode("topic")
	g.AddEdge(a, b, "post")
	g.AddEdge(a, c, "post")
	g.AddEdge(b, d, "about")
	g.AddEdge(c, d, "about")
	return g, []NodeID{a, b, c, d}
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New()
	for i := 0; i < 5; i++ {
		if got := g.AddNode("x"); got != NodeID(i) {
			t.Fatalf("AddNode #%d = %d, want %d", i, got, i)
		}
	}
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
}

func TestAddEdgeIdempotent(t *testing.T) {
	g := New()
	a, b := g.AddNode("x"), g.AddNode("y")
	g.AddEdge(a, b, "e")
	g.AddEdge(a, b, "e")
	if g.NumEdges() != 1 {
		t.Fatalf("duplicate edge inserted: NumEdges = %d", g.NumEdges())
	}
	g.AddEdge(a, b, "f") // distinct label: a real multi-edge
	if g.NumEdges() != 2 {
		t.Fatalf("multi-edge with distinct label rejected: NumEdges = %d", g.NumEdges())
	}
}

func TestHasEdgeWildcard(t *testing.T) {
	g := New()
	a, b := g.AddNode("x"), g.AddNode("y")
	g.AddEdge(a, b, "knows")
	if !HasEdge(g, a, b, "knows") {
		t.Error("HasEdge exact label = false")
	}
	if !HasEdge(g, a, b, Wildcard) {
		t.Error("HasEdge wildcard = false")
	}
	if HasEdge(g, a, b, "other") {
		t.Error("HasEdge wrong label = true")
	}
	if HasEdge(g, b, a, "knows") {
		t.Error("HasEdge is ignoring direction")
	}
}

func TestAttrs(t *testing.T) {
	g := New()
	a := g.AddNode("person")
	if _, ok := g.Attr(a, "name"); ok {
		t.Error("attribute exists before SetAttr")
	}
	g.SetAttr(a, "name", "alice")
	if v, ok := g.Attr(a, "name"); !ok || v != "alice" {
		t.Errorf("Attr = %q,%v; want alice,true", v, ok)
	}
	g.SetAttr(a, "name", "bob") // overwrite
	if v, _ := g.Attr(a, "name"); v != "bob" {
		t.Errorf("overwrite failed: %q", v)
	}
}

func TestCandidateNodes(t *testing.T) {
	g, _ := buildDiamond(t)
	if got := len(CandidateNodes(g, "blog")); got != 2 {
		t.Errorf("blog candidates = %d, want 2", got)
	}
	if got := len(CandidateNodes(g, Wildcard)); got != 4 {
		t.Errorf("wildcard candidates = %d, want 4", got)
	}
	if got := len(CandidateNodes(g, "missing")); got != 0 {
		t.Errorf("missing label candidates = %d, want 0", got)
	}
}

func TestNeighborhood(t *testing.T) {
	g, ids := buildDiamond(t)
	a, d := ids[0], ids[3]
	h0 := Neighborhood(g, []NodeID{a}, 0)
	if len(h0) != 1 || !h0[a] {
		t.Errorf("0-hop neighborhood = %v", h0)
	}
	h1 := Neighborhood(g, []NodeID{a}, 1)
	if len(h1) != 3 {
		t.Errorf("1-hop neighborhood size = %d, want 3 (a,b,c)", len(h1))
	}
	if h1[d] {
		t.Error("topic is 2 hops away but in 1-hop neighborhood")
	}
	h2 := Neighborhood(g, []NodeID{a}, 2)
	if len(h2) != 4 {
		t.Errorf("2-hop neighborhood size = %d, want 4", len(h2))
	}
	// Neighborhood is undirected: from d, 1 hop reaches b and c.
	hd := Neighborhood(g, []NodeID{d}, 1)
	if len(hd) != 3 {
		t.Errorf("reverse 1-hop neighborhood size = %d, want 3", len(hd))
	}
}

// TestUndirectedDistance pins the hop metric Neighborhood is defined by:
// v enters Neighborhood(u, d) exactly at d = the undirected distance from u,
// and a disconnected node never does.
func TestUndirectedDistance(t *testing.T) {
	g, ids := buildDiamond(t)
	a, b, d := ids[0], ids[1], ids[3]
	iso := g.AddNode("island")
	cases := []struct {
		u, v NodeID
		want int
	}{
		{a, a, 0}, {a, b, 1}, {a, d, 2}, {d, a, 2}, {b, ids[2], 2}, {a, iso, -1},
	}
	for _, c := range cases {
		got := -1
		for hops := 0; hops <= g.NumNodes(); hops++ {
			if Neighborhood(g, []NodeID{c.u}, hops)[c.v] {
				got = hops
				break
			}
		}
		if got != c.want {
			t.Errorf("dist(%d,%d) = %d, want %d", c.u, c.v, got, c.want)
		}
	}
}

func TestSubgraph(t *testing.T) {
	g, ids := buildDiamond(t)
	g.SetAttr(ids[1], "title", "t1")
	sub, remap := g.Subgraph(map[NodeID]bool{ids[0]: true, ids[1]: true, ids[3]: true})
	if sub.NumNodes() != 3 {
		t.Fatalf("subgraph nodes = %d, want 3", sub.NumNodes())
	}
	// Edge a->b survives, b->d survives; a->c and c->d dropped.
	if sub.NumEdges() != 2 {
		t.Fatalf("subgraph edges = %d, want 2", sub.NumEdges())
	}
	if v, ok := sub.Attr(remap[ids[1]], "title"); !ok || v != "t1" {
		t.Error("attributes not carried into subgraph")
	}
}

func TestCloneIndependence(t *testing.T) {
	g, ids := buildDiamond(t)
	g.SetAttr(ids[0], "name", "alice")
	c := g.Clone()
	c.SetAttr(ids[0], "name", "eve")
	c.AddNode("new")
	if v, _ := g.Attr(ids[0], "name"); v != "alice" {
		t.Error("clone mutation leaked into original attrs")
	}
	if g.NumNodes() != 4 {
		t.Error("clone mutation leaked into original nodes")
	}
}

func TestSizeCountsAttrs(t *testing.T) {
	g, ids := buildDiamond(t)
	base := size(g)
	g.SetAttr(ids[0], "a", "1")
	g.SetAttr(ids[0], "b", "2")
	if size(g) != base+2 {
		t.Errorf("Size after 2 attrs = %d, want %d", size(g), base+2)
	}
}

// Property: on a random graph Neighborhood(v, 0) is {v}, and each further hop
// adds exactly the nodes adjacent (in either direction) to the previous
// layer — checked against the raw edge list, not the adjacency index.
func TestNeighborhoodPropertyQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		n := 2 + rng.Intn(20)
		for i := 0; i < n; i++ {
			g.AddNode("x")
		}
		for i := 0; i < n*2; i++ {
			g.AddEdge(NodeID(rng.Intn(n)), NodeID(rng.Intn(n)), "e")
		}
		v := NodeID(rng.Intn(n))
		want := map[NodeID]bool{v: true}
		for d := 0; d <= 4; d++ {
			if !reflect.DeepEqual(Neighborhood(g, []NodeID{v}, d), want) {
				return false
			}
			next := map[NodeID]bool{}
			for u := 0; u < n; u++ {
				for _, e := range g.Out(NodeID(u)) {
					if want[e.From] || want[e.To] {
						next[e.From], next[e.To] = true, true
					}
				}
			}
			for u := range next {
				want[u] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestGraphSnapshotCaching pins the editable graph's read path: Frozen is
// built once and shared until a mutating call, every mutator voids it (a
// no-op one included), and a snapshot taken before stays the picture of the
// graph as it was.
func TestGraphSnapshotCaching(t *testing.T) {
	g, ids := buildDiamond(t)
	f := g.Frozen()
	if g.Frozen() != f || g.Epoch() != f.Epoch() {
		t.Fatal("an unmutated graph rebuilt its snapshot")
	}
	HasEdge(g, ids[0], ids[1], "post") // an index read is not a mutation
	if g.Frozen() != f {
		t.Fatal("a read voided the snapshot")
	}
	extra := g.AddNode("extra")
	for _, m := range []struct {
		name   string
		mutate func()
	}{
		{"AddNode", func() { g.AddNode("n") }},
		{"AddEdge", func() { g.AddEdge(ids[0], extra, "e") }},
		{"AddEdge duplicate", func() { g.AddEdge(ids[0], extra, "e") }},
		{"SetAttr", func() { g.SetAttr(ids[0], "a", "1") }},
		{"RemoveEdge", func() { g.RemoveEdge(ids[0], extra, "e") }},
		{"RemoveEdge absent", func() { g.RemoveEdge(ids[0], extra, "e") }},
		{"RemoveNode", func() { g.RemoveNode(extra) }},
	} {
		before := g.Frozen()
		m.mutate()
		after := g.Frozen()
		if after == before || after.Epoch() == before.Epoch() {
			t.Errorf("%s kept the snapshot", m.name)
		}
		checkReaderEquivalence(t, "after "+m.name, g, after, []string{"person", "blog", "extra", "n"}, []string{"post", "e"})
	}
	if f.NumNodes() != 4 || len(f.Attrs(ids[0])) != 0 {
		t.Errorf("the first snapshot changed under later mutations: V=%d attrs=%v", f.NumNodes(), f.Attrs(ids[0]))
	}
}

// TestGraphConcurrentFirstRead is the concurrency contract: goroutines
// racing for the first index read of a fresh graph all get one snapshot
// (run under -race).
func TestGraphConcurrentFirstRead(t *testing.T) {
	g, ids := buildDiamond(t)
	const readers = 8
	snaps := make([]*Frozen, readers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < readers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			if !HasEdge(g, ids[0], ids[1], Wildcard) || g.LabelFrequency(Wildcard) != 4 {
				t.Error("a first reader saw a half-built index")
			}
			snaps[i] = g.Frozen()
		}(i)
	}
	start.Done()
	done.Wait()
	for i, f := range snaps {
		if f != snaps[0] {
			t.Fatalf("reader %d got its own snapshot", i)
		}
	}
}

// TestGraphEdgeLabelLifetime pins the ID contract of reader.go on the
// editable graph: a label no edge carries any more resolves to NoLabel, as
// on a Frozen of the same contents, and IDs resolved before a mutation say
// nothing about the graph after it.
func TestGraphEdgeLabelLifetime(t *testing.T) {
	g := New()
	a, b := g.AddNode("x"), g.AddNode("y")
	g.AddEdge(a, b, "e")
	g.AddEdge(b, a, "f")
	if g.EdgeLabelID("e") == NoLabel || g.EdgeLabelID("f") == NoLabel {
		t.Fatal("a carried label resolved to NoLabel")
	}
	g.RemoveEdge(a, b, "e")
	if id := g.EdgeLabelID("e"); id != NoLabel || g.Frozen().EdgeLabelID("e") != NoLabel {
		t.Errorf("EdgeLabelID of a label whose last edge was removed = %d, want NoLabel", id)
	}
	if g.HasEdgeID(a, b, g.EdgeLabelID("e")) || !g.HasEdgeID(b, a, g.EdgeLabelID("f")) {
		t.Error("probes after the removal disagree with the edit model")
	}
}
