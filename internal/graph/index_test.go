package graph

import (
	"sort"
	"testing"
)

// sortedIDs returns a sorted copy so order-insensitive comparisons read
// clearly in table tests.
func sortedIDs(ids []NodeID) []NodeID {
	out := append([]NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func idsEqual(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// buildIndexed constructs the fixture shared by the index tables:
//
//	0:person -knows-> 1:person -knows-> 2:person
//	0 -likes-> 1, 1 -likes-> 1 (self-loop), 2 -_-> 0 (literal wildcard label)
func buildIndexed(t *testing.T) *Graph {
	t.Helper()
	g := New()
	for i := 0; i < 3; i++ {
		g.AddNode("person")
	}
	g.AddEdge(0, 1, "knows")
	g.AddEdge(1, 2, "knows")
	g.AddEdge(0, 1, "likes")
	g.AddEdge(1, 1, "likes")
	g.AddEdge(2, 0, Wildcard)
	return g
}

func TestOutByLabelTable(t *testing.T) {
	g := buildIndexed(t)
	tests := []struct {
		name  string
		v     NodeID
		label string
		want  []NodeID
	}{
		{"exact label", 0, "knows", []NodeID{1}},
		{"parallel edge second label", 0, "likes", []NodeID{1}},
		{"absent label", 0, "hates", nil},
		{"wildcard returns all targets with duplicates", 0, Wildcard, []NodeID{1, 1}},
		{"self-loop target", 1, "likes", []NodeID{1}},
		{"wildcard over loop and chain", 1, Wildcard, []NodeID{1, 2}},
		{"literal wildcard data edge", 2, Wildcard, []NodeID{0}},
		{"no outgoing edges of label", 2, "knows", nil},
		{"invalid node", 99, "knows", nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := sortedIDs(outByLabel(g, tc.v, tc.label))
			if !idsEqual(got, sortedIDs(tc.want)) {
				t.Errorf("OutByLabel(%d, %q) = %v, want %v", tc.v, tc.label, got, tc.want)
			}
		})
	}
}

func TestInByLabelTable(t *testing.T) {
	g := buildIndexed(t)
	tests := []struct {
		name  string
		v     NodeID
		label string
		want  []NodeID
	}{
		{"exact label", 1, "knows", []NodeID{0}},
		{"self-loop source included", 1, "likes", []NodeID{0, 1}},
		{"wildcard collects every inbound edge", 1, Wildcard, []NodeID{0, 0, 1}},
		{"literal wildcard inbound", 0, Wildcard, []NodeID{2}},
		{"absent label", 2, "likes", nil},
		{"invalid node", -1, "knows", nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := sortedIDs(inByLabel(g, tc.v, tc.label))
			if !idsEqual(got, sortedIDs(tc.want)) {
				t.Errorf("InByLabel(%d, %q) = %v, want %v", tc.v, tc.label, got, tc.want)
			}
		})
	}
}

func TestHasEdgeIndexTable(t *testing.T) {
	g := buildIndexed(t)
	tests := []struct {
		name     string
		from, to NodeID
		label    string
		want     bool
	}{
		{"exact", 0, 1, "knows", true},
		{"wrong label", 0, 1, "hates", false},
		{"wrong direction", 1, 0, "knows", false},
		{"wildcard query", 0, 1, Wildcard, true},
		{"wildcard query absent pair", 0, 2, Wildcard, false},
		{"self-loop exact", 1, 1, "likes", true},
		{"self-loop wildcard", 1, 1, Wildcard, true},
		// An edge whose data label is the literal '_' is found by a
		// wildcard query (which matches any label).
		{"literal wildcard edge", 2, 0, Wildcard, true},
		{"invalid endpoint", 7, 0, "knows", false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := HasEdge(g, tc.from, tc.to, tc.label); got != tc.want {
				t.Errorf("HasEdge(%d, %d, %q) = %v, want %v", tc.from, tc.to, tc.label, got, tc.want)
			}
		})
	}
}

func TestCoversTable(t *testing.T) {
	g := buildIndexed(t)
	tests := []struct {
		name string
		v    NodeID
		sig  Signature
		want bool
	}{
		{"empty signature", 2, Signature{}, true},
		{"single out label", 0, Signature{Out: []string{"knows"}}, true},
		{"both out labels", 0, Signature{Out: []string{"knows", "likes"}}, true},
		{"missing out label", 2, Signature{Out: []string{"knows"}}, false},
		{"wildcard out needs any edge", 2, Signature{Out: []string{Wildcard}}, true},
		{"in label via self-loop", 1, Signature{In: []string{"likes"}}, true},
		{"in label absent", 2, Signature{In: []string{"likes"}}, false},
		{"combined out and in", 1, Signature{Out: []string{"knows"}, In: []string{"knows"}}, true},
		{"combined fails on one side", 0, Signature{Out: []string{"knows"}, In: []string{"knows"}}, false},
		{"wildcard in on node with only literal-wildcard inbound", 0, Signature{In: []string{Wildcard}}, true},
		{"invalid node", 42, Signature{}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := covers(g, tc.v, tc.sig); got != tc.want {
				t.Errorf("Covers(%d, %+v) = %v, want %v", tc.v, tc.sig, got, tc.want)
			}
		})
	}
}

func TestCandidateNodesReturnsCopy(t *testing.T) {
	g := buildIndexed(t)
	cands := CandidateNodes(g, "person")
	if len(cands) != 3 {
		t.Fatalf("CandidateNodes = %v, want 3 nodes", cands)
	}
	// Corrupting the returned slice must not corrupt the label index.
	for i := range cands {
		cands[i] = InvalidNode
	}
	again := CandidateNodes(g, "person")
	if !idsEqual(sortedIDs(again), []NodeID{0, 1, 2}) {
		t.Fatalf("label index corrupted through CandidateNodes: %v", again)
	}
}

// checkIndexConsistency cross-validates the label-keyed index, the edge
// sets, and Covers against the raw Out/In adjacency slices.
func checkIndexConsistency(t *testing.T, g *Graph) {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		id := NodeID(v)
		// Every raw out edge must be visible through the index and HasEdge.
		labels := map[string]bool{Wildcard: true}
		for _, e := range g.Out(id) {
			labels[e.Label] = true
		}
		for _, e := range inEdges(g, id) {
			labels[e.Label] = true
		}
		for l := range labels {
			wantOut := []NodeID{}
			for _, e := range g.Out(id) {
				if l == Wildcard || e.Label == l {
					wantOut = append(wantOut, e.To)
				}
			}
			if got := sortedIDs(outByLabel(g, id, l)); !idsEqual(got, sortedIDs(wantOut)) {
				t.Errorf("node %d label %q: OutByLabel = %v, scan = %v", v, l, got, wantOut)
			}
			wantIn := []NodeID{}
			for _, e := range inEdges(g, id) {
				if l == Wildcard || e.Label == l {
					wantIn = append(wantIn, e.From)
				}
			}
			if got := sortedIDs(inByLabel(g, id, l)); !idsEqual(got, sortedIDs(wantIn)) {
				t.Errorf("node %d label %q: InByLabel = %v, scan = %v", v, l, got, wantIn)
			}
		}
		for _, e := range g.Out(id) {
			if !HasEdge(g, e.From, e.To, e.Label) {
				t.Errorf("HasEdge misses raw edge %+v", e)
			}
			if !HasEdge(g, e.From, e.To, Wildcard) {
				t.Errorf("wildcard HasEdge misses raw edge %+v", e)
			}
			if !covers(g, e.From, Signature{Out: []string{e.Label}}) {
				t.Errorf("Covers misses out label of raw edge %+v", e)
			}
			if !covers(g, e.To, Signature{In: []string{e.Label}}) {
				t.Errorf("Covers misses in label of raw edge %+v", e)
			}
		}
	}
}

func TestIndexConsistencyAfterSubgraph(t *testing.T) {
	g := buildIndexed(t)
	sub, remap := g.Subgraph(map[NodeID]bool{0: true, 1: true})
	checkIndexConsistency(t, sub)
	if !HasEdge(sub, remap[0], remap[1], "knows") {
		t.Error("subgraph lost kept edge from index view")
	}
	if HasEdge(sub, remap[1], remap[1], "knows") {
		t.Error("subgraph index reports edge that was never added")
	}
	// The self-loop at 1 survives induction.
	if !HasEdge(sub, remap[1], remap[1], "likes") {
		t.Error("subgraph index lost induced self-loop")
	}
}

func TestAddEdgeIdempotentViaIndex(t *testing.T) {
	g := New()
	a, b := g.AddNode("x"), g.AddNode("y")
	for i := 0; i < 3; i++ {
		g.AddEdge(a, b, "e")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if got := outByLabel(g, a, "e"); len(got) != 1 {
		t.Fatalf("OutByLabel holds duplicates after idempotent insert: %v", got)
	}
	if got := inByLabel(g, b, Wildcard); len(got) != 1 {
		t.Fatalf("wildcard InByLabel holds duplicates after idempotent insert: %v", got)
	}
}
