package match

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/pattern"
)

// operandFromBytes decodes fuzz bytes into an ascending NodeID slice:
// each byte is a non-negative increment (mod 8) on a running value, so
// arbitrary inputs always yield a valid sorted operand and a zero
// increment yields the duplicates the kernel contract must preserve.
func operandFromBytes(b []byte) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(b))
	v := graph.NodeID(0)
	for _, x := range b {
		v += graph.NodeID(x % 8)
		out = append(out, v)
	}
	return out
}

func cloneIDs(ids []graph.NodeID) []graph.NodeID {
	return append([]graph.NodeID(nil), ids...)
}

func idsEqual(a, b []graph.NodeID) bool {
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

// FuzzIntersect pins the kernel contract of intersect.go: merge, both
// gallop directions, the adaptive picker, and the bitset kernel all
// compute base filtered to the values present in list — same elements,
// same order, same multiplicity — on arbitrary sorted operand pairs.
// CI replays the seed corpus deterministically (see ci.yml); run with
// -fuzz=FuzzIntersect to explore.
func FuzzIntersect(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte{})
	f.Add([]byte{}, []byte{1, 1, 2})
	f.Add([]byte{1, 1, 1}, []byte{3})
	f.Add([]byte{5, 0, 0, 2}, []byte{5, 0, 2, 0})
	f.Add([]byte{1}, []byte{0, 1, 1, 2, 3, 4, 5, 6, 7, 1, 1, 1, 2, 3, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 1, 1, 1, 2, 3, 0, 0}, []byte{2, 2})
	f.Add([]byte{7, 7, 7, 7}, []byte{1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, rawBase, rawList []byte) {
		base := operandFromBytes(rawBase)
		list := operandFromBytes(rawList)

		want := intersectSorted(cloneIDs(base), list)

		if got := intersectGallopList(cloneIDs(base), list); !idsEqual(got, want) {
			t.Fatalf("gallop(list) diverges from merge:\nbase %v\nlist %v\nmerge  %v\ngallop %v", base, list, want, got)
		}
		if got := intersectGallopBase(cloneIDs(base), list); !idsEqual(got, want) {
			t.Fatalf("gallop(base) diverges from merge:\nbase %v\nlist %v\nmerge  %v\ngallop %v", base, list, want, got)
		}
		if got := intersectAdaptive(cloneIDs(base), list); !idsEqual(got, want) {
			t.Fatalf("adaptive picker diverges from merge:\nbase %v\nlist %v\nmerge    %v\nadaptive %v", base, list, want, got)
		}

		// Bitset kernel: membership-set semantics — build the set from
		// list, then filter base through it.
		max := graph.NodeID(0)
		for _, n := range list {
			if n > max {
				max = n
			}
		}
		bs := make(graph.Bitset, (int(max)+64)/64)
		for _, n := range list {
			bs[uint(n)>>6] |= 1 << (uint(n) & 63)
		}
		if got := intersectBitset(cloneIDs(base), bs); !idsEqual(got, want) {
			t.Fatalf("bitset kernel diverges from merge:\nbase %v\nlist %v\nmerge  %v\nbitset %v", base, list, want, got)
		}
	})
}

var (
	fuzzNodeLabels = []string{"a", "b", graph.Wildcard}
	fuzzEdgeLabels = []string{"e", "f", graph.Wildcard}
)

// shapeFromBytes decodes fuzz bytes into a labelled multigraph of at most
// max nodes: the first byte picks the node count, the next one per node its
// label, and every following triple an edge (from, to, label), all reduced
// modulo the valid range so arbitrary inputs decode. A data node or edge
// labelled '_' is an ordinary label that only a wildcard matches.
func shapeFromBytes(b []byte, max int) (labels []string, edges [][3]int) {
	n := 1
	if len(b) > 0 {
		n, b = 1+int(b[0])%max, b[1:]
	}
	for i := 0; i < n; i++ {
		l := 0
		if len(b) > 0 {
			l, b = int(b[0]), b[1:]
		}
		labels = append(labels, fuzzNodeLabels[l%len(fuzzNodeLabels)])
	}
	for ; len(b) >= 3; b = b[3:] {
		edges = append(edges, [3]int{int(b[0]) % n, int(b[1]) % n, int(b[2]) % len(fuzzEdgeLabels)})
	}
	return labels, edges
}

// FuzzSimulate pins graph simulation to its definition on arbitrary
// small pattern × graph pairs, on the mutable graph and its Frozen snapshot:
// Simulate's relation equals oracle.Simulation, and every homomorphism
// oracle.Matches finds lies inside it (the property
// a caller relies on when it uses Has as a search filter). CI replays the
// seed corpus deterministically (see ci.yml); run with -fuzz=FuzzSimulate to
// explore.
func FuzzSimulate(f *testing.F) {
	// Node labels: 0 a, 1 b, 2 _; edge labels: 0 e, 1 f, 2 _.
	chain := []byte{3, 0, 0, 0, 0, 0, 1, 0, 1, 2, 0, 2, 3, 0} // a0 -e-> a1 -e-> a2 -e-> a3
	twoEdges := []byte{3, 0, 1, 0, 1, 0, 1, 0, 2, 3, 0}       // a0 -e-> b1, a2 -e-> b3
	for _, seed := range [][2][]byte{
		// One node, one variable.
		{{0, 0}, {0, 0}},
		// a -e-> b: the seeds are already the answer.
		{twoEdges, {1, 0, 1, 0, 1, 0}},
		// a -f-> b: the label is not in the graph.
		{twoEdges, {1, 0, 1, 0, 1, 1}},
		// The chain into itself: each round sheds one more node.
		{chain, chain},
		// Wildcard 2-cycle onto the loop at the end of a chain.
		{{2, 0, 1, 0, 0, 1, 0, 1, 2, 0, 2, 2, 0}, {1, 2, 2, 0, 1, 2, 1, 0, 2}},
		// Self-loop variable over parallel data edges.
		{{1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0}, {0, 0, 0, 0, 0}},
		// No edges, and a variable with no candidate.
		{{5, 1, 1, 1, 1, 1, 1}, {3, 0, 1, 2, 0}},
		// A data edge labelled _ is not an e, but a wildcard edge matches it.
		{{1, 2, 0, 0, 1, 2}, {1, 2, 0, 0, 1, 0}},
		{{1, 2, 0, 0, 1, 2}, {1, 2, 0, 0, 1, 2}},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, rawGraph, rawPattern []byte) {
		g := graph.New()
		labels, edges := shapeFromBytes(rawGraph, 8)
		for _, l := range labels {
			g.AddNode(l)
		}
		for _, e := range edges {
			g.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), fuzzEdgeLabels[e[2]])
		}
		p := pattern.New()
		labels, edges = shapeFromBytes(rawPattern, 4)
		for i, l := range labels {
			p.AddVar(fmt.Sprintf("x%d", i), l)
		}
		for _, e := range edges {
			p.AddEdge(pattern.Var(e[0]), pattern.Var(e[1]), fuzzEdgeLabels[e[2]])
		}
		for _, r := range []graph.Reader{g, g.Frozen()} {
			want := oracle.Simulation(p, r)
			sim := Simulate(p, r)
			if (sim == nil) != (want == nil) {
				t.Fatalf("%T, %s: simulation exists = %v, oracle says %v", r, p, sim != nil, want != nil)
			}
			for v := range want {
				if got := sim.Nodes(pattern.Var(v)); !slices.Equal(got, want[v]) {
					t.Fatalf("%T, %s: sim(x%d) = %v, oracle %v", r, p, v, got, want[v])
				}
			}
			for _, h := range oracle.Matches(p, r) {
				for v, n := range h {
					if sim == nil || !sim.Has(pattern.Var(v), n) {
						t.Fatalf("%T, %s: match %v maps x%d outside the relation", r, p, h, v)
					}
				}
			}
		}
	})
}
