package graph

import "testing"

// String-keyed spellings of the ID core, so test tables can stay keyed by
// label name across representations (interned IDs do not transfer).

func outByLabel(r Reader, v NodeID, label string) []NodeID {
	return r.OutByLabelID(v, r.EdgeLabelID(label))
}

func inByLabel(r Reader, v NodeID, label string) []NodeID {
	return r.InByLabelID(v, r.EdgeLabelID(label))
}

func covers(r Reader, v NodeID, sig Signature) bool {
	return r.CoversIDs(v, r.ResolveLabels(sig.Out), r.ResolveLabels(sig.In))
}

// inEdges collects the edges into v by scanning every node's Out: the raw
// in-adjacency, independent of the in-direction index it is checked against.
func inEdges(r Reader, v NodeID) []Edge {
	var es []Edge
	for u := 0; u < r.NumNodes(); u++ {
		for _, e := range r.Out(NodeID(u)) {
			if e.To == v {
				es = append(es, e)
			}
		}
	}
	return es
}

// size is |G|: live nodes, edges and attributes, the measure of the
// Σ-bounded small model property.
func size(r Reader) int {
	s := r.LabelFrequency(Wildcard) + r.NumEdges()
	for v := 0; v < r.NumNodes(); v++ {
		s += len(r.Attrs(NodeID(v)))
	}
	return s
}

// namedReader is one representation of a fixture graph.
type namedReader struct {
	name string
	r    Reader
}

// readersOf returns g's contents behind every representation: g itself, its
// Frozen snapshot, that snapshot sharded, and an Overlay whose base holds
// only the nodes and whose Delta adds every edge, so the overlay answers
// from merged rows rather than by forwarding to the base.
func readersOf(g *Graph) []namedReader {
	f := g.Frozen()
	b := NewBuilder(0)
	for v := 0; v < g.NumNodes(); v++ {
		b.AddNodeWithAttrs(g.Label(NodeID(v)), g.Attrs(NodeID(v)))
	}
	d := NewDelta(b.Freeze())
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(NodeID(v)) {
			d.AddEdge(e.From, e.To, e.Label)
		}
	}
	return []namedReader{{"graph", g}, {"frozen", f}, {"sharded", f.Sharded(2)}, {"overlay", d.Overlay()}}
}

// TestDerivedQueriesAcrossRepresentations runs one table per derived query
// of reader.go against every representation: they are written once over
// the Reader core, so one table is the whole per-representation coverage.
func TestDerivedQueriesAcrossRepresentations(t *testing.T) {
	for _, rep := range readersOf(buildIndexed(t)) {
		r := rep.r
		t.Run(rep.name, func(t *testing.T) {
			edges := []struct {
				from, to NodeID
				label    string
				want     bool
			}{
				{0, 1, "knows", true}, {1, 0, "knows", false}, {0, 1, "hates", false},
				{0, 1, Wildcard, true}, {0, 2, Wildcard, false}, {1, 1, "likes", true},
				{2, 0, Wildcard, true}, {7, 0, "knows", false},
			}
			for _, c := range edges {
				if got := HasEdge(r, c.from, c.to, c.label); got != c.want {
					t.Errorf("HasEdge(%d, %d, %q) = %v, want %v", c.from, c.to, c.label, got, c.want)
				}
			}
			cands := []struct {
				label string
				want  []NodeID
			}{
				{"person", []NodeID{0, 1, 2}}, {Wildcard, []NodeID{0, 1, 2}}, {"missing", nil},
			}
			for _, c := range cands {
				got := CandidateNodes(r, c.label)
				if !idsEqual(got, c.want) {
					t.Errorf("CandidateNodes(%q) = %v, want %v", c.label, got, c.want)
				}
				for i := range got {
					got[i] = InvalidNode // the copy is the caller's to scribble on
				}
				if again := CandidateNodes(r, c.label); !idsEqual(again, c.want) {
					t.Errorf("CandidateNodes(%q) aliases index storage: %v", c.label, again)
				}
			}
			hoods := []struct {
				v    NodeID
				d    int
				want []NodeID
			}{
				{2, 0, []NodeID{2}}, {2, 1, []NodeID{0, 1, 2}}, {0, 1, []NodeID{0, 1, 2}},
			}
			for _, c := range hoods {
				got := Neighborhood(r, c.v, c.d)
				if len(got) != len(c.want) {
					t.Errorf("Neighborhood(%d, %d) = %v, want %v", c.v, c.d, got, c.want)
				}
				for _, u := range c.want {
					if !got[u] {
						t.Errorf("Neighborhood(%d, %d) misses %d", c.v, c.d, u)
					}
				}
			}
		})
	}
}
