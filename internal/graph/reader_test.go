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

// scanRef is the reference every equivalence test compares against: the
// index queries of Reader answered from a reader's raw Out, Label and Alive
// — for a *Graph, its edit model — by linear scan over one flat edge list.
// It calls no index method of the reader it wraps, so an index bug cannot
// cancel out on both sides of a comparison (a *Graph's index is its Frozen
// snapshot: comparing the two through their index methods would compare
// Freeze with itself).
type scanRef struct {
	r     Reader
	edges []Edge
}

func scan(r Reader) scanRef {
	s := scanRef{r: r}
	for v := 0; v < r.NumNodes(); v++ {
		s.edges = append(s.edges, r.Out(NodeID(v))...)
	}
	return s
}

func (s scanRef) alive(v NodeID) bool {
	if v < 0 || int(v) >= s.r.NumNodes() {
		return false
	}
	a, ok := s.r.(interface{ Alive(NodeID) bool })
	return !ok || a.Alive(v)
}

// out and in return the ascending endpoints of v's edges carrying the label,
// every edge for the Wildcard (a neighbor repeats once per parallel label).
func (s scanRef) out(v NodeID, label string) []NodeID {
	var ids []NodeID
	for _, e := range s.edges {
		if e.From == v && (label == Wildcard || e.Label == label) {
			ids = append(ids, e.To)
		}
	}
	return sortedIDs(ids)
}

func (s scanRef) in(v NodeID, label string) []NodeID {
	var ids []NodeID
	for _, e := range s.edges {
		if e.To == v && (label == Wildcard || e.Label == label) {
			ids = append(ids, e.From)
		}
	}
	return sortedIDs(ids)
}

func (s scanRef) hasEdge(from, to NodeID, label string) bool {
	for _, e := range s.edges {
		if e.From == from && e.To == to && (label == Wildcard || e.Label == label) {
			return true
		}
	}
	return false
}

// candidates lists the live nodes a pattern node with the label may match.
func (s scanRef) candidates(label string) []NodeID {
	var ids []NodeID
	for v := 0; v < s.r.NumNodes(); v++ {
		if s.alive(NodeID(v)) && (label == Wildcard || s.r.Label(NodeID(v)) == label) {
			ids = append(ids, NodeID(v))
		}
	}
	return ids
}

func (s scanRef) covers(v NodeID, sig Signature) bool {
	if v < 0 || int(v) >= s.r.NumNodes() {
		return false
	}
	for _, l := range sig.Out {
		if len(s.out(v, l)) == 0 {
			return false
		}
	}
	for _, l := range sig.In {
		if len(s.in(v, l)) == 0 {
			return false
		}
	}
	return true
}

// hood is the d-hop undirected neighborhood of v, one relaxation pass over
// the edge list per hop.
func (s scanRef) hood(v NodeID, d int) map[NodeID]bool {
	seen := map[NodeID]bool{v: true}
	for hop := 0; hop < d; hop++ {
		next := map[NodeID]bool{}
		for _, e := range s.edges {
			if seen[e.From] || seen[e.To] {
				next[e.From], next[e.To] = true, true
			}
		}
		for u := range next {
			seen[u] = true
		}
	}
	return seen
}

// size is the expected |G|, the counterpart of size(r) below.
func (s scanRef) size() int {
	n := len(s.candidates(Wildcard)) + len(s.edges)
	for v := 0; v < s.r.NumNodes(); v++ {
		n += len(s.r.Attrs(NodeID(v)))
	}
	return n
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
				got := neighborhood(r, []NodeID{c.v}, c.d)
				if len(got) != len(c.want) {
					t.Errorf("neighborhood(%d, %d) = %v, want %v", c.v, c.d, got, c.want)
				}
				for _, u := range c.want {
					if !got[u] {
						t.Errorf("neighborhood(%d, %d) misses %d", c.v, c.d, u)
					}
				}
			}
		})
	}
}

// neighborhood returns the set of nodes within d hops of any seed, treating
// edges as undirected — for one seed, the d_Q-neighborhood of Section V-B —
// by one BFS over r's AnyLabel rows in both directions: the walk the
// representation-equivalence tests run on every Reader. Seeds outside the
// graph's ID space are ignored.
func neighborhood(r Reader, seeds []NodeID, d int) map[NodeID]bool {
	seen := make(map[NodeID]bool, len(seeds))
	frontier := make([]NodeID, 0, len(seeds))
	n := r.NumNodes()
	for _, s := range seeds {
		if s >= 0 && int(s) < n && !seen[s] {
			seen[s] = true
			frontier = append(frontier, s)
		}
	}
	for hop := 0; hop < d && len(frontier) > 0; hop++ {
		var next []NodeID
		for _, u := range frontier {
			for _, w := range r.OutByLabelID(u, AnyLabel) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
			for _, w := range r.InByLabelID(u, AnyLabel) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return seen
}
