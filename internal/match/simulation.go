package match

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// Sim is a graph-simulation relation of a pattern into a graph: for each
// pattern variable, the set of data nodes that can simulate it. Each set is
// stored twice — as its ascending member list, which the refinement
// iterates, and as a word-packed bitset of the graph's node range, so that
// Has is one word read. A pattern's lists share one allocation and its
// bitsets another.
type Sim struct {
	words int              // bitset words per variable
	bits  []uint64         // variable v owns bits[v*words : (v+1)*words]
	nodes [][]graph.NodeID // per variable, ascending
}

// Has reports whether node n can simulate variable v.
func (s *Sim) Has(v pattern.Var, n graph.NodeID) bool {
	return s.bits[int(v)*s.words+int(n>>6)]&(1<<(uint(n)&63)) != 0
}

// Nodes returns sim(v) in ascending node order. The slice is the relation's
// own storage, not a copy: read-only.
func (s *Sim) Nodes(v pattern.Var) []graph.NodeID { return s.nodes[v] }

// Simulator computes simulation relations of many patterns into one graph,
// recycling its scratch buffers from one pattern to the next. The caller
// may pick each variable's starting set (see Simulate): on G_Σ, the nodes of
// the copies that can host the pattern (canon.Sigma.Scope), a few hundred
// nodes where the label index would hand a wildcard all of G_Σ.
//
// A Simulator is not safe for concurrent use, and the graph must not change
// while it is in use.
type Simulator struct {
	g     graph.Reader
	words int

	// Scratch recycled across calls.
	ids   []graph.LabelID
	idsAt []int
	cands []graph.NodeID // every variable's seed, back to back
	ends  []int          // where each variable's seed ends in cands
}

// NewSimulator returns a Simulator for patterns matched into g.
func NewSimulator(g graph.Reader) *Simulator {
	return &Simulator{g: g, words: (g.NumNodes() + 63) / 64}
}

// Simulate computes the graph simulation relation of pattern p into graph g
// (Henzinger–Henzinger–Kopke style refinement): sim(u) is the set of data
// nodes with a matching label whose out/in edges can cover u's pattern
// edges. It returns nil if some variable simulates no node.
//
// Simulation is a necessary condition for homomorphism: if Simulate returns
// nil there is no match of p in g, and any homomorphism maps u into sim(u)
// (the paper's pre-filter, Section V-B; the engines do without it, because
// the G_Σ scope and the search's root pruning already cut what it would).
// This is the one-shot form, with every variable starting from its label's
// candidates; a caller with many patterns for one graph shares a Simulator.
func Simulate(p *pattern.Pattern, g graph.Reader) *Sim {
	return NewSimulator(g).Simulate(p, nil)
}

// Simulate computes the simulation relation of p into the Simulator's graph;
// see the package-level Simulate. Variable v's refinement starts from
// base[v] when base and base[v] are non-nil, and from its label's candidates
// otherwise. A base list must be ascending, label-compatible with v and hold
// every node that simulates v; the relation is then the one the label index
// would give. base is only read. The result does not alias the Simulator
// and stays valid after further calls.
func (m *Simulator) Simulate(p *pattern.Pattern, base [][]graph.NodeID) *Sim {
	p.Freeze()
	nv := p.NumVars()
	m.cands, m.ends = m.cands[:0], m.ends[:0]
	for v := 0; v < nv; v++ {
		start := len(m.cands)
		var from []graph.NodeID
		if base != nil {
			from = base[v]
		}
		if m.cands = m.seed(m.cands, p, pattern.Var(v), from); len(m.cands) == start {
			return nil
		}
		m.ends = append(m.ends, len(m.cands))
	}
	s := &Sim{words: m.words, bits: make([]uint64, nv*m.words), nodes: make([][]graph.NodeID, nv)}
	slab := slices.Clone(m.cands)
	start := 0
	for v, end := range m.ends {
		s.nodes[v] = slab[start:end:end]
		for _, n := range s.nodes[v] {
			s.bits[v*m.words+int(n>>6)] |= 1 << (uint(n) & 63)
		}
		start = end
	}
	// Pre-resolve every pattern edge's label ID so the fixpoint loop probes
	// the adjacency index with integers only: variable v's out-edge IDs, then
	// its in-edge IDs, start at ids[idsAt[v]].
	m.ids, m.idsAt = m.ids[:0], m.idsAt[:0]
	for v := 0; v < nv; v++ {
		m.idsAt = append(m.idsAt, len(m.ids))
		for _, e := range p.Out(pattern.Var(v)) {
			m.ids = append(m.ids, m.g.EdgeLabelID(e.Label))
		}
		for _, e := range p.In(pattern.Var(v)) {
			m.ids = append(m.ids, m.g.EdgeLabelID(e.Label))
		}
	}
	// Refine to a fixpoint: drop n from sim(u) if some pattern edge at u
	// cannot be realized within the current sim sets. A round walks the
	// member lists only, compacting each in place.
	for changed := true; changed; {
		changed = false
		for v := 0; v < nv; v++ {
			out, in := p.Out(pattern.Var(v)), p.In(pattern.Var(v))
			outIDs := m.ids[m.idsAt[v]:]
			inIDs := outIDs[len(out):]
			kept := s.nodes[v][:0]
			for _, n := range s.nodes[v] {
				if m.realizable(s, n, out, outIDs, in, inIDs) {
					kept = append(kept, n)
				} else {
					s.bits[v*s.words+int(n>>6)] &^= 1 << (uint(n) & 63)
				}
			}
			if len(kept) == 0 {
				return nil
			}
			if len(kept) < len(s.nodes[v]) {
				s.nodes[v] = kept
				changed = true
			}
		}
	}
	return s
}

// seed appends to dst the refinement's starting set for variable v of p:
// from, or the label's candidates when from is nil, less the nodes whose
// adjacency cannot cover the variable's degree/label signature. Such a node
// would be refined away anyway, so dropping it here shrinks the fixpoint's
// working set for free.
func (m *Simulator) seed(dst []graph.NodeID, p *pattern.Pattern, v pattern.Var, from []graph.NodeID) []graph.NodeID {
	sig := p.Signature(v)
	m.ids = m.ids[:0]
	for _, l := range sig.Out {
		m.ids = append(m.ids, m.g.EdgeLabelID(l))
	}
	for _, l := range sig.In {
		m.ids = append(m.ids, m.g.EdgeLabelID(l))
	}
	sigOut, sigIn := m.ids[:len(sig.Out)], m.ids[len(sig.Out):]
	start := len(dst)
	if from != nil {
		dst = append(dst, from...)
	} else {
		dst = m.g.AppendCandidates(dst, p.Label(v))
	}
	if len(m.ids) == 0 {
		return dst
	}
	kept := dst[:start]
	for _, n := range dst[start:] {
		if m.g.CoversIDs(n, sigOut, sigIn) {
			kept = append(kept, n)
		}
	}
	return kept
}

// realizable reports whether every pattern edge at a variable — out and in,
// each with its aligned label IDs — has, at data node n, a counterpart whose
// other end is in the current sim set of the edge's other variable.
func (m *Simulator) realizable(s *Sim, n graph.NodeID, out []pattern.Edge, outIDs []graph.LabelID, in []pattern.Edge, inIDs []graph.LabelID) bool {
	// The label-keyed adjacency index hands back exactly the edges carrying
	// the pattern edge's label (all edges for wildcard), so the inner loops
	// touch no mismatched edges.
	for ei, e := range out {
		ok := false
		for _, t := range m.g.OutByLabelID(n, outIDs[ei]) {
			if s.Has(e.To, t) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for ei, e := range in {
		ok := false
		for _, f := range m.g.InByLabelID(n, inIDs[ei]) {
			if s.Has(e.From, f) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
