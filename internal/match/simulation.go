package match

import (
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

// Simulate computes the graph simulation relation of pattern p into graph g
// (Henzinger–Henzinger–Kopke style refinement): sim(u) is the set of data
// nodes with a matching label whose out/in edges can cover u's pattern
// edges. It returns nil if some variable simulates no node.
//
// Simulation is a necessary condition for homomorphism: if Simulate returns
// nil there is no match of p in g, and any homomorphism maps u into sim(u)
// (the paper's pre-filter, Section V-B; the engines do without it, because
// the G_Σ scope and the search's root pruning already cut what it would).
func Simulate(p *pattern.Pattern, g graph.Reader) *Sim {
	f := g.Snapshot()
	p.Freeze()
	nv := p.NumVars()
	// Every variable's seed, back to back in one slab, ending at ends[v].
	var cands []graph.NodeID
	ends := make([]int, nv)
	for v := range nv {
		start := len(cands)
		if cands = simSeed(f, cands, p, pattern.Var(v)); len(cands) == start {
			return nil
		}
		ends[v] = len(cands)
	}
	words := (f.NumNodes() + 63) / 64
	s := &Sim{words: words, bits: make([]uint64, nv*words), nodes: make([][]graph.NodeID, nv)}
	start := 0
	for v, end := range ends {
		s.nodes[v] = cands[start:end:end]
		for _, n := range s.nodes[v] {
			s.bits[v*words+int(n>>6)] |= 1 << (uint(n) & 63)
		}
		start = end
	}
	// Pre-resolve every pattern edge's label ID so the fixpoint loop probes
	// the adjacency index with integers only: variable v's out-edge IDs, then
	// its in-edge IDs, start at ids[idsAt[v]].
	var ids []graph.LabelID
	idsAt := make([]int, nv)
	for v := range nv {
		idsAt[v] = len(ids)
		for _, e := range p.Out(pattern.Var(v)) {
			ids = append(ids, f.EdgeLabelID(e.Label))
		}
		for _, e := range p.In(pattern.Var(v)) {
			ids = append(ids, f.EdgeLabelID(e.Label))
		}
	}
	// Refine to a fixpoint: drop n from sim(u) if some pattern edge at u
	// cannot be realized within the current sim sets. A round walks the
	// member lists only, compacting each in place.
	for changed := true; changed; {
		changed = false
		for v := range nv {
			out, in := p.Out(pattern.Var(v)), p.In(pattern.Var(v))
			outIDs := ids[idsAt[v]:]
			inIDs := outIDs[len(out):]
			kept := s.nodes[v][:0]
			for _, n := range s.nodes[v] {
				if realizable(f, s, n, out, outIDs, in, inIDs) {
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

// simSeed appends to dst the refinement's starting set for variable v of p:
// the label's candidates less the nodes whose adjacency cannot cover the
// variable's degree/label signature. Such a node would be refined away
// anyway, so dropping it here shrinks the fixpoint's working set for free.
func simSeed(f *graph.Frozen, dst []graph.NodeID, p *pattern.Pattern, v pattern.Var) []graph.NodeID {
	sig := p.Signature(v)
	start := len(dst)
	dst = f.AppendCandidates(dst, p.Label(v))
	if len(sig.Out) == 0 && len(sig.In) == 0 {
		return dst
	}
	sigOut, sigIn := f.ResolveLabels(sig.Out), f.ResolveLabels(sig.In)
	kept := dst[:start]
	for _, n := range dst[start:] {
		if f.CoversIDs(n, sigOut, sigIn) {
			kept = append(kept, n)
		}
	}
	return kept
}

// realizable reports whether every pattern edge at a variable — out and in,
// each with its aligned label IDs — has, at data node n, a counterpart whose
// other end is in the current sim set of the edge's other variable.
func realizable(f *graph.Frozen, s *Sim, n graph.NodeID, out []pattern.Edge, outIDs []graph.LabelID, in []pattern.Edge, inIDs []graph.LabelID) bool {
	// The label-keyed adjacency index hands back exactly the edges carrying
	// the pattern edge's label (all edges for wildcard), so the inner loops
	// touch no mismatched edges.
	for ei, e := range out {
		ok := false
		for _, t := range f.OutByLabelID(n, outIDs[ei]) {
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
		for _, f := range f.InByLabelID(n, inIDs[ei]) {
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
