package match

import (
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Sim is a graph-simulation relation of a pattern into a graph: for each
// pattern variable, the set of data nodes that can simulate it. It is
// stored as dense bitsets so computing and probing it stays off the map
// hashing path (the reasoning algorithms compute one per GFD per run).
type Sim struct {
	p    *pattern.Pattern
	n    int
	bits [][]bool // per var, indexed by node id
	cnt  []int
}

// Has reports whether node n can simulate variable v.
func (s *Sim) Has(v pattern.Var, n graph.NodeID) bool {
	return s.bits[v][n]
}

// Count returns |sim(v)|.
func (s *Sim) Count(v pattern.Var) int { return s.cnt[v] }

// Nodes returns sim(v) in ascending node order.
func (s *Sim) Nodes(v pattern.Var) []graph.NodeID {
	out := make([]graph.NodeID, 0, s.cnt[v])
	for n, ok := range s.bits[v] {
		if ok {
			out = append(out, graph.NodeID(n))
		}
	}
	return out
}

// Simulate computes the graph simulation relation of pattern p into graph g
// (Henzinger–Henzinger–Kopke style refinement): sim(u) is the set of data
// nodes with a matching label whose out/in edges can cover u's pattern
// edges. It returns nil if some variable simulates no node.
//
// Simulation is a necessary condition for homomorphism: if Simulate returns
// nil there is no match of p in g, and any homomorphism maps u into sim(u).
// The parallel algorithms use it as a cheap O(|Q|·|G|) pre-filter before
// backtracking search (Section V-B, multi-query optimization).
func Simulate(p *pattern.Pattern, g graph.Reader) *Sim {
	p.Freeze()
	nv := p.NumVars()
	s := &Sim{p: p, n: g.NumNodes(), bits: make([][]bool, nv), cnt: make([]int, nv)}
	var cands []graph.NodeID // recycled across variables
	for v := 0; v < nv; v++ {
		bits := make([]bool, s.n)
		cnt := 0
		// Seed with the label candidates, pre-filtered by the variable's
		// degree/label signature: a node whose adjacency cannot cover the
		// variable's pattern edges would be refined away anyway, so dropping
		// it here shrinks the fixpoint's working set for free. The signature
		// is resolved to label IDs once so the per-node probes are
		// integer-only, and the candidates land in a recycled buffer via the
		// appending accessor (graph.CandidateNodes would copy per variable).
		sig := p.Signature(pattern.Var(v))
		sigOut := g.ResolveLabels(sig.Out)
		sigIn := g.ResolveLabels(sig.In)
		cands = g.AppendCandidates(cands[:0], p.Label(pattern.Var(v)))
		for _, n := range cands {
			if g.CoversIDs(n, sigOut, sigIn) {
				bits[n] = true
				cnt++
			}
		}
		if cnt == 0 {
			return nil
		}
		s.bits[v] = bits
		s.cnt[v] = cnt
	}
	// Pre-resolve every pattern edge's label ID so the fixpoint loop probes
	// the adjacency index with integers only.
	outIDs := make([][]graph.LabelID, nv)
	inIDs := make([][]graph.LabelID, nv)
	for v := 0; v < nv; v++ {
		outIDs[v] = resolveEdgeLabels(g, p.Out(pattern.Var(v)))
		inIDs[v] = resolveEdgeLabels(g, p.In(pattern.Var(v)))
	}
	// Refine to a fixpoint: drop n from sim(u) if some pattern edge at u
	// cannot be realized within the current sim sets.
	changed := true
	for changed {
		changed = false
		for v := 0; v < nv; v++ {
			u := pattern.Var(v)
			bits := s.bits[u]
			for n := range bits {
				if !bits[n] {
					continue
				}
				if !edgesRealizable(p, g, s, u, graph.NodeID(n), outIDs[v], inIDs[v]) {
					bits[n] = false
					s.cnt[u]--
					changed = true
				}
			}
			if s.cnt[u] == 0 {
				return nil
			}
		}
	}
	return s
}

func edgesRealizable(p *pattern.Pattern, g graph.Reader, s *Sim, u pattern.Var, n graph.NodeID, outIDs, inIDs []graph.LabelID) bool {
	// The label-keyed adjacency index hands back exactly the edges carrying
	// the pattern edge's label (all edges for wildcard), so the inner loops
	// touch no mismatched edges.
	for ei, e := range p.Out(u) {
		ok := false
		for _, t := range g.OutByLabelID(n, outIDs[ei]) {
			if s.bits[e.To][t] {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for ei, e := range p.In(u) {
		ok := false
		for _, f := range g.InByLabelID(n, inIDs[ei]) {
			if s.bits[e.From][f] {
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
