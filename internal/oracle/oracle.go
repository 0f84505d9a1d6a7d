// Package oracle is the reference the engine tests compare against: pattern
// matching and GFD validation written as the definitions read, sharing no
// code with internal/match or internal/core. It touches a graph only through
// NumNodes, Label, graph.HasEdge and Attr (plus Alive, where the representation
// has tombstones) — no label index, adjacency rows, signatures, intersection
// kernels or plans — so a bug in any of those cannot cancel out on both
// sides of a comparison. Cost is O(|V|^k) per pattern: small inputs only.
// Imported by tests only.
package oracle

import (
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Matches returns every homomorphism of p into g (Section III: labels match
// under the wildcard, every pattern edge maps onto a data edge, variables
// may share a node), lexicographic in variable-index order. A match is
// indexed by pattern variable, like match.Assignment.
func Matches(p *pattern.Pattern, g graph.Reader) [][]graph.NodeID {
	// A removed node keeps its ID slot and label but is not part of the graph.
	alive := func(graph.NodeID) bool { return true }
	if a, ok := g.(interface{ Alive(graph.NodeID) bool }); ok {
		alive = a.Alive
	}
	// Each variable's label-compatible nodes, found by one pass over all of
	// them, so the backtracking below does not repeat the label test.
	cands := make([][]graph.NodeID, p.NumVars())
	for v := range cands {
		for n := graph.NodeID(0); int(n) < g.NumNodes(); n++ {
			if alive(n) && pattern.LabelMatches(p.Label(pattern.Var(v)), g.Label(n)) {
				cands[v] = append(cands[v], n)
			}
		}
	}
	h := make([]graph.NodeID, p.NumVars())
	var out [][]graph.NodeID
	var extend func(v pattern.Var)
	extend = func(v pattern.Var) {
		if int(v) == len(h) {
			out = append(out, append([]graph.NodeID(nil), h...))
			return
		}
		for _, n := range cands[v] {
			h[v] = n
			if edgesHold(p, g, h, v) {
				extend(v + 1)
			}
		}
	}
	extend(0)
	return out
}

// edgesHold checks every pattern edge at v whose other endpoint is v itself
// or a lower-indexed (already mapped) variable.
func edgesHold(p *pattern.Pattern, g graph.Reader, h []graph.NodeID, v pattern.Var) bool {
	for _, e := range p.Out(v) {
		if e.To <= v && !graph.HasEdge(g, h[v], h[e.To], e.Label) {
			return false
		}
	}
	for _, e := range p.In(v) {
		if e.From < v && !graph.HasEdge(g, h[e.From], h[v], e.Label) {
			return false
		}
	}
	return true
}

// Violation is a match of GFD's pattern at which X holds and Y does not.
type Violation struct {
	GFD   *gfd.GFD
	Match []graph.NodeID
}

// Violations returns every violation of Σ in g under the literal semantics
// of Section III, in Σ order and, within a GFD, in Matches order.
func Violations(g graph.Reader, set *gfd.Set) []Violation {
	var out []Violation
	for _, phi := range set.GFDs {
		for _, h := range Matches(phi.Pattern, g) {
			if holds(g, h, phi.X) && !holds(g, h, phi.Y) {
				out = append(out, Violation{GFD: phi, Match: h})
			}
		}
	}
	return out
}

// holds evaluates a literal set at a match: x.A = c holds iff attribute A
// exists at h(x) with value c; x.A = y.B iff both exist and are equal.
func holds(g graph.Reader, h []graph.NodeID, ls []gfd.Literal) bool {
	for _, l := range ls {
		v, ok := g.Attr(h[l.X], l.A)
		if !ok {
			return false
		}
		want := l.Const
		if l.Kind == gfd.VarLiteral {
			if want, ok = g.Attr(h[l.Y], l.B); !ok {
				return false
			}
		}
		if v != want {
			return false
		}
	}
	return true
}
