// Package oracle is the reference the engine tests compare against: pattern
// matching, graph simulation and GFD validation written as the definitions read, sharing no
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
	alive := aliveIn(g)
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

// Simulation returns the greatest graph simulation of p into g, per pattern
// variable in ascending node order, or nil when some variable simulates no
// node. It is the largest relation in which every (u, n) has n alive and
// label-compatible with u and, for each pattern edge leaving (entering) u,
// an equally labelled data edge leaving (entering) n whose other end
// simulates the edge's other variable — computed as the definition reads:
// start from all label-compatible pairs and delete pairs that break it until
// none does. O(rounds · |E_Q| · |V|²): small inputs only.
func Simulation(p *pattern.Pattern, g graph.Reader) [][]graph.NodeID {
	alive := aliveIn(g)
	n := g.NumNodes()
	in := make([][]bool, p.NumVars())
	for v := range in {
		in[v] = make([]bool, n)
		for x := graph.NodeID(0); int(x) < n; x++ {
			in[v][x] = alive(x) && pattern.LabelMatches(p.Label(pattern.Var(v)), g.Label(x))
		}
	}
	// witnessed reports whether some y simulating w closes the edge with x.
	witnessed := func(w pattern.Var, edge func(y graph.NodeID) bool) bool {
		for y := graph.NodeID(0); int(y) < n; y++ {
			if in[w][y] && edge(y) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, e := range p.Edges() {
			for x := graph.NodeID(0); int(x) < n; x++ {
				if in[e.From][x] && !witnessed(e.To, func(y graph.NodeID) bool { return graph.HasEdge(g, x, y, e.Label) }) {
					in[e.From][x], changed = false, true
				}
				if in[e.To][x] && !witnessed(e.From, func(y graph.NodeID) bool { return graph.HasEdge(g, y, x, e.Label) }) {
					in[e.To][x], changed = false, true
				}
			}
		}
	}
	out := make([][]graph.NodeID, len(in))
	for v := range in {
		for x := graph.NodeID(0); int(x) < n; x++ {
			if in[v][x] {
				out[v] = append(out[v], x)
			}
		}
		if len(out[v]) == 0 {
			return nil
		}
	}
	return out
}

// aliveIn returns g's liveness test: a removed node keeps its ID slot and
// label but is not part of the graph.
func aliveIn(g graph.Reader) func(graph.NodeID) bool {
	if a, ok := g.(interface{ Alive(graph.NodeID) bool }); ok {
		return a.Alive
	}
	return func(graph.NodeID) bool { return true }
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
			if Violates(g, phi, h) {
				out = append(out, Violation{GFD: phi, Match: h})
			}
		}
	}
	return out
}

// Violates reports whether φ's X holds at match h of its pattern and its Y
// does not, reading attribute strings through Attr.
func Violates(g graph.Reader, phi *gfd.GFD, h []graph.NodeID) bool {
	return holds(g, h, phi.X) && !holds(g, h, phi.Y)
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
