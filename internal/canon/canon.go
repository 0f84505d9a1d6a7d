// Package canon builds the canonical graphs of the small model properties:
// G_Σ for satisfiability (Section IV-B) and G^X_Q for implication
// (Section VI-A).
package canon

import (
	"repro/internal/eq"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Sigma is the canonical graph G_Σ of a set Σ: the disjoint union of all
// patterns in Σ (variables renamed apart by node-ID offsets), with an empty
// attribute assignment. Wildcard pattern labels are kept as the literal '_'
// label, so only wildcard pattern nodes can match them.
type Sigma struct {
	Graph *graph.Graph
	// Offset[i] maps pattern variables of Σ.GFDs[i] into Graph node IDs:
	// node = Offset[i] + NodeID(var).
	Offset []graph.NodeID
	Set    *gfd.Set
}

// BuildSigma constructs G_Σ. The graph is built once and only read after:
// the engines search its Frozen snapshot.
func BuildSigma(set *gfd.Set) *Sigma {
	g := graph.New()
	offsets := make([]graph.NodeID, set.Len())
	for i, phi := range set.GFDs {
		offsets[i] = phi.Pattern.AppendTo(g)
	}
	return &Sigma{Graph: g, Offset: offsets, Set: set}
}

// NodeOf returns the G_Σ node that pattern variable v of Σ.GFDs[i] denotes.
func (s *Sigma) NodeOf(i int, v pattern.Var) graph.NodeID {
	return s.Offset[i] + graph.NodeID(v)
}

// TermOf returns the Eq term for attribute a of variable v of Σ.GFDs[i].
func (s *Sigma) TermOf(i int, v pattern.Var, a string) eq.Term {
	return eq.Term{Node: s.NodeOf(i, v), Attr: a}
}

// Lit is a literal of a GFD with its attribute and constant names resolved
// to the IDs of one eq.Eq (and of that relation's Clones): what the
// enforcement loop evaluates per match, so that no name is hashed or compared
// there. C is eq.NoConst for a variable literal x.A = y.B; Y and B are unused
// for a constant literal x.A = c.
type Lit struct {
	X, Y pattern.Var
	A, B eq.AttrID
	C    eq.ConstID
}

// IsConst reports whether l is a constant literal x.A = c.
func (l *Lit) IsConst() bool { return l.C != eq.NoConst }

// ResolveLits resolves literals against e's name tables, interning what is
// new. It is the per-run step, the counterpart of resolving pattern labels
// with LabelIDOf once per plan.
func ResolveLits(e *eq.Eq, ls []gfd.Literal) []Lit {
	out := make([]Lit, len(ls))
	for i, l := range ls {
		out[i] = Lit{X: l.X, A: e.AttrIDOf(l.A), C: eq.NoConst}
		if l.Kind == gfd.ConstLiteral {
			out[i].C = e.ConstIDOf(l.Const)
		} else {
			out[i].Y, out[i].B = l.Y, e.AttrIDOf(l.B)
		}
	}
	return out
}

// Phi is the canonical graph G^X_Q of a GFD φ = Q[x̄](X → Y): the pattern Q
// materialized as a data graph (node IDs equal variable indexes), plus the
// equivalence relation Eq_X encoding F^X_A — the attribute constraints of X
// closed under transitivity of equality.
type Phi struct {
	Graph *graph.Graph
	// EqX encodes F^X_A. It may already be conflicted when X is inconsistent
	// (e.g. x.A=1 ∧ x.A=2), in which case Σ |= φ holds trivially.
	EqX *eq.Eq
	GFD *gfd.GFD
	// y is φ's consequent resolved against EqX, for YDeduced.
	y []Lit
}

// BuildPhi constructs G^X_Q with Eq_X.
func BuildPhi(phi *gfd.GFD) *Phi {
	g := phi.Pattern.AsGraph()
	e := eq.New()
	for _, l := range ResolveLits(e, phi.X) {
		t := e.HandleOf(graph.NodeID(l.X), l.A)
		if l.IsConst() {
			e.AssignAt(t, l.C, nil)
		} else {
			e.MergeAt(t, e.HandleOf(graph.NodeID(l.Y), l.B), nil)
		}
	}
	// Drain the construction log: Eq_X is the starting point replicated to
	// every worker, not a delta to broadcast.
	e.TakeDelta()
	return &Phi{Graph: g, EqX: e, GFD: phi, y: ResolveLits(e, phi.Y)}
}

// YDeduced reports whether Y ⊆ Eq_H: every consequent literal of φ is
// deducible from the given relation (Corollary 4's success condition). e
// must be EqX or a Clone of it, whose IDs the resolved consequent speaks.
func (p *Phi) YDeduced(e *eq.Eq) bool {
	for i := range p.y {
		l := &p.y[i]
		t := e.Lookup(graph.NodeID(l.X), l.A)
		if t == eq.NoHandle {
			return false
		}
		if l.IsConst() {
			if e.ConstAt(t) != l.C {
				return false
			}
			continue
		}
		u := e.Lookup(graph.NodeID(l.Y), l.B)
		if u == eq.NoHandle {
			return false
		}
		if e.SameAt(t, u) {
			continue
		}
		// Classes forced to the same constant are equal in every
		// population even without a merge.
		if c := e.ConstAt(t); c == eq.NoConst || c != e.ConstAt(u) {
			return false
		}
	}
	return true
}

// Applicable returns Σ′: the GFDs of set, in set order, whose pattern p
// Admits. A GFD outside Σ′ has no match to enforce, so the chase of Σ′ on
// G^X_Q is the chase of Σ.
func (p *Phi) Applicable(set *gfd.Set) *gfd.Set {
	sub := gfd.NewSet()
	for _, psi := range set.GFDs {
		if p.Admits(psi.Pattern) {
			sub.Add(psi)
		}
	}
	return sub
}

// Admits reports whether psi passes a necessary condition for having a
// match in G^X_Q: every variable has a label-compatible node of Q and every
// edge a compatible (from-label, edge-label, to-label) edge of Q. Q's labels
// are read as the data labels BuildPhi made of them, so a '_' of Q is matched
// by a pattern '_' only. A pattern that passes may still have no match (the
// condition looks at each edge alone), which the search then finds out. It
// reads only psi's variables and edges, so psi may be unfrozen.
func (p *Phi) Admits(psi *pattern.Pattern) bool {
	q := p.GFD.Pattern
	nodeIn := func(label string) bool {
		for v := 0; v < q.NumVars(); v++ {
			if pattern.LabelMatches(label, q.Label(pattern.Var(v))) {
				return true
			}
		}
		return false
	}
	edgeIn := func(e pattern.Edge) bool {
		for _, d := range q.Edges() {
			if pattern.LabelMatches(e.Label, d.Label) &&
				pattern.LabelMatches(psi.Label(e.From), q.Label(d.From)) &&
				pattern.LabelMatches(psi.Label(e.To), q.Label(d.To)) {
				return true
			}
		}
		return false
	}
	for v := 0; v < psi.NumVars(); v++ {
		if !nodeIn(psi.Label(pattern.Var(v))) {
			return false
		}
	}
	for _, e := range psi.Edges() {
		if !edgeIn(e) {
			return false
		}
	}
	return true
}
