// Package canon builds the canonical graphs of the small model properties:
// G_Σ for satisfiability (Section IV-B) and G^X_Q for implication
// (Section VI-A).
package canon

import (
	"slices"

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
	// node = Offset[i] + NodeID(var). One more entry, Offset[len(Σ)], is the
	// node count, so copy i spans Offset[i] to Offset[i+1].
	Offset []graph.NodeID
	Set    *gfd.Set
	// hosts indexes the copies' edges for Scope; label holds each node's
	// label in hosts' interning.
	hosts hostIndex
	label []uint32
}

// BuildSigma constructs G_Σ and the index Scope reads. The graph is built
// once and only read after: the engines search its Frozen snapshot.
func BuildSigma(set *gfd.Set) *Sigma {
	s := &Sigma{Graph: graph.New(), Offset: make([]graph.NodeID, set.Len()+1), Set: set}
	s.hosts.init()
	for i, phi := range set.GFDs {
		p := phi.Pattern
		s.Offset[i] = p.AppendTo(s.Graph)
		for v := 0; v < p.NumVars(); v++ {
			s.label = append(s.label, s.hosts.intern(p.Label(pattern.Var(v))))
		}
		s.hosts.add(int32(i), p)
	}
	s.Offset[set.Len()] = graph.NodeID(len(s.label))
	s.hosts.finish(set.Len())
	return s
}

// Scope returns, per variable of p, the G_Σ nodes the variable can match:
// the label-compatible nodes of the copies that can host its component, in
// ascending order. A match of a connected pattern lies inside one copy, and
// a copy hosts a component when it holds a compatible edge for every edge of
// it; so a search rooted at scope[v] (match.Options.RootCandidates), or a
// simulation started from it, finds what one started from the whole label
// index finds. A variable whose component has no edge gets nil: its scope is
// the label index. Given vars, only those variables get a list. ok is false
// when some component has no host, so p has no match in G_Σ. Variables with
// one label may share one list, so the lists are read-only. Scope only reads
// s and may be called concurrently.
func (s *Sigma) Scope(p *pattern.Pattern, vars ...pattern.Var) (scope [][]graph.NodeID, ok bool) {
	comps := p.Components()
	hosts := make([][]int32, len(comps))
	size := 0 // the host nodes: what a wildcard variable gets
	for i, comp := range comps {
		var edged bool
		if hosts[i], edged = s.hosts.hosts(p, comp); edged && len(hosts[i]) == 0 {
			return nil, false
		}
		for _, c := range hosts[i] {
			size += int(s.Offset[c+1] - s.Offset[c])
		}
	}
	scope = make([][]graph.NodeID, p.NumVars())
	// The lists are appended one after another to nodes. A list already
	// handed out keeps the array it was cut from when nodes grows.
	nodes := make([]graph.NodeID, 0, size)
	for i, comp := range comps {
		if hosts[i] == nil {
			continue
		}
		for j, v := range comp {
			if len(vars) > 0 && !slices.Contains(vars, v) {
				continue
			}
			// Every variable here has an edge, so a concrete label is
			// interned; the wildcard is 0 and matches every node.
			want := s.hosts.labels[p.Label(v)]
			if k := slices.IndexFunc(comp[:j], func(u pattern.Var) bool {
				return scope[u] != nil && s.hosts.labels[p.Label(u)] == want
			}); k >= 0 {
				scope[v] = scope[comp[k]]
				continue
			}
			start := len(nodes)
			for _, c := range hosts[i] {
				first := s.Offset[c]
				for k, l := range s.label[first:s.Offset[c+1]] {
					if want == 0 || l == want {
						nodes = append(nodes, first+graph.NodeID(k))
					}
				}
			}
			scope[v] = nodes[start:len(nodes):len(nodes)]
		}
	}
	return scope, true
}

// Hosts returns the copies a match of component comp of p can lie in,
// ascending: those holding a compatible edge for every edge of comp, or, for
// a component without edges (one variable), those holding a node of a
// compatible label. Hosts only reads s and may be called concurrently.
func (s *Sigma) Hosts(p *pattern.Pattern, comp []pattern.Var) []int32 {
	if hosts, edged := s.hosts.hosts(p, comp); edged {
		return hosts
	}
	want := uint32(0) // the wildcard: every node
	if l := p.Label(comp[0]); l != graph.Wildcard {
		var ok bool
		if want, ok = s.hosts.labels[l]; !ok {
			return nil
		}
	}
	var hosts []int32
	for c := range s.Offset[:len(s.Offset)-1] {
		labels := s.label[s.Offset[c]:s.Offset[c+1]]
		if want == 0 || slices.Contains(labels, want) {
			hosts = append(hosts, int32(c))
		}
	}
	return hosts
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
// to the IDs of one eq.Eq: what the enforcement loop evaluates per match, so
// that no name is hashed or compared there. C is eq.NoConst for a variable literal x.A = y.B; Y and B are unused
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
// appended into a graph.Builder and frozen (node IDs equal variable
// indexes), plus the
// equivalence relation Eq_X encoding F^X_A — the attribute constraints of X
// closed under transitivity of equality.
type Phi struct {
	Graph *graph.Frozen
	// EqX encodes F^X_A. It may already be conflicted when X is inconsistent
	// (e.g. x.A=1 ∧ x.A=2), in which case Σ |= φ holds trivially.
	EqX *eq.Eq
	GFD *gfd.GFD
	// y is φ's consequent resolved against EqX, for YDeduced.
	y []Lit
	// hosts indexes Q's edges for Admits.
	hosts hostIndex
}

// BuildPhi constructs G^X_Q with Eq_X.
func BuildPhi(phi *gfd.GFD) *Phi {
	b := graph.NewBuilder(len(phi.Pattern.Edges()))
	phi.Pattern.AppendTo(b)
	g := b.Freeze()
	e := eq.New()
	e.StopLogging() // the chase extends Eq_X itself; nobody reads a delta
	for _, l := range ResolveLits(e, phi.X) {
		t := e.HandleOf(graph.NodeID(l.X), l.A)
		if l.IsConst() {
			e.AssignAt(t, l.C, nil)
		} else {
			e.MergeAt(t, e.HandleOf(graph.NodeID(l.Y), l.B), nil)
		}
	}
	cp := &Phi{Graph: g, EqX: e, GFD: phi, y: ResolveLits(e, phi.Y)}
	cp.hosts.init()
	cp.hosts.add(0, phi.Pattern)
	cp.hosts.finish(1)
	return cp
}

// YDeduced reports whether Y ⊆ Eq_H: every consequent literal of φ is
// deducible from the given relation (Corollary 4's success condition). e
// must be EqX, extended or not, whose IDs the resolved consequent speaks.
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
// edge a compatible (from-label, edge-label, to-label) edge of Q — Q hosts
// psi in the sense of Sigma.Scope, with Q as the one copy. Q's labels are
// read as the data labels BuildPhi made of them, so a '_' of Q is matched by
// a pattern '_' only. A pattern that passes may still have no match (the
// condition looks at each edge alone), which the search then finds out. It
// reads only psi's variables and edges, so psi may be unfrozen.
func (p *Phi) Admits(psi *pattern.Pattern) bool {
	q := p.GFD.Pattern
	for v := 0; v < psi.NumVars(); v++ {
		label, in := psi.Label(pattern.Var(v)), false
		for u := 0; u < q.NumVars() && !in; u++ {
			in = pattern.LabelMatches(label, q.Label(pattern.Var(u)))
		}
		if !in {
			return false
		}
	}
	for _, e := range psi.Edges() {
		if p.hosts.lookup(psi, e) < 0 {
			return false
		}
	}
	return true
}
