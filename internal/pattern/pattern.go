// Package pattern implements graph patterns Q[x̄] (Section II of the paper):
// small labeled graphs whose nodes are variables, with wildcard labels '_'
// permitted on nodes and edges. Patterns are matched into data graphs by
// homomorphism (label-preserving, with wildcard matching anything).
package pattern

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Var identifies a pattern variable (a node of Q). Vars are dense indexes in
// declaration order, so they double as slice offsets in match vectors h(x̄).
type Var int

// InvalidVar is returned by lookups that find no variable.
const InvalidVar Var = -1

// Edge is a directed labeled pattern edge between two variables.
type Edge struct {
	From  Var
	To    Var
	Label string // may be graph.Wildcard
}

// Pattern is a graph pattern Q[x̄]. Construct with New; patterns are
// immutable after Freeze (called implicitly by the functions that need
// derived data).
type Pattern struct {
	names  []string // variable names, e.g. "x", "y"
	labels []string // node labels, graph.Wildcard allowed
	edges  []Edge

	frozen     bool
	out        [][]Edge
	in         [][]Edge
	components [][]Var           // connected components (undirected), each sorted
	sigs       []graph.Signature // per-var adjacency requirement for pruning
}

// New returns an empty pattern.
func New() *Pattern { return &Pattern{} }

// AddVar declares a pattern variable with the given name and node label and
// returns it. Names must be unique within the pattern.
func (p *Pattern) AddVar(name, label string) Var {
	if p.frozen {
		panic("pattern: AddVar after freeze")
	}
	if p.VarByName(name) != InvalidVar {
		panic(fmt.Sprintf("pattern: duplicate variable %q", name))
	}
	v := Var(len(p.names))
	p.names = append(p.names, name)
	p.labels = append(p.labels, label)
	return v
}

// AddEdge adds a directed pattern edge.
func (p *Pattern) AddEdge(from, to Var, label string) {
	if p.frozen {
		panic("pattern: AddEdge after freeze")
	}
	p.edges = append(p.edges, Edge{From: from, To: to, Label: label})
}

// Reset empties an unfrozen pattern for reuse as scratch: its variables,
// edges and names go, their storage stays.
func (p *Pattern) Reset() {
	if p.frozen {
		panic("pattern: Reset after freeze")
	}
	p.names, p.labels, p.edges = p.names[:0], p.labels[:0], p.edges[:0]
}

// Clone returns an unfrozen copy of p's variables and edges, each slice at
// exact size.
func (p *Pattern) Clone() *Pattern {
	return &Pattern{
		names:  slices.Clone(p.names),
		labels: slices.Clone(p.labels),
		edges:  slices.Clone(p.edges),
	}
}

// VarByName returns the variable with the given name, or InvalidVar. It
// scans the names: a pattern has a handful of variables.
func (p *Pattern) VarByName(name string) Var {
	for i, n := range p.names {
		if n == name {
			return Var(i)
		}
	}
	return InvalidVar
}

// Name returns the declared name of v.
func (p *Pattern) Name(v Var) string { return p.names[v] }

// Label returns the node label of v (possibly wildcard).
func (p *Pattern) Label(v Var) string { return p.labels[v] }

// NumVars returns |x̄|.
func (p *Pattern) NumVars() int { return len(p.names) }

// Edges returns the pattern edges. Callers must not mutate the slice.
func (p *Pattern) Edges() []Edge { return p.edges }

// Size returns |Q| = #vars + #edges.
func (p *Pattern) Size() int { return len(p.names) + len(p.edges) }

// Freeze computes the derived adjacency, component and signature data. It is
// idempotent and called implicitly by accessors that need it.
func (p *Pattern) Freeze() {
	if p.frozen {
		return
	}
	n := len(p.names)
	p.out = make([][]Edge, n)
	p.in = make([][]Edge, n)
	for _, e := range p.edges {
		p.out[e.From] = append(p.out[e.From], e)
		p.in[e.To] = append(p.in[e.To], e)
	}
	p.computeComponents()
	p.computeSignatures()
	p.frozen = true
}

// Out returns edges leaving v.
func (p *Pattern) Out(v Var) []Edge { p.Freeze(); return p.out[v] }

// In returns edges entering v.
func (p *Pattern) In(v Var) []Edge { p.Freeze(); return p.in[v] }

// Components returns the connected components of Q (edges taken as
// undirected), each a sorted list of variables. A pattern with no variables
// has no components.
func (p *Pattern) Components() [][]Var { p.Freeze(); return p.components }

// Signature returns the adjacency requirement a data node must cover to
// match v: the distinct out/in edge labels of v's pattern edges (wildcard
// edges demand an edge of any label). The signatures are precomputed at
// Freeze, so probing one allocates nothing; candidate filters apply them via
// Reader.CoversIDs. The requirement is sound for homomorphisms: distinct labels
// cannot collapse onto one data edge, so a node missing a label matches
// nothing, while multiplicities are deliberately ignored (two same-labeled
// pattern edges may map to a single data edge when their endpoints unify).
func (p *Pattern) Signature(v Var) graph.Signature { p.Freeze(); return p.sigs[v] }

// LabelMatches reports whether a pattern label matches a data label under
// wildcard semantics: '_' in the pattern matches anything; otherwise the
// labels must be equal. (A '_' data label is matched only by '_'.)
func LabelMatches(patternLabel, dataLabel string) bool {
	return patternLabel == graph.Wildcard || patternLabel == dataLabel
}

// Pivot selects a pivot variable for each connected component of Q,
// preferring selective labels (fewest candidate nodes in g, wildcard = all).
// Ties break toward higher degree, then lower variable index, keeping the
// choice deterministic.
func (p *Pattern) Pivot(g graph.Reader) []Var {
	p.Freeze()
	pivots := make([]Var, 0, len(p.components))
	for _, comp := range p.components {
		best := comp[0]
		bestFreq := g.LabelFrequency(p.labels[best])
		bestDeg := len(p.out[best]) + len(p.in[best])
		for _, v := range comp[1:] {
			f := g.LabelFrequency(p.labels[v])
			d := len(p.out[v]) + len(p.in[v])
			if f < bestFreq || f == bestFreq && d > bestDeg {
				best, bestFreq, bestDeg = v, f, d
			}
		}
		pivots = append(pivots, best)
	}
	return pivots
}

// AppendTo writes the pattern into g as data: one node per variable, labeled
// with the pattern label (wildcards kept as the literal '_' label), and one
// edge per pattern edge. It returns the offset that maps variables to the
// new nodes (node = offset + NodeID(var)); appending one pattern after
// another is the disjoint union canonical graphs are built from (Sections
// IV-B, VI-A).
func (p *Pattern) AppendTo(g graph.Sink) graph.NodeID {
	offset := graph.NodeID(g.NumNodes())
	for _, l := range p.labels {
		g.AddNode(l)
	}
	for _, e := range p.edges {
		g.AddEdge(offset+graph.NodeID(e.From), offset+graph.NodeID(e.To), e.Label)
	}
	return offset
}

// PivotOrder returns the full variable ordering for a search pivoted at
// pv: pv's component first (starting at pv), then each remaining component
// in component order, each from its smallest variable. Within a component
// the order respects connectivity: each subsequent variable is adjacent to
// an earlier one when possible (so candidate sets stay constrained). This
// is the plan-extraction companion of Pivot — the parallel engines' work
// units and compiled match plans both order their searches with it.
func (p *Pattern) PivotOrder(pv Var) []Var {
	p.Freeze()
	placed := make([]bool, len(p.names))
	order := p.appendMatchOrder(make([]Var, 0, len(p.names)), placed, p.componentOf(pv), pv)
	for _, comp := range p.components {
		if !placed[comp[0]] {
			order = p.appendMatchOrder(order, placed, comp, comp[0])
		}
	}
	return order
}

// appendMatchOrder appends comp's variables to order from start and marks
// each in placed. Edges stay inside a component, so marks left by other
// components never change a score, and one placed slice serves every
// component of a pattern.
func (p *Pattern) appendMatchOrder(order []Var, placed []bool, comp []Var, start Var) []Var {
	order = append(order, start)
	placed[start] = true
	for range len(comp) - 1 {
		// Pick the unplaced in-component variable with the most placed
		// neighbors (most constrained), ties toward lower index.
		best, bestScore := InvalidVar, -1
		for _, v := range comp {
			if placed[v] {
				continue
			}
			score := 0
			for _, e := range p.out[v] {
				if placed[e.To] {
					score++
				}
			}
			for _, e := range p.in[v] {
				if placed[e.From] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		order = append(order, best)
		placed[best] = true
	}
	return order
}

func (p *Pattern) componentOf(v Var) []Var {
	for _, comp := range p.components {
		for _, u := range comp {
			if u == v {
				return comp
			}
		}
	}
	return nil
}

// computeComponents groups the variables by union-find over the edges. The
// components stand in the order of their union-find roots — not of their
// smallest members — because Pivot, PivotOrder and the matcher walk them in
// this order, so it fixes the order matches are found in.
func (p *Pattern) computeComponents() {
	n := len(p.names)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range p.edges {
		parent[find(int(e.From))] = find(int(e.To))
	}
	index := make([]int, n) // root → its place in p.components
	p.components = p.components[:0]
	for r := range parent {
		if parent[r] == r {
			index[r] = len(p.components)
			p.components = append(p.components, nil)
		}
	}
	for v := range parent {
		c := index[find(v)]
		p.components[c] = append(p.components[c], Var(v))
	}
}

func (p *Pattern) computeSignatures() {
	distinct := func(edges []Edge) []string {
		if len(edges) == 0 {
			return nil
		}
		var ls []string
		for _, e := range edges {
			dup := false
			for _, l := range ls {
				if l == e.Label {
					dup = true
					break
				}
			}
			if !dup {
				ls = append(ls, e.Label)
			}
		}
		sort.Strings(ls)
		return ls
	}
	p.sigs = make([]graph.Signature, len(p.names))
	for v := range p.sigs {
		p.sigs[v] = graph.Signature{Out: distinct(p.out[v]), In: distinct(p.in[v])}
	}
}

// String renders the pattern as "x:label" variable declarations followed by
// edges, deterministic.
func (p *Pattern) String() string {
	var b strings.Builder
	for i, name := range p.names {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", name, p.labels[i])
	}
	for _, e := range p.edges {
		fmt.Fprintf(&b, "; %s-[%s]->%s", p.names[e.From], e.Label, p.names[e.To])
	}
	return b.String()
}
