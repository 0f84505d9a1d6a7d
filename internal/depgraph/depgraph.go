// Package depgraph builds the dependency structures used to order GFD
// enforcement (Section V-B): attribute-level interaction between GFDs
// (the antecedent of one may depend on the consequent of another) and the
// dependency graph over pivoted work units, from which a topological
// priority is deduced.
package depgraph

import (
	"container/heap"
	"sort"

	"repro/internal/gfd"
	"repro/internal/graph"
)

// attrSig is an attribute occurrence: attribute A on a variable labeled
// Label (possibly wildcard).
type attrSig struct {
	Label string
	Attr  string
}

// labelCompat reports whether two variable labels may denote the same data
// node: equal, or either is the wildcard.
func labelCompat(a, b string) bool {
	return a == graph.Wildcard || b == graph.Wildcard || a == b
}

// sigs extracts the attribute occurrences of a literal list.
func sigs(g *gfd.GFD, ls []gfd.Literal) []attrSig {
	var out []attrSig
	for _, l := range ls {
		out = append(out, attrSig{Label: g.Pattern.Label(l.X), Attr: l.A})
		if l.Kind == gfd.VarLiteral {
			out = append(out, attrSig{Label: g.Pattern.Label(l.Y), Attr: l.B})
		}
	}
	return out
}

// Interaction summarizes, for a set Σ, which GFDs' consequents feed which
// GFDs' antecedents.
type Interaction struct {
	set *gfd.Set
	out [][]attrSig // consequent signatures per GFD
	in  [][]attrSig // antecedent signatures per GFD
}

// NewInteraction precomputes the literal signatures of Σ.
func NewInteraction(set *gfd.Set) *Interaction {
	it := &Interaction{set: set, out: make([][]attrSig, set.Len()), in: make([][]attrSig, set.Len())}
	for i, g := range set.GFDs {
		it.out[i] = sigs(g, g.Y)
		it.in[i] = sigs(g, g.X)
	}
	return it
}

// Feeds reports whether some attribute written by Σ[i]'s consequent may be
// read by Σ[j]'s antecedent (same attribute name on label-compatible
// variables).
func (it *Interaction) Feeds(i, j int) bool {
	for _, o := range it.out[i] {
		for _, n := range it.in[j] {
			if o.Attr == n.Attr && labelCompat(o.Label, n.Label) {
				return true
			}
		}
	}
	return false
}

// OrderGFDs returns the indexes of Σ in enforcement order: GFDs with empty
// antecedents first (they seed the initial attribute batch), then a
// topological order of the interaction structure with cycles broken by SCC
// condensation; ties resolve by original index, keeping output deterministic.
//
// Instead of materializing the quadratic GFD×GFD graph, the order is
// computed on the bipartite graph GFD → written-attribute → reading-GFD
// (labels ignored — a sound coarsening: it only adds edges), which is
// O(|Σ|·l) in size. The quadratic Feeds relation remains available for the
// work-unit dependency graph, which is capped separately.
func OrderGFDs(set *gfd.Set) []int {
	n := set.Len()
	// Attribute node ids start at n.
	attrID := make(map[string]int)
	id := func(a string) int {
		if v, ok := attrID[a]; ok {
			return v
		}
		v := n + len(attrID)
		attrID[a] = v
		return v
	}
	type edge struct{ from, to int }
	var edges []edge
	for i, g := range set.GFDs {
		for _, s := range sigs(g, g.Y) {
			edges = append(edges, edge{i, id(s.Attr)})
		}
		for _, s := range sigs(g, g.X) {
			edges = append(edges, edge{id(s.Attr), i})
		}
	}
	total := n + len(attrID)
	adj := make([][]int, total)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	full := topoSCC(total, adj)
	order := make([]int, 0, n)
	for _, v := range full {
		if v < n {
			order = append(order, v)
		}
	}
	// Stable-partition: empty-antecedent GFDs to the front, preserving the
	// topological order within each part.
	var front, back []int
	for _, i := range order {
		if len(set.GFDs[i].X) == 0 {
			front = append(front, i)
		} else {
			back = append(back, i)
		}
	}
	return append(front, back...)
}

// topoSCC returns a topological order of the condensation of the directed
// graph (Tarjan SCC + Kahn over components), with deterministic tie-breaks.
func topoSCC(n int, adj [][]int) []int {
	comp := tarjan(n, adj)
	nc := 0
	for _, c := range comp {
		if c+1 > nc {
			nc = c + 1
		}
	}
	// Component DAG.
	cadj := make([]map[int]bool, nc)
	indeg := make([]int, nc)
	for i := range cadj {
		cadj[i] = make(map[int]bool)
	}
	for u := 0; u < n; u++ {
		for _, v := range adj[u] {
			if comp[u] != comp[v] && !cadj[comp[u]][comp[v]] {
				cadj[comp[u]][comp[v]] = true
				indeg[comp[v]]++
			}
		}
	}
	members := make([][]int, nc)
	for i := 0; i < n; i++ {
		members[comp[i]] = append(members[comp[i]], i)
	}
	for _, m := range members {
		sort.Ints(m)
	}
	// Kahn with a min-heap keyed by each component's smallest member, for a
	// deterministic order without re-sorting per pop.
	h := &compHeap{members: members}
	for c := 0; c < nc; c++ {
		if indeg[c] == 0 {
			heap.Push(h, c)
		}
	}
	var order []int
	for h.Len() > 0 {
		c := heap.Pop(h).(int)
		order = append(order, members[c]...)
		for d := range cadj[c] {
			indeg[d]--
			if indeg[d] == 0 {
				heap.Push(h, d)
			}
		}
	}
	return order
}

// compHeap orders component ids by their smallest member index.
type compHeap struct {
	items   []int
	members [][]int
}

func (h *compHeap) Len() int           { return len(h.items) }
func (h *compHeap) Less(i, j int) bool { return h.members[h.items[i]][0] < h.members[h.items[j]][0] }
func (h *compHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *compHeap) Push(x interface{}) { h.items = append(h.items, x.(int)) }
func (h *compHeap) Pop() interface{} {
	n := len(h.items)
	v := h.items[n-1]
	h.items = h.items[:n-1]
	return v
}

// tarjan assigns SCC component ids (iterative Tarjan; ids are in reverse
// topological completion order, unused beyond identity here).
func tarjan(n int, adj [][]int) []int {
	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onstack := make([]bool, n)
	comp := make([]int, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = -1
	}
	var stack []int
	next := 0
	ncomp := 0

	type frame struct {
		v, ei int
	}
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		var call []frame
		call = append(call, frame{root, 0})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onstack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onstack[w] = true
					call = append(call, frame{w, 0})
				} else if onstack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			call = call[:len(call)-1]
			if len(call) > 0 {
				p := call[len(call)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onstack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp
}

// Unit identifies a pivoted work unit (Q_φ[z], φ): GFD index within Σ and
// pivot node z in the canonical graph.
type Unit struct {
	GFD   int
	Pivot graph.NodeID
}

// UnitDeps computes the work-unit dependency graph of Section V-B: an edge
// (w1, w2) when w1's GFD consequent feeds w2's GFD antecedent AND the two
// pivots are within d_Q1 hops of each other in the canonical graph g, where
// d_Q1 is the radius of w1's pattern at its pivot variable. radii[i] is that
// radius for Σ.GFDs[i].
//
// The proximity condition makes the graph sparse in canonical graphs (a
// disjoint union of small patterns bounds every neighborhood by one
// component), so candidate pairs are enumerated through a pivot index
// rather than all unit pairs, and the Feeds relation is memoized per GFD
// pair.
func UnitDeps(units []Unit, it *Interaction, g graph.Reader, radii []int) [][]int {
	adj := make([][]int, len(units))
	byPivot := make(map[graph.NodeID][]int)
	for i, u := range units {
		byPivot[u.Pivot] = append(byPivot[u.Pivot], i)
	}
	n := it.set.Len()
	memo := make([]int8, n*n) // 0 unknown, 1 feeds, -1 does not
	feeds := func(a, b int) bool {
		m := memo[a*n+b]
		if m != 0 {
			return m == 1
		}
		f := it.Feeds(a, b)
		if f {
			memo[a*n+b] = 1
		} else {
			memo[a*n+b] = -1
		}
		return f
	}
	for i, u := range units {
		hood := graph.Neighborhood(g, u.Pivot, radii[u.GFD])
		for z := range hood {
			for _, j := range byPivot[z] {
				if j != i && feeds(u.GFD, units[j].GFD) {
					adj[i] = append(adj[i], j)
				}
			}
		}
	}
	return adj
}

// UnitPriorities returns, for each unit, a priority rank (lower = earlier)
// combining: (1) units whose GFD has an empty antecedent — or, when
// highFirst is non-nil, units it marks — come first; (2) topological order
// of the unit dependency graph.
func UnitPriorities(units []Unit, adj [][]int, set *gfd.Set, highFirst func(Unit) bool) []int {
	order := topoSCC(len(units), adj)
	rank := make([]int, len(units))
	pos := 0
	// First pass: high-priority units in topo order.
	isHigh := func(u Unit) bool {
		if highFirst != nil {
			return highFirst(u)
		}
		return len(set.GFDs[u.GFD].X) == 0
	}
	for _, i := range order {
		if isHigh(units[i]) {
			rank[i] = pos
			pos++
		}
	}
	for _, i := range order {
		if !isHigh(units[i]) {
			rank[i] = pos
			pos++
		}
	}
	return rank
}
