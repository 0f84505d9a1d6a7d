// Package depgraph orders GFD enforcement (Section V-B): the antecedent of
// one GFD may depend on the consequent of another, and a topological order
// of that attribute-level interaction lets a single pass fire most of Σ.
package depgraph

import (
	"container/heap"
	"sort"

	"repro/internal/gfd"
)

// attrs lists the attribute names a literal list mentions, both sides of a
// variable literal included.
func attrs(ls []gfd.Literal) []string {
	var out []string
	for _, l := range ls {
		out = append(out, l.A)
		if l.Kind == gfd.VarLiteral {
			out = append(out, l.B)
		}
	}
	return out
}

// OrderGFDs returns the indexes of Σ in enforcement order: GFDs with empty
// antecedents first (they seed the initial attribute batch), then a
// topological order of the interaction structure with cycles broken by SCC
// condensation; ties resolve by original index, keeping output deterministic.
//
// Instead of materializing the quadratic GFD×GFD graph, the order is
// computed on the bipartite graph GFD → written-attribute → reading-GFD
// (variable labels ignored — a sound coarsening: it only adds edges), which
// is O(|Σ|·l) in size.
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
		for _, a := range attrs(g.Y) {
			edges = append(edges, edge{i, id(a)})
		}
		for _, a := range attrs(g.X) {
			edges = append(edges, edge{id(a), i})
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
