// Package depgraph orders GFD enforcement (Section V-B): the antecedent of
// one GFD may depend on the consequent of another, and a topological order
// of that attribute-level interaction lets a single pass fire most of Σ.
package depgraph

import (
	"cmp"
	"container/heap"
	"slices"

	"repro/internal/gfd"
)

// OrderGFDs returns the indexes of Σ in enforcement order: GFDs with empty
// antecedents first (they seed the initial attribute batch), then a
// topological order of the interaction structure with cycles broken by SCC
// condensation; ties resolve by original index, keeping output deterministic.
//
// Instead of materializing the quadratic GFD×GFD graph, the order is
// computed on the bipartite graph GFD → written-attribute → reading-GFD
// (variable labels ignored — a sound coarsening: it only adds edges), which
// is O(|Σ|·l) in size. A variable literal writes or reads both of its
// attributes.
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
	var edges []edge
	for i, g := range set.GFDs {
		for _, l := range g.Y {
			edges = append(edges, edge{i, id(l.A)})
			if l.Kind == gfd.VarLiteral {
				edges = append(edges, edge{i, id(l.B)})
			}
		}
		for _, l := range g.X {
			edges = append(edges, edge{id(l.A), i})
			if l.Kind == gfd.VarLiteral {
				edges = append(edges, edge{id(l.B), i})
			}
		}
	}
	full := topoSCC(n+len(attrID), adjacency(n+len(attrID), edges))
	// Stable-partition the GFD nodes: empty antecedents to the front,
	// keeping the topological order within each part.
	order := make([]int, 0, n)
	for _, v := range full {
		if v < n && len(set.GFDs[v].X) == 0 {
			order = append(order, v)
		}
	}
	for _, v := range full {
		if v < n && len(set.GFDs[v].X) > 0 {
			order = append(order, v)
		}
	}
	return order
}

type edge struct{ from, to int }

// adjacency groups edges by source: adj[u] lists u's targets in edge order,
// every row a slice of one shared array.
func adjacency(n int, edges []edge) [][]int {
	start := make([]int, n+1)
	for _, e := range edges {
		start[e.from+1]++
	}
	for u := range n {
		start[u+1] += start[u]
	}
	flat := make([]int, len(edges))
	adj := make([][]int, n)
	for u := range adj {
		adj[u] = flat[start[u]:start[u]:start[u+1]]
	}
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	return adj
}

// topoSCC returns a topological order of the condensation of the directed
// graph (Tarjan SCC + Kahn over components), with deterministic tie-breaks.
func topoSCC(n int, adj [][]int) []int {
	comp := tarjan(n, adj)
	nc := 0
	for _, c := range comp {
		nc = max(nc, c+1)
	}
	// Component DAG, sorted and compacted so each edge counts once.
	var cedges []edge
	members := make([]edge, n)
	for u := range n {
		for _, v := range adj[u] {
			if comp[u] != comp[v] {
				cedges = append(cedges, edge{comp[u], comp[v]})
			}
		}
		members[u] = edge{comp[u], u}
	}
	slices.SortFunc(cedges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to))
	})
	cedges = slices.Compact(cedges)
	cadj := adjacency(nc, cedges)
	indeg := make([]int, nc)
	for _, e := range cedges {
		indeg[e.to]++
	}
	// Each component's members, ascending: nodes are filed in index order.
	byComp := adjacency(nc, members)
	// Kahn with a min-heap of each ready component's smallest member (comp
	// maps it back), for a deterministic order without re-sorting per pop.
	h := &intHeap{}
	for c := range nc {
		if indeg[c] == 0 {
			heap.Push(h, byComp[c][0])
		}
	}
	order := make([]int, 0, n)
	for h.Len() > 0 {
		c := comp[heap.Pop(h).(int)]
		order = append(order, byComp[c]...)
		for _, d := range cadj[c] {
			indeg[d]--
			if indeg[d] == 0 {
				heap.Push(h, byComp[d][0])
			}
		}
	}
	return order
}

// intHeap is a min-heap of node indexes.
type intHeap []int

func (h intHeap) Len() int           { return len(h) }
func (h intHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h intHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *intHeap) Push(x any)        { *h = append(*h, x.(int)) }
func (h *intHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
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
