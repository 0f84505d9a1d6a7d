package canon

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// triple is an edge's (from-label, edge-label, to-label) in a hostIndex's
// label interning, 0 standing for the wildcard.
type triple [3]uint32

// hostIndex lists, per edge triple, the copies that hold an edge a pattern
// edge with that triple can map onto. Copies are patterns appended one after
// another to a canonical graph — Σ's GFDs in G_Σ, or Q alone in G^X_Q —
// numbered from 0. It is the one definition in this package of "ψ can match
// inside this copy", which Scope reads for G_Σ and Admits for G^X_Q.
//
// Wildcard semantics come from the keys. A copy edge is listed under its 8
// projections, each position kept or replaced by 0, and a pattern edge looks
// its own triple up as is. A pattern '_' is 0, so it finds every copy edge;
// a copy's '_' is the literal label '_', but it is interned as 0 too, so in
// every projection it equals what only a pattern '_' looks up.
type hostIndex struct {
	labels map[string]uint32 // the wildcard is not stored: it is 0
	rows   map[triple]int32
	// lists[r] is row r's copies, ascending. After finish, a row long
	// enough that a bitset over all copies takes no more room than the list
	// also has one, dense[r], for one-probe membership.
	lists [][]int32
	dense [][]uint64
}

func (x *hostIndex) init() {
	x.labels = make(map[string]uint32)
	x.rows = make(map[triple]int32)
}

// intern returns the ID of a label, assigning the next one if it is new.
func (x *hostIndex) intern(label string) uint32 {
	if label == graph.Wildcard {
		return 0
	}
	id, ok := x.labels[label]
	if !ok {
		id = uint32(len(x.labels) + 1)
		x.labels[label] = id
	}
	return id
}

// add lists copy c, which must not be below any copy added before, under
// every projection of every edge of p.
func (x *hostIndex) add(c int32, p *pattern.Pattern) {
	for _, e := range p.Edges() {
		t := triple{x.intern(p.Label(e.From)), x.intern(e.Label), x.intern(p.Label(e.To))}
		for mask := 0; mask < 8; mask++ {
			k := t
			for i := range k {
				if mask>>i&1 != 0 {
					k[i] = 0
				}
			}
			r, ok := x.rows[k]
			if !ok {
				r = int32(len(x.lists))
				x.rows[k] = r
				x.lists = append(x.lists, nil)
			}
			if l := x.lists[r]; len(l) == 0 || l[len(l)-1] != c {
				x.lists[r] = append(l, c)
			}
		}
	}
}

// finish gives the long rows of an index over n copies their bitsets.
func (x *hostIndex) finish(n int) {
	words := (n + 63) / 64
	x.dense = make([][]uint64, len(x.lists))
	for r, l := range x.lists {
		if len(l) >= 2*words {
			x.dense[r] = make([]uint64, words)
			for _, c := range l {
				x.dense[r][c>>6] |= 1 << (uint(c) & 63)
			}
		}
	}
}

// has reports whether row r lists copy c.
func (x *hostIndex) has(r, c int32) bool {
	if d := x.dense[r]; d != nil {
		return d[c>>6]&(1<<(uint(c)&63)) != 0
	}
	_, found := slices.BinarySearch(x.lists[r], c)
	return found
}

// lookup returns the row of the copies holding an edge that edge e of p can
// map onto, -1 when there is none. p may be unfrozen.
func (x *hostIndex) lookup(p *pattern.Pattern, e pattern.Edge) int32 {
	var t triple
	for i, l := range [3]string{p.Label(e.From), e.Label, p.Label(e.To)} {
		if l == graph.Wildcard {
			continue
		}
		id, ok := x.labels[l]
		if !ok {
			return -1
		}
		t[i] = id
	}
	if r, ok := x.rows[t]; ok {
		return r
	}
	return -1
}

// hosts returns the ascending copies that hold a compatible edge for every
// edge of component comp of p: the intersection of the edges' rows. It
// reports edged = false, and nil hosts, for a component without edges,
// which every copy with a label-compatible node could host.
func (x *hostIndex) hosts(p *pattern.Pattern, comp []pattern.Var) (hosts []int32, edged bool) {
	var buf [8]int32
	rows := buf[:0]
	for _, v := range comp {
		for _, e := range p.Out(v) {
			r := x.lookup(p, e)
			if r < 0 {
				return []int32{}, true
			}
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil, false
	}
	// Start from the shortest row, which bounds the result, and probe the
	// others, shortest first, so the result shrinks early. The "any"
	// projections may list most of Σ; those rows are dense.
	slices.SortFunc(rows, func(a, b int32) int { return len(x.lists[a]) - len(x.lists[b]) })
	hosts = slices.Clone(x.lists[rows[0]])
	for i, r := range rows[1:] {
		if r == rows[i] {
			continue // edges with one triple
		}
		kept := hosts[:0]
		for _, c := range hosts {
			if x.has(r, c) {
				kept = append(kept, c)
			}
		}
		if hosts = kept; len(hosts) == 0 {
			break
		}
	}
	return hosts, true
}
