// Canonical structural fingerprints: the foundation of shared multi-GFD
// evaluation. A rule set Σ is heavily redundant in practice — many GFDs
// carry one pattern (same Q, different X → Y) — and the sharing layers
// (gfd.Set.Groups, the fingerprint-keyed PlanCache) need a cheap structural
// identity that does not depend on pointer identity or variable names.
//
// Fingerprint hashes labels + topology under a canonical variable order
// derived by color refinement (1-WL), so structurally equal patterns always
// collide and most isomorphic re-numberings do too. The hash is only a
// bucket key: every consumer confirms candidates with StructuralEqual, the
// full positional check, so a 64-bit collision can never merge two patterns
// that differ.
package pattern

import "sort"

// fnv64 constants (FNV-1a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	// Terminate the string so "ab","c" and "a","bc" cannot alias.
	h ^= 0xff
	h *= fnvPrime64
	return h
}

func fnvUint(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// Fingerprint returns the canonical structural hash of the pattern: node
// labels and edge topology under a canonical variable order, independent of
// variable names and declaration order for most patterns (color refinement
// cannot split every symmetry, so some isomorphic pairs land in different
// buckets — a missed sharing opportunity, never an error). Two structurally
// equal patterns (see StructuralEqual) always have equal fingerprints. The
// value is computed once and cached; Fingerprint freezes the pattern.
func (p *Pattern) Fingerprint() uint64 {
	p.fpOnce.Do(func() { p.fp = p.computeFingerprint() })
	return p.fp
}

func (p *Pattern) computeFingerprint() uint64 {
	p.Freeze()
	n := len(p.names)
	rank := p.canonicalRank()

	h := uint64(fnvOffset64)
	h = fnvUint(h, uint64(n))
	h = fnvUint(h, uint64(len(p.edges)))
	// Labels in canonical order.
	inv := make([]Var, n)
	for v, r := range rank {
		inv[r] = Var(v)
	}
	for _, v := range inv {
		h = fnvString(h, p.labels[v])
	}
	// Edges as a sorted multiset of canonical (from, to, label) triples.
	type cEdge struct {
		from, to int
		label    string
	}
	ces := make([]cEdge, len(p.edges))
	for i, e := range p.edges {
		ces[i] = cEdge{from: rank[e.From], to: rank[e.To], label: e.Label}
	}
	sort.Slice(ces, func(i, j int) bool {
		a, b := ces[i], ces[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		return a.label < b.label
	})
	for _, e := range ces {
		h = fnvUint(h, uint64(e.from))
		h = fnvUint(h, uint64(e.to))
		h = fnvString(h, e.label)
	}
	return h
}

// canonicalRank computes a canonical position for every variable via color
// refinement: colors start as label hashes and are iteratively refined by
// the sorted multiset of (direction, edge label, neighbor color) signatures.
// The final ranking sorts by refined color with the declaration index as a
// deterministic tie-break, so identical structures rank identically while
// the tie-break keeps the result total.
func (p *Pattern) canonicalRank() []int {
	n := len(p.names)
	colors := make([]uint64, n)
	for v := 0; v < n; v++ {
		colors[v] = fnvString(fnvOffset64, p.labels[v])
	}
	next := make([]uint64, n)
	sigs := make([]uint64, 0, 8)
	// n rounds propagate information across the longest possible path.
	for round := 0; round < n; round++ {
		for v := 0; v < n; v++ {
			sigs = sigs[:0]
			for _, e := range p.out[v] {
				s := fnvUint(fnvOffset64, 1)
				s = fnvString(s, e.Label)
				s = fnvUint(s, colors[e.To])
				sigs = append(sigs, s)
			}
			for _, e := range p.in[v] {
				s := fnvUint(fnvOffset64, 2)
				s = fnvString(s, e.Label)
				s = fnvUint(s, colors[e.From])
				sigs = append(sigs, s)
			}
			sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
			h := fnvUint(fnvOffset64, colors[v])
			for _, s := range sigs {
				h = fnvUint(h, s)
			}
			next[v] = h
		}
		copy(colors, next)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		if colors[a] != colors[b] {
			return colors[a] < colors[b]
		}
		return a < b
	})
	rank := make([]int, n)
	for r, v := range idx {
		rank[v] = r
	}
	return rank
}

// StructuralEqual reports whether two patterns are positionally identical:
// same variable count, same label at every index, and the same multiset of
// (from, to, label) edges. Variable names are ignored. This is the guard
// behind every fingerprint bucket — and the property the sharing layers
// actually rely on: a match of one pattern is, index for index, a match of
// any StructuralEqual pattern, and their derived orders, radii and
// signatures coincide.
func StructuralEqual(a, b *Pattern) bool {
	if a == b {
		return true
	}
	if len(a.names) != len(b.names) || len(a.edges) != len(b.edges) {
		return false
	}
	for i := range a.labels {
		if a.labels[i] != b.labels[i] {
			return false
		}
	}
	ae := sortedEdges(a.edges)
	be := sortedEdges(b.edges)
	for i := range ae {
		if ae[i] != be[i] {
			return false
		}
	}
	return true
}

func sortedEdges(edges []Edge) []Edge {
	es := append([]Edge(nil), edges...)
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Label < b.Label
	})
	return es
}
