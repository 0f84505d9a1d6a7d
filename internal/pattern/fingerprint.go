// Positional structural fingerprints: the foundation of shared multi-GFD
// evaluation. A rule set Σ is heavily redundant in practice — many GFDs
// carry one pattern (same Q, different X → Y) — and the sharing layers
// (gfd.Set.Groups, the fingerprint-keyed PlanCache) need a cheap structural
// identity that does not depend on pointer identity or variable names.
//
// Fingerprint hashes what StructuralEqual compares — the label at each
// variable index and the multiset of edges between indexes — so
// structurally equal patterns always collide. It does not canonicalize the
// variable order: a renumbered isomorphic copy is another structure to
// every consumer, since a match of one is not index for index a match of
// the other. The hash is only a bucket key: every consumer confirms
// candidates with StructuralEqual, so a 64-bit collision can never merge
// two patterns that differ.
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

// Fingerprint returns the positional structural hash of the pattern: the
// variable count, the label at each index and the multiset of (from, to,
// label) edges — exactly what StructuralEqual compares, so structurally
// equal patterns always collide. Variable names and edge order do not enter
// it (the edges go in as an order-independent sum of mixed per-edge
// hashes); a renumbered isomorphic copy is not StructuralEqual and in
// general hashes apart. Fingerprint reads only the declared variables and
// edges: it allocates nothing, caches nothing and does not freeze p.
func (p *Pattern) Fingerprint() uint64 {
	h := fnvUint(fnvOffset64, uint64(len(p.names)))
	for _, l := range p.labels {
		h = fnvString(h, l)
	}
	var edges uint64
	for _, e := range p.edges {
		eh := fnvUint(fnvOffset64, uint64(e.From))
		eh = fnvUint(eh, uint64(e.To))
		edges += mix64(fnvString(eh, e.Label))
	}
	h = fnvUint(h, uint64(len(p.edges)))
	return fnvUint(h, edges)
}

// mix64 is the splitmix64 finalizer: it spreads every input bit over the
// word, so summing per-edge hashes does not let low-bit patterns cancel.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
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
