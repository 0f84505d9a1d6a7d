package gfd

import "repro/internal/pattern"

// Group is one bucket of Set.Groups: the GFDs of Σ whose patterns are
// structurally equal. Because equality is positional (see
// pattern.StructuralEqual), a match of the representative Pattern is —
// index for index — a match of every member's pattern, which is what lets
// the evaluation layers enumerate a group's matches once and fan out only
// the X → Y literal checks per member.
type Group struct {
	// Pattern is the representative: the first member's pattern value.
	Pattern *pattern.Pattern
	// Members indexes Set.GFDs, ascending.
	Members []int
}

// Groups buckets Σ by positional pattern structure: the fingerprint, which
// hashes exactly what pattern.StructuralEqual compares, picks the bucket,
// and StructuralEqual behind the hash confirms it, so a 64-bit collision
// can never merge two patterns that differ. A renumbered isomorphic
// pattern is another structure and opens another group. Groups are ordered by their first
// member's position in Σ and members stay in Σ order, keeping every
// grouped evaluation's output order derivable from Σ alone.
func (s *Set) Groups() []Group {
	groups := make([]Group, 0, len(s.GFDs))
	buckets := make(map[uint64][]int, len(s.GFDs)) // fingerprint → group indexes
	for i, phi := range s.GFDs {
		fp := phi.Pattern.Fingerprint()
		found := -1
		for _, gi := range buckets[fp] {
			if pattern.StructuralEqual(groups[gi].Pattern, phi.Pattern) {
				found = gi
				break
			}
		}
		if found < 0 {
			found = len(groups)
			groups = append(groups, Group{Pattern: phi.Pattern})
			buckets[fp] = append(buckets[fp], found)
		}
		groups[found].Members = append(groups[found].Members, i)
	}
	return groups
}
