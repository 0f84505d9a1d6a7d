// Grouped enumeration with prefix-shared search. A set of pattern groups
// (one enumeration consumer per structurally distinct pattern) is evaluated
// in one pass: each group's matches are enumerated exactly once, and groups
// whose compiled match orders begin with identical frames form a family
// that shares the common prefix of the backtracking search — a small plan
// trie whose root is the shared prefix pattern and whose branches are the
// members' seeded continuations, so the search forks at the first diverging
// frame instead of restarting from the root for every group.
package match

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// PatternGroup is one enumeration consumer of EnumerateGrouped.
type PatternGroup struct {
	Pattern *pattern.Pattern
}

// GroupStats reports how much work EnumerateGrouped shared.
type GroupStats struct {
	// Families counts prefix families: sets of ≥2 groups whose match orders
	// agree on ≥2 leading frames and therefore shared a prefix search.
	Families int
	// SharedDepth sums the shared prefix lengths over all families.
	SharedDepth int
	// PrefixMatches counts matches of the shared prefix patterns — each one
	// seeded every family member's continuation instead of being re-derived
	// per member from the root.
	PrefixMatches int
}

// groupRun is one group's enumeration state within EnumerateGrouped.
type groupRun struct {
	gi     int
	order  []pattern.Var
	frames []pattern.FrameSig
}

// frameKey serializes a frame signature for family bucketing.
func frameKey(f pattern.FrameSig) string {
	var b strings.Builder
	b.WriteString(f.Label)
	for _, e := range f.Edges {
		fmt.Fprintf(&b, "|%t,%d,%s", e.Out, e.Pos, e.Label)
	}
	return b.String()
}

// EnumerateGrouped enumerates every group's full match set, calling
// emit(groupIndex, match) for each match. The match is a view of the
// enumerating search (see Search.Next): valid during the emit call,
// read-only, to be cloned by an emit that keeps it. Per group, matches
// arrive in exactly the order a standalone NewSearch with the group's
// default order would produce them (emissions of different groups may
// interleave). Returning false from emit stops the whole enumeration. The
// returned error is the context error when ctx fired mid-enumeration.
//
// Sharing: groups whose default orders open with two or more identical
// frames (same labels, same edges back into the prefix — see
// pattern.OrderFrames) form a family. The family's common prefix is
// enumerated once as its own pattern, and each prefix match seeds every
// member's continuation search. This preserves per-group enumeration order:
// the prefix search runs in ascending (lexicographic) candidate order over
// the order-projected prefix tuple, each seeded continuation enumerates its
// completions in the member's own order, and the concatenation is exactly
// the member's standalone lexicographic enumeration. It also preserves the
// match set: the prefix pattern carries every edge among the first L order
// variables, so its match set is a superset of the members' prefix
// projections (its signature pruning is weaker), and the seeded
// continuation re-validates seeds and enumerates only genuine full matches
// — spurious prefix matches simply complete to nothing.
func EnumerateGrouped(ctx context.Context, g graph.Reader, groups []PatternGroup, emit func(int, Assignment) bool) (GroupStats, error) {
	var st GroupStats

	// Bucket groups into candidate families by their first two frames.
	var keys []string
	families := make(map[string][]groupRun)
	var solo []groupRun
	for gi, pg := range groups {
		run := groupRun{gi: gi, order: DefaultOrder(pg.Pattern)}
		if len(run.order) < 2 {
			solo = append(solo, run)
			continue
		}
		run.frames = pg.Pattern.OrderFrames(run.order)
		key := frameKey(run.frames[0]) + "\x00" + frameKey(run.frames[1])
		if _, seen := families[key]; !seen {
			keys = append(keys, key)
		}
		families[key] = append(families[key], run)
	}

	for _, key := range keys {
		fam := families[key]
		if len(fam) < 2 {
			solo = append(solo, fam...)
			continue
		}
		stop, err := enumerateFamily(ctx, g, groups, fam, emit, &st)
		if stop || err != nil {
			return st, err
		}
	}
	for _, run := range solo {
		s := NewSearch(groups[run.gi].Pattern, g, Options{Ctx: ctx})
		for {
			h, ok := s.Next()
			if !ok {
				break
			}
			if !emit(run.gi, h) {
				return st, nil
			}
		}
		if err := s.Err(); err != nil {
			return st, err
		}
	}
	return st, nil
}

// enumerateFamily runs one prefix family: the shared prefix pattern is
// enumerated once, and each prefix match seeds every member's continuation.
// A member has one continuation search and one seed buffer for the family's
// lifetime, re-armed per prefix match: every prefix match assigns the same
// order positions, which is Reseed's precondition.
func enumerateFamily(ctx context.Context, g graph.Reader, groups []PatternGroup, fam []groupRun, emit func(int, Assignment) bool, st *GroupStats) (stopped bool, err error) {
	l := len(fam[0].frames)
	for _, m := range fam[1:] {
		if n := pattern.FramePrefixLen(fam[0].frames, m.frames); n < l {
			l = n
		}
	}
	// The bucket key guarantees l ≥ 2.
	st.Families++
	st.SharedDepth += l

	// Materialize the shared prefix as a pattern of its own: variable i is
	// order position i, so the identity order enumerates prefix tuples in
	// the same lexicographic order every member's standalone search uses.
	prefix := pattern.New()
	prefixOrder := make([]pattern.Var, l)
	for i := 0; i < l; i++ {
		prefixOrder[i] = prefix.AddVar(fmt.Sprintf("p%d", i), fam[0].frames[i].Label)
	}
	for i, f := range fam[0].frames[:l] {
		for _, fe := range f.Edges {
			if fe.Out {
				prefix.AddEdge(pattern.Var(i), pattern.Var(fe.Pos), fe.Label)
			} else {
				prefix.AddEdge(pattern.Var(fe.Pos), pattern.Var(i), fe.Label)
			}
		}
	}

	seeds := make([]Assignment, len(fam))
	conts := make([]*Search, len(fam))
	for mi, m := range fam {
		seeds[mi] = NewAssignment(groups[m.gi].Pattern.NumVars())
	}
	ps := NewSearch(prefix, g, Options{Order: prefixOrder, Ctx: ctx})
	for {
		ph, ok := ps.Next()
		if !ok {
			break
		}
		st.PrefixMatches++
		for mi, m := range fam {
			seed := seeds[mi]
			for i := 0; i < l; i++ {
				seed[m.order[i]] = ph[i]
			}
			s := conts[mi]
			if s == nil {
				s = NewSearch(groups[m.gi].Pattern, g, Options{Order: m.order, Seed: seed, Ctx: ctx})
				conts[mi] = s
			} else {
				s.Reseed(seed)
			}
			for {
				h, ok := s.Next()
				if !ok {
					break
				}
				if !emit(m.gi, h) {
					return true, nil
				}
			}
			if err := s.Err(); err != nil {
				return false, err
			}
		}
	}
	return false, ps.Err()
}
