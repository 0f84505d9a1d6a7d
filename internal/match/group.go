// Grouped enumeration: a set of pattern groups (one enumeration consumer
// per structurally distinct pattern, see gfd.Set.Groups) is evaluated in one
// pass, each group's matches enumerated exactly once by one search and
// handed to every consumer of the group. Sharing a search prefix across
// groups was tried and deleted (DESIGN.md "Patterns, fingerprints and
// groups").
package match

import (
	"context"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// PatternGroup is one enumeration consumer of EnumerateGrouped.
type PatternGroup struct {
	Pattern *pattern.Pattern
}

// GroupStats is EnumerateGrouped's first result. It has no fields; the
// two-result signature is pinned by benchmark/gfdbench.
type GroupStats struct{}

// EnumerateGrouped enumerates every group's full match set, group by group,
// calling emit(groupIndex, match) for each match. The match is a view of
// the enumerating search (see Search.Next): valid during the emit call,
// read-only, to be cloned by an emit that keeps it. Per group, matches
// arrive in exactly the order a standalone NewSearch with the group's
// default order produces them, because that is the search that runs.
// Returning false from emit stops the whole enumeration. The returned error
// is the context error when ctx fired mid-enumeration.
func EnumerateGrouped(ctx context.Context, g graph.Reader, groups []PatternGroup, emit func(int, Assignment) bool) (GroupStats, error) {
	for gi, pg := range groups {
		s := NewSearch(pg.Pattern, g, Options{Ctx: ctx})
		for {
			h, ok := s.Next()
			if !ok {
				break
			}
			if !emit(gi, h) {
				return GroupStats{}, nil
			}
		}
		if err := s.Err(); err != nil {
			return GroupStats{}, err
		}
	}
	return GroupStats{}, nil
}
