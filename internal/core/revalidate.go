// Incremental revalidation: maintaining Violations(G, Σ) across a graph
// delta without re-running full match enumeration. A match's edges and
// attributes all live at its image, so a match whose image avoids the
// delta's touched nodes is bitwise-identical in both versions of the graph
// and its violation status carries over unexamined; every match that could
// have appeared, vanished, or flipped maps some variable to a touched node.
// Revalidate therefore keeps the prior violations whose image avoids the
// touched set and re-enumerates, in the updated graph only, the matches
// whose image meets it: one search per pattern variable u, rooted at the
// touched nodes u may match and barred from touched nodes at every variable
// before u, so each such match is found exactly once.
package core

import (
	"slices"
	"sort"

	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// RevalidateOptions configures Revalidate: Workers fans the per-group
// tasks out over the package's worker pool, and Ctx cancels between groups
// and inside each group's re-enumeration (match.Options.Ctx). A cancelled
// call returns ErrCanceled (or the context's deadline error) with the stats
// of the work it finished.
type RevalidateOptions = ParOptions

// RevalidateStats counts the work an incremental revalidation performed;
// compare Reenumerated against the graph's full match volume to see what
// the delta scoping saved.
type RevalidateStats struct {
	GFDs   int // GFDs revalidated
	Groups int // pattern groups revalidated
	Kept   int // prior violations carried over unexamined
	// Reenumerated counts the matches meeting the touched set that the
	// searches delivered: once a group arms, its literal guard prunes the
	// ones no member can violate, and those do not count.
	Reenumerated int
	// MatchesReused counts match deliveries beyond the first per
	// re-enumerated match, over delivered matches only, as
	// VerifyStats.MatchesReused does.
	MatchesReused int
}

// Revalidate computes Violations(g, Σ) from prev, the complete violation
// set of an earlier version of g, re-enumerating only the matches whose
// image meets touched. touched must be ascending and hold every node whose
// attributes or liveness differ between the two versions and an endpoint
// of every edge that differs — graph.Delta.TouchedSince of the earlier
// version is such a set. The result equals Violations(g, Σ), violation for
// violation in the same order, which the equivalence tests pin.
//
// A non-nil error means the call ended without a result: cancellation
// through Options.Ctx (ErrCanceled or the context's deadline error) or a
// panic inside a worker (*PanicError). Stats still covers the work completed;
// the violations slice is nil.
func Revalidate(set *gfd.Set, r graph.Reader, touched []graph.NodeID, prev []Violation, opt RevalidateOptions) ([]Violation, RevalidateStats, error) {
	// Bucket Σ by pattern structure: one set of searches serves every GFD
	// sharing the structure, with per-member literal checks fanned out at
	// each match.
	groups := set.Groups()
	stats := RevalidateStats{GFDs: set.Len(), Groups: len(groups)}
	sc := scope{nodes: touched, has: graph.BitsetOf(touched)}
	kept := carriedOver(set, prev, sc)
	for _, vs := range kept {
		stats.Kept += len(vs)
	}
	out, matches, reused, err := checkGroups(set, groups, r.Snapshot(), opt, kept, func(c *groupCheck) error {
		return revalidateGroup(c, sc)
	})
	stats.Reenumerated, stats.MatchesReused = matches, reused
	if err != nil {
		return nil, stats, err
	}
	return out, stats, nil
}

// RevalidateDelta computes Violations(d.Overlay(), Σ) from prev, the
// complete violation set of the delta's base — the one-call form of
// Revalidate for the Graph → Freeze → Delta lifecycle, where a writer calls
// it after every batch of edits to one growing delta.
//
// Calls on one delta chain: the delta keeps the last successful call's
// result with the version it was computed at (graph.Delta.Memo). A call
// with the same set and prev — the same *gfd.Set at the same Len, and a
// prev of the same length starting at the same element — revalidates that
// result over only the nodes touched since its version, so a batch costs
// its own edits, not the whole delta's. Any other call runs from the base
// and starts a new chain. Either way the result equals
// Violations(d.Overlay(), set), violation for violation; set and prev must
// not be modified while a chain uses them. The caller owns the returned
// slice.
func RevalidateDelta(set *gfd.Set, d *graph.Delta, prev []Violation, opt RevalidateOptions) ([]Violation, RevalidateStats, error) {
	from, since := prev, 0
	if m, ok := d.Memo().(*revalidateMemo); ok && m.chains(set, prev) {
		from, since = m.result, m.version
	}
	version := d.Version()
	got, stats, err := Revalidate(set, d.Overlay(), d.TouchedSince(since), from, opt)
	if err != nil {
		return nil, stats, err
	}
	d.SetMemo(&revalidateMemo{set: set, setLen: set.Len(), prev: prev, version: version, result: got})
	return slices.Clone(got), stats, nil
}

// revalidateMemo is what RevalidateDelta keeps on a delta: the key of its
// last successful call (set, its length, prev) and that call's delta
// version and result.
type revalidateMemo struct {
	set     *gfd.Set
	setLen  int
	prev    []Violation
	version int
	result  []Violation
}

// chains reports whether a call with set and prev continues the memo's
// chain: the same Σ at the same length, and the same prev slice by start
// and length (two empty prevs are the same violation set).
func (m *revalidateMemo) chains(set *gfd.Set, prev []Violation) bool {
	return m.set == set && m.setLen == set.Len() && len(m.prev) == len(prev) &&
		(len(prev) == 0 || &m.prev[0] == &prev[0])
}

// carriedOver returns, indexed like Σ, the violations of prev whose image
// avoids the touched set: they carry over unexamined. prev lists each Σ
// position's violations in Σ order, so a GFD that Σ lists c times has c
// equal runs there, one per position it holds. Each position's list is
// capped at its own length, so appending to it never reaches the next.
func carriedOver(set *gfd.Set, prev []Violation, sc scope) [][]Violation {
	byGFD := make(map[*gfd.GFD][]Violation, set.Len())
	for _, v := range prev {
		if !sc.meets(v.Match) {
			byGFD[v.GFD] = append(byGFD[v.GFD], v)
		}
	}
	copies := make(map[*gfd.GFD]int, set.Len())
	for _, phi := range set.GFDs {
		copies[phi]++
	}
	at := make([][]Violation, set.Len())
	for i, phi := range set.GFDs {
		vs := byGFD[phi]
		k := len(vs) / copies[phi]
		at[i], byGFD[phi] = vs[:k:k], vs[k:]
		copies[phi]--
	}
	return at
}

// scope is the touched set Revalidate scopes to, as the ascending list the
// searches root at and as a bitset for membership.
type scope struct {
	nodes []graph.NodeID
	has   graph.Bitset
}

// meets reports whether match h maps some variable to a touched node.
func (sc scope) meets(h match.Assignment) bool {
	for _, v := range h {
		if sc.has.Test(v) {
			return true
		}
	}
	return false
}

// revalidateGroup re-enumerates, through the group's check c, the matches
// whose image meets the touched set, appending to the carried-over
// violations, and restores each member's sequential enumeration order.
func revalidateGroup(c *groupCheck, sc scope) error {
	p := c.grp.Pattern
	// The search for variable u roots u at the touched nodes it may match and
	// bars touched nodes from the variables before u, so a match is found by
	// the search of the first variable it maps into the touched set.
	for u := range pattern.Var(p.NumVars()) {
		roots := match.ScopedRootCandidates(p, c.g, u, sc.nodes)
		if len(roots) == 0 {
			continue
		}
		err := c.search(match.Options{
			Order:          p.PivotOrder(u),
			RootCandidates: roots,
			Filter: func(_ match.Assignment, x pattern.Var, cands []graph.NodeID) []graph.NodeID {
				if x >= u {
					return cands
				}
				return slices.DeleteFunc(cands, sc.has.Test)
			},
		})
		if err != nil {
			return err
		}
	}
	// The carried-over and re-enumerated halves partition each member's
	// violation set by whether the image meets the touched set; the
	// sequential enumeration is lexicographic in the default variable order
	// (every search frame iterates an ascending candidate list), so one sort
	// per member restores full-Violations order.
	order := match.DefaultOrder(p)
	for _, mi := range c.grp.Members {
		sortViolationsByOrder(c.out[mi], order)
	}
	return nil
}

// sortViolationsByOrder sorts violations of one pattern lexicographically
// by the match projected through the variable order — the order a
// sequential enumeration emits them in.
func sortViolationsByOrder(vs []Violation, order []pattern.Var) {
	sort.Slice(vs, func(i, j int) bool {
		a, b := vs[i].Match, vs[j].Match
		for _, v := range order {
			if a[v] != b[v] {
				return a[v] < b[v]
			}
		}
		return false
	})
}
