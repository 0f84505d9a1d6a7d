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
	"context"
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
	GFDs          int // GFDs revalidated
	Groups        int // pattern groups revalidated
	Kept          int // prior violations carried over unexamined
	Reenumerated  int // matches re-enumerated: those meeting the touched set
	MatchesReused int // match deliveries beyond the first per re-enumerated match
}

func (s *RevalidateStats) add(other RevalidateStats) {
	s.GFDs += other.GFDs
	s.Groups += other.Groups
	s.Kept += other.Kept
	s.Reenumerated += other.Reenumerated
	s.MatchesReused += other.MatchesReused
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
	g := r.Snapshot()
	var stats RevalidateStats
	// Bucket Σ by pattern structure: one set of searches serves every GFD
	// sharing the structure, with per-member literal checks fanned out at
	// each match.
	groups := set.Groups()
	n := len(groups)
	// One task per group on the package's worker pool, which owns failure
	// isolation and cancellation (first error wins, a panic becomes a
	// *PanicError, abandoned tasks surface as the canceled error).
	pl := newPool(opt.Ctx, min(opt.Workers, n))
	ctx := pl.ctx // never nil
	stats.GFDs = set.Len()
	stats.Groups = n
	prevAt := priorByPosition(set, prev)
	sc := scope{nodes: touched, has: graph.BitsetOf(touched)}

	results := make([][]Violation, set.Len())
	run := func(gi int, st *RevalidateStats) error {
		if h := opt.testHookUnitStart; h != nil {
			h(groups[gi].Members[0])
		}
		if err := ctx.Err(); err != nil {
			return canceledErr(err)
		}
		return revalidateGroup(set, groups[gi], g, sc, prevAt, opt.Ctx, st, results)
	}
	perStats := make([]RevalidateStats, pl.size())
	err := pl.run(n, func(w, gi int) error { return run(gi, &perStats[w]) })
	for _, s := range perStats {
		stats.add(s)
	}
	if err != nil {
		return nil, stats, err
	}
	return slices.Concat(results...), stats, nil
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

// priorByPosition splits prev, which lists each Σ position's violations in
// Σ order, by position. A GFD that Σ lists c times has c equal runs there,
// one per position it holds.
func priorByPosition(set *gfd.Set, prev []Violation) [][]Violation {
	byGFD := make(map[*gfd.GFD][]Violation, set.Len())
	for _, v := range prev {
		byGFD[v.GFD] = append(byGFD[v.GFD], v)
	}
	copies := make(map[*gfd.GFD]int, set.Len())
	for _, phi := range set.GFDs {
		copies[phi]++
	}
	at := make([][]Violation, set.Len())
	for i, phi := range set.GFDs {
		vs := byGFD[phi]
		k := len(vs) / copies[phi]
		at[i], byGFD[phi] = vs[:k], vs[k:]
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

// revalidateGroup revalidates one pattern group: carry over each member's
// prior violations whose image avoids the touched set, re-enumerate the
// matches whose image meets it once for the whole group (fanning the
// compiled literal checks out per member at each match), and restore each
// member's sequential enumeration order. Member mi's violations land in
// out[mi] (out is indexed like Σ; groups partition Σ, so concurrent calls
// for different groups write disjoint entries).
func revalidateGroup(set *gfd.Set, grp gfd.Group, g *graph.Frozen, sc scope, prevAt [][]Violation, ctx context.Context, st *RevalidateStats, out [][]Violation) error {
	p := grp.Pattern
	order := match.DefaultOrder(p)
	if len(order) == 0 {
		return nil
	}
	for _, mi := range grp.Members {
		for _, v := range prevAt[mi] {
			if !sc.meets(v.Match) {
				out[mi] = append(out[mi], v)
				st.Kept++
			}
		}
	}
	// Rows, never value columns (see violations): the searches read few
	// nodes of a snapshot that lives for one batch.
	gc := newGroupCheck(set, grp)
	// The search for variable u roots u at the touched nodes it may match and
	// bars touched nodes from the variables before u, so a match is found by
	// the search of the first variable it maps into the touched set.
	for u := range pattern.Var(p.NumVars()) {
		roots := match.ScopedRootCandidates(p, g, u, sc.nodes)
		if len(roots) == 0 {
			continue
		}
		s := match.NewSearch(p, g, match.Options{
			Order:          p.PivotOrder(u),
			RootCandidates: roots,
			Filter: func(_ match.Assignment, x pattern.Var, cands []graph.NodeID) []graph.NodeID {
				if x >= u {
					return cands
				}
				return slices.DeleteFunc(cands, sc.has.Test)
			},
			Ctx: ctx,
		})
		for h, ok := s.Next(); ok; h, ok = s.Next() {
			st.Reenumerated++
			st.MatchesReused += len(grp.Members) - 1
			gc.check(g, h, out)
		}
		if err := s.Err(); err != nil {
			return canceledErr(err)
		}
	}
	// The carried-over and re-enumerated halves partition each member's
	// violation set by whether the image meets the touched set; the
	// sequential enumeration is lexicographic in the default variable order
	// (every search frame iterates an ascending candidate list), so one sort
	// per member restores full-Violations order.
	for _, mi := range grp.Members {
		sortViolationsByOrder(out[mi], order)
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
