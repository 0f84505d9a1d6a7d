// Incremental revalidation: maintaining Violations(G, Σ) across a graph
// delta without re-running full match enumeration. The soundness argument
// lives with the scoping primitive (see internal/match/incremental.go): a
// match whose image avoids the delta's touched nodes is bitwise-identical —
// same edges, same attributes — in both versions of the graph, so its
// violation status carries over unexamined; every match that could have
// appeared, vanished, or flipped keeps its root variable within the
// pattern's radius of a touched node in the version of the graph it exists
// in. Revalidate therefore re-enumerates only the root candidates inside
// that radius-neighborhood (computed on both the old and the updated graph,
// so removed edges cannot hide a dying match) and splices the result into
// the carried-over remainder.
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

// RevalidateOptions configures Revalidate.
type RevalidateOptions struct {
	// Workers fans the per-group revalidation tasks out over the same worker
	// pool the reasoning engines use (per-worker deques, idle workers steal
	// from peer backs); <= 1 is one worker.
	Workers int
	// Ctx, when non-nil, cancels the revalidation cooperatively: checked
	// between groups, inside each group's re-enumeration (match.Options.Ctx),
	// and by condvar-blocked idle workers. A cancelled call returns
	// ErrCanceled (or the context's deadline error) with the stats of the
	// work it finished; the violations slice is meaningless then. Nil runs
	// without cancellation.
	Ctx context.Context
	// testHookGFDStart, when non-nil, runs as each revalidation task starts,
	// receiving the task's representative GFD index — the seam the
	// panic-isolation tests use to detonate inside a worker.
	testHookGFDStart func(gi int)
}

// RevalidateStats counts the work an incremental revalidation performed;
// compare Reenumerated against the graph's full match volume to see what
// the delta scoping saved.
type RevalidateStats struct {
	GFDs          int // GFDs revalidated
	Groups        int // pattern groups revalidated
	Scoped        int // groups whose re-enumeration was hood-scoped
	Full          int // groups re-enumerated in full (disconnected patterns)
	Kept          int // prior violations carried over unexamined
	Reenumerated  int // matches re-enumerated inside the scope
	MatchesReused int // match deliveries beyond the first per re-enumerated match
	UnitsStolen   int // revalidation tasks taken from another worker's deque
}

func (s *RevalidateStats) add(other RevalidateStats) {
	s.GFDs += other.GFDs
	s.Groups += other.Groups
	s.Scoped += other.Scoped
	s.Full += other.Full
	s.Kept += other.Kept
	s.Reenumerated += other.Reenumerated
	s.MatchesReused += other.MatchesReused
	s.UnitsStolen += other.UnitsStolen
}

// Revalidate computes Violations(updated, Σ) from the complete violation
// set prev of the pre-delta graph old, re-enumerating only matches whose
// root falls inside the touched set's radius-neighborhood. touched is the
// delta's touched node set (graph.Delta.TouchedNodes); old and updated are
// the two versions of the graph — typically the delta's base and its
// Overlay, the Refreeze of the delta (any Reader pair whose difference is
// confined to touched works). The result equals Violations(updated, Σ),
// violation for violation in the same order, which the equivalence tests
// pin.
//
// A non-nil error means the call ended without a result: cancellation
// through Options.Ctx (ErrCanceled or the context's deadline error) or a
// panic inside a worker (*PanicError). Stats still covers the work completed;
// the violations slice is nil.
func Revalidate(set *gfd.Set, old, updated graph.Reader, touched []graph.NodeID, prev []Violation, opt RevalidateOptions) ([]Violation, RevalidateStats, error) {
	var stats RevalidateStats
	// Bucket Σ by pattern structure: one neighborhood lookup and one
	// (scoped) re-enumeration serve every GFD sharing the structure, with
	// per-member literal checks fanned out at each match.
	groups := set.Groups()
	n := len(groups)
	// One task per group on the package's worker pool, which owns failure
	// isolation and cancellation (first error wins, a panic becomes a
	// *PanicError, abandoned tasks surface as the canceled error).
	pl := newPool[int](opt.Ctx, min(opt.Workers, n))
	ctx := pl.ctx // never nil
	stats.GFDs = set.Len()
	stats.Groups = n
	prevBy := make(map[*gfd.GFD][]Violation, set.Len())
	for _, v := range prev {
		prevBy[v.GFD] = append(prevBy[v.GFD], v)
	}
	// Neighborhoods are shared across groups with equal pattern radius and
	// computed up front, so the parallel workers read them without
	// synchronization. Removed edges exist only in old, added ones only in
	// updated; the union neighborhood covers matches dying in the former
	// and matches born in the latter.
	hoods := make(map[int]map[graph.NodeID]bool)
	for _, grp := range groups {
		if err := ctx.Err(); err != nil {
			return nil, stats, canceledErr(err)
		}
		p := grp.Pattern
		if !p.Connected() || p.NumVars() == 0 {
			continue
		}
		r := p.Radius(match.DefaultOrder(p)[0])
		if _, ok := hoods[r]; ok {
			continue
		}
		hood := graph.Neighborhood(old, touched, r)
		for v := range graph.Neighborhood(updated, touched, r) {
			hood[v] = true
		}
		hoods[r] = hood
	}

	results := make([][]Violation, set.Len())
	run := func(gi int, st *RevalidateStats) error {
		if h := opt.testHookGFDStart; h != nil {
			h(groups[gi].Members[0])
		}
		if err := ctx.Err(); err != nil {
			return canceledErr(err)
		}
		return revalidateGroup(set, groups[gi], updated, hoods, prevBy, opt.Ctx, st, results)
	}
	perStats := make([]RevalidateStats, pl.size())
	err := pl.run(indexes(n), func(w, gi int) error { return run(gi, &perStats[w]) })
	for w, s := range perStats {
		s.UnitsStolen = pl.stolen[w]
		stats.add(s)
	}
	if err != nil {
		return nil, stats, err
	}
	return slices.Concat(results...), stats, nil
}

// RevalidateDelta is Revalidate against a delta's own base, overlay and
// touched set — the one-call form for the Graph → Freeze → Delta lifecycle.
func RevalidateDelta(set *gfd.Set, d *graph.Delta, prev []Violation, opt RevalidateOptions) ([]Violation, RevalidateStats, error) {
	return Revalidate(set, d.Base(), d.Overlay(), d.TouchedNodes(), prev, opt)
}

// revalidateGroup revalidates one pattern group: carry over each member's
// prior violations rooted outside the hood, re-enumerate matches rooted
// inside it once for the whole group (fanning the compiled literal checks
// out per member at each match), and restore each member's sequential
// enumeration order. Disconnected patterns fall back to a full
// re-enumeration — a match of such a pattern is a cross product of
// independent component matches, so a change in any component invalidates
// combinations whose root component lies arbitrarily far from the delta.
// Member mi's violations land in out[mi] (out is indexed like Σ; groups
// partition Σ, so concurrent calls for different groups write disjoint
// entries).
func revalidateGroup(set *gfd.Set, grp gfd.Group, updated graph.Reader, hoods map[int]map[graph.NodeID]bool, prevBy map[*gfd.GFD][]Violation, ctx context.Context, st *RevalidateStats, out [][]Violation) error {
	p := grp.Pattern
	order := match.DefaultOrder(p)
	if len(order) == 0 {
		return nil
	}
	gc := newGroupCheck(set, grp)
	emit := func(h match.Assignment) {
		st.Reenumerated++
		st.MatchesReused += len(grp.Members) - 1
		gc.check(updated, h, out)
	}
	if !p.Connected() {
		st.Full++
		s := match.NewSearch(p, updated, match.Options{Ctx: ctx})
		for {
			h, ok := s.Next()
			if !ok {
				return canceledErr(s.Err())
			}
			emit(h)
		}
	}
	st.Scoped++
	root := order[0]
	hood := hoods[p.Radius(root)]
	for _, mi := range grp.Members {
		for _, v := range prevBy[set.GFDs[mi]] {
			if !hood[v.Match[root]] {
				out[mi] = append(out[mi], v)
				st.Kept++
			}
		}
	}
	if cands := match.ScopedRootCandidates(p, updated, order, hood); len(cands) > 0 {
		s := match.NewSearch(p, updated, match.Options{RootCandidates: cands, Ctx: ctx})
		for {
			h, ok := s.Next()
			if !ok {
				if err := s.Err(); err != nil {
					return canceledErr(err)
				}
				break
			}
			emit(h)
		}
	}
	// The carried-over and re-enumerated halves partition each member's
	// violation set by root-in-hood; both are lexicographic in the variable
	// order, and the sequential enumeration is exactly that lexicographic
	// order (every search frame iterates an ascending candidate list), so
	// one sort per member restores full-Violations order.
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
