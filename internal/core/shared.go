// Shared multi-GFD evaluation. Rule sets are redundant: many GFDs carry
// one pattern (same Q, different X → Y literals) or patterns overlapping on
// a match-order prefix. The validation entry points route through
// gfd.Set.Groups — GFDs bucketed by pattern fingerprint with a structural
// equality guard — so each distinct pattern structure is enumerated once
// and only the literal checks fan out per member, through the compiled
// literal program (match.LiteralEval), which compares attribute value IDs
// on the snapshot's rows instead of walking attribute strings per call. It
// is core's one literal evaluator: Satisfies runs it too, one single-member
// program per GFD.
package core

import (
	"context"
	"runtime"
	"slices"

	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// VerifyOptions configures ViolationsOpts. It has no exported fields: the
// type stays because benchmark/gfdbench spells core.VerifyOptions{}.
type VerifyOptions struct {
	// testHookGroupStart, when non-nil, runs as each pattern group's task
	// starts, receiving the group's index — the seam the panic-isolation
	// test uses to detonate inside a worker.
	testHookGroupStart func(grp int)
	// testArmAt, when non-nil, replaces n/16 as the number of matches on n
	// nodes after which a group arms (0: before its search starts).
	testArmAt func(n int) int
}

// VerifyStats reports how much enumeration work the grouped evaluation
// shared.
type VerifyStats struct {
	// Groups is the number of structurally distinct patterns in Σ.
	Groups int
	// SharedGFDs counts GFDs that rode along in a multi-member group —
	// their patterns were never enumerated separately.
	SharedGFDs int
	// MatchesReused counts match deliveries beyond the first per enumerated
	// match: for a match shared by an m-member group, m−1 re-enumerations
	// that never happened. Only the matches the search delivers count, so
	// none the literal guard pruned away.
	MatchesReused int
}

// literalSpecs translates gfd literals into the match-level form the
// compiled evaluator consumes.
func literalSpecs(ls []gfd.Literal) []match.LiteralSpec {
	if len(ls) == 0 {
		return nil
	}
	out := make([]match.LiteralSpec, len(ls))
	for i, l := range ls {
		if l.Kind == gfd.ConstLiteral {
			out[i] = match.LiteralSpec{IsConst: true, V1: l.X, A1: l.A, Const: l.Const}
		} else {
			out[i] = match.LiteralSpec{V1: l.X, A1: l.A, V2: l.Y, A2: l.B}
		}
	}
	return out
}

// groupCheck is the member fan-out of one pattern group: the group's
// literal program (one slot per distinct (variable, attribute) pair across
// all members) and the scratch it evaluates in. Not safe for concurrent use.
type groupCheck struct {
	gfds    []*gfd.GFD // Σ
	members []int      // the group's members, as indexes into Σ
	prog    *match.LiteralEval
	scr     *match.LiteralScratch
	guard   *match.LiteralGuard // set by arm; nil on the plain path
}

func newGroupCheck(set *gfd.Set, grp gfd.Group) *groupCheck {
	members := make([]match.MemberLiterals, len(grp.Members))
	for i, mi := range grp.Members {
		phi := set.GFDs[mi]
		members[i] = match.MemberLiterals{X: literalSpecs(phi.X), Y: literalSpecs(phi.Y)}
	}
	prog := match.CompileLiterals(members)
	return &groupCheck{gfds: set.GFDs, members: grp.Members, prog: prog, scr: prog.NewScratch()}
}

// check evaluates every member at match h of the group's pattern in g,
// appends a violation to out[mi] for each member mi (its index in Σ) that h
// violates, and reports whether there was one. h may be a search's view: it
// is copied once, on the first member it violates, and shared by every
// member violating at this match.
func (c *groupCheck) check(g *graph.Frozen, h match.Assignment, out [][]Violation) bool {
	var kept match.Assignment
	for i, mi := range c.members {
		if c.prog.Violates(i, g, h, c.scr) {
			if kept == nil {
				kept = h.Clone()
			}
			out[mi] = append(out[mi], Violation{GFD: c.gfds[mi], Match: kept})
		}
	}
	return kept != nil
}

// arm switches the group to value columns and to the literal guard of a
// search in order.
func (c *groupCheck) arm(order []pattern.Var) {
	c.scr = c.prog.NewColumnScratch()
	c.guard = c.prog.Guard(order)
}

// ViolationsOpts is ViolationsCtx with sharing statistics. The violation
// list is what checking each GFD on its own would give, violation for
// violation, in Σ-then-enumeration order. The pattern groups run as tasks
// on runtime.GOMAXPROCS(0) pool workers; a panic in one becomes a
// *PanicError.
func ViolationsOpts(ctx context.Context, g graph.Reader, set *gfd.Set, opt VerifyOptions) ([]Violation, VerifyStats, error) {
	return violations(ctx, g, set, runtime.GOMAXPROCS(0), opt)
}

// violations is ViolationsOpts on the given number of workers: one pool
// task per pattern group enumerates the group's pattern and checks its
// members at every match. Groups partition Σ, so the tasks append to
// disjoint entries of the per-GFD lists. After n/16 matches on n nodes a
// group arms: it reads value columns, which the groups on them fill each
// entry of once, and its search drops the subtrees where the literal guard
// refutes every member. Fewer matches per node repay neither a column's
// 4 B a node nor the guard's literal checks at every frame (check-dense's
// groups make 7, store-lifecycle's 0.02, where arming from the first match
// doubles validation time).
func violations(ctx context.Context, r graph.Reader, set *gfd.Set, workers int, opt VerifyOptions) ([]Violation, VerifyStats, error) {
	g := r.Snapshot()
	groups := set.Groups()
	st := VerifyStats{Groups: len(groups)}
	for _, grp := range groups {
		if len(grp.Members) > 1 {
			st.SharedGFDs += len(grp.Members)
		}
	}

	pl := newPool(ctx, min(workers, len(groups)))
	byGFD := make([][]Violation, set.Len())
	reused := make([]int, pl.size()) // per worker, summed after the run
	err := pl.run(len(groups), func(w, gi int) error {
		if h := opt.testHookGroupStart; h != nil {
			h(gi)
		}
		grp := groups[gi]
		c := newGroupCheck(set, grp)
		order, at := match.DefaultOrder(grp.Pattern), g.NumNodes()/16
		if opt.testArmAt != nil {
			at = opt.testArmAt(g.NumNodes())
		}
		if at == 0 {
			c.arm(order)
		}
		guard := func(h match.Assignment, v pattern.Var, cands []graph.NodeID) []graph.NodeID {
			if c.guard == nil {
				return cands
			}
			return c.guard.Filter(g, c.scr, h, v, cands)
		}
		s := match.NewSearch(grp.Pattern, g, match.Options{Order: order, Filter: guard, Ctx: pl.ctx})
		matches := 0
		for h, ok := s.Next(); ok; h, ok = s.Next() {
			c.check(g, h, byGFD)
			if matches++; matches == at {
				c.arm(order)
			}
		}
		reused[w] += matches * (len(grp.Members) - 1)
		return canceledErr(s.Err())
	})
	for _, n := range reused {
		st.MatchesReused += n
	}

	// Assemble in Σ order, sized once; within a GFD its group's search
	// delivered matches in the standalone enumeration order.
	return slices.Concat(byGFD...), st, err
}
