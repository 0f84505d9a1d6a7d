// Shared multi-GFD evaluation. Rule sets are redundant: many GFDs carry
// one pattern (same Q, different X → Y literals) or patterns overlapping on
// a match-order prefix. The validation entry points route through
// gfd.Set.Groups — GFDs bucketed by pattern fingerprint with a structural
// equality guard — so each distinct pattern structure is enumerated once
// and only the literal checks fan out per member, through the compiled
// literal program (match.LiteralEval), which compares attribute value IDs
// instead of walking attribute strings per call. Every validation search —
// Violations' one per group, Revalidate's one per pattern variable, and so
// Satisfies, which returns Violations' first entry — is groupCheck.search,
// which arms the group by one rule and then prunes with its literal guard.
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

// VerifyOptions configures ViolationsOpts. It has no fields: the type
// stays because benchmark/gfdbench spells core.VerifyOptions{}.
type VerifyOptions struct{}

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

// groupCheck is one pattern group's validation: the group's literal
// program (one slot per distinct (variable, attribute) pair across all
// members), the scratch it evaluates in, and the count of matches its
// searches delivered, which arms it. Not safe for concurrent use.
type groupCheck struct {
	g       *graph.Frozen
	ctx     context.Context
	grp     gfd.Group
	gfds    []*gfd.GFD // Σ
	prog    *match.LiteralEval
	scr     *match.LiteralScratch
	armAt   int           // matches after which the group arms
	matches int           // matches delivered, over all of the group's searches
	out     [][]Violation // indexed like Σ
}

func newGroupCheck(set *gfd.Set, grp gfd.Group, g *graph.Frozen, armAt int, ctx context.Context, out [][]Violation) *groupCheck {
	members := make([]match.MemberLiterals, len(grp.Members))
	for i, mi := range grp.Members {
		phi := set.GFDs[mi]
		members[i] = match.MemberLiterals{X: literalSpecs(phi.X), Y: literalSpecs(phi.Y)}
	}
	prog := match.CompileLiterals(members)
	return &groupCheck{g: g, ctx: ctx, grp: grp, gfds: set.GFDs, prog: prog, scr: prog.NewScratch(), armAt: armAt, out: out}
}

// search enumerates the group's pattern in opt.Order (DefaultOrder when
// nil), from opt.RootCandidates when set, and checks every member at every
// match. opt.Filter, when set, scopes the search; once the group is armed
// its literal guard, compiled for this search's order, drops after it the
// candidates below which no member can be violated. After armAt matches
// on the snapshot, counted over all of the group's searches, the group
// arms: it reads value columns, which every group on the snapshot fills
// each entry of once, and guards from the next frame on. Fewer matches
// per node repay neither a column's 4 B a node nor the guard's literal
// checks at every frame (check-dense's groups make 7 a node,
// store-lifecycle's 0.02, where arming from the first match doubles
// validation time).
func (c *groupCheck) search(opt match.Options) error {
	if opt.Order == nil {
		opt.Order = match.DefaultOrder(c.grp.Pattern)
	}
	var guard *match.LiteralGuard
	arm := func() {
		c.scr = c.prog.NewColumnScratch()
		guard = c.prog.Guard(opt.Order)
	}
	if c.matches >= c.armAt {
		arm()
	}
	scope := opt.Filter
	opt.Filter = func(h match.Assignment, v pattern.Var, cands []graph.NodeID) []graph.NodeID {
		if scope != nil {
			cands = scope(h, v, cands)
		}
		if guard == nil {
			return cands
		}
		return guard.Filter(c.g, c.scr, h, v, cands)
	}
	opt.Ctx = c.ctx
	s := match.NewSearch(c.grp.Pattern, c.g, opt)
	for h, ok := s.Next(); ok; h, ok = s.Next() {
		c.check(h)
		if c.matches++; c.matches == c.armAt {
			arm()
		}
	}
	return canceledErr(s.Err())
}

// check evaluates every member at match h and appends a violation to
// out[mi] for each member mi (its index in Σ) that h violates. h may be a
// search's view: it is copied once, on the first member it violates, and
// shared by every member violating at this match.
func (c *groupCheck) check(h match.Assignment) {
	var kept match.Assignment
	for i, mi := range c.grp.Members {
		if c.prog.Violates(i, c.g, h, c.scr) {
			if kept == nil {
				kept = h.Clone()
			}
			c.out[mi] = append(c.out[mi], Violation{GFD: c.gfds[mi], Match: kept})
		}
	}
}

// checkGroups runs task once per pattern group of Σ in g, as a pool task
// on opt.Workers workers, handing it the group's check; a panic in one
// becomes a *PanicError. A group arms after n/16 matches on n nodes
// (opt.testArmAt replaces the rule). The checks append to out, indexed
// like Σ; groups partition Σ, so the tasks write disjoint entries, and vs,
// their concatenation, is the same at any worker count. matches counts the
// matches the searches delivered, and reused the deliveries beyond the
// first per match, m−1 for an m-member group: the re-enumerations sharing
// saved. Both cover the work done, also on error.
func checkGroups(set *gfd.Set, groups []gfd.Group, g *graph.Frozen, opt ParOptions, out [][]Violation, task func(c *groupCheck) error) (vs []Violation, matches, reused int, err error) {
	armAt := g.NumNodes() / 16
	if opt.testArmAt != nil {
		armAt = opt.testArmAt(g.NumNodes())
	}
	pl := newPool(opt.Ctx, min(opt.Workers, len(groups)))
	checks := make([]*groupCheck, len(groups))
	err = pl.run(len(groups), func(_, gi int) error {
		if h := opt.testHookUnitStart; h != nil {
			h(groups[gi].Members[0])
		}
		if err := pl.ctx.Err(); err != nil {
			return canceledErr(err)
		}
		checks[gi] = newGroupCheck(set, groups[gi], g, armAt, pl.ctx, out)
		return task(checks[gi])
	})
	for _, c := range checks {
		if c != nil {
			matches += c.matches
			reused += c.matches * (len(c.grp.Members) - 1)
		}
	}
	return slices.Concat(out...), matches, reused, err
}

// ViolationsOpts is ViolationsCtx with sharing statistics. The violation
// list is what checking each GFD on its own would give, violation for
// violation, in Σ-then-enumeration order. The pattern groups run as tasks
// on runtime.GOMAXPROCS(0) pool workers; a panic in one becomes a
// *PanicError.
func ViolationsOpts(ctx context.Context, g graph.Reader, set *gfd.Set, _ VerifyOptions) ([]Violation, VerifyStats, error) {
	return violations(g, set, ParOptions{Workers: runtime.GOMAXPROCS(0), Ctx: ctx})
}

// violations is ViolationsOpts on opt.Workers workers: one search per
// pattern group, in its default order, checks the group's members at every
// match, in the order checking each GFD on its own would.
func violations(r graph.Reader, set *gfd.Set, opt ParOptions) ([]Violation, VerifyStats, error) {
	groups := set.Groups()
	st := VerifyStats{Groups: len(groups)}
	for _, grp := range groups {
		if len(grp.Members) > 1 {
			st.SharedGFDs += len(grp.Members)
		}
	}
	out, _, reused, err := checkGroups(set, groups, r.Snapshot(), opt, make([][]Violation, set.Len()), func(c *groupCheck) error {
		return c.search(match.Options{})
	})
	st.MatchesReused = reused
	return out, st, err
}
