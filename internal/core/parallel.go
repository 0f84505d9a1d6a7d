package core

import (
	"context"

	"repro/internal/canon"
	"repro/internal/depgraph"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// ParOptions configures ParSat, ParImp and Revalidate (as
// RevalidateOptions); ViolationsOpts runs validation on it too. The zero
// value runs one worker without cancellation. How the work is cut is not
// an option, because nothing is gained by varying it: pattern groups are
// always taken in the dependency order of Section V-B (groupOrder), a
// ParSat task is a chunk of ⌈|Σ|/p⌉ of G_Σ's copies, a ParImp unit and a
// validation or Revalidate task are one pattern group.
type ParOptions struct {
	// Workers is p, the number of parallel workers; <= 1 is one worker.
	Workers int
	// Ctx, when non-nil, cancels the run cooperatively: workers check it at
	// task boundaries, and in-flight match enumerations stop within a
	// bounded number of frame expansions (match.Options.Ctx). A cancelled run
	// returns the stats of the work it finished plus ErrCanceled (or
	// context.DeadlineExceeded when a deadline fired) in the result's Err
	// field (Revalidate: as its error); it never leaks a goroutine. Nil runs
	// without cancellation.
	Ctx context.Context
	// testHookUnitStart, when non-nil, runs at the top of every unit's
	// search, and as each validation or Revalidate task starts, with the
	// group's first member — the seam the cancellation, panic-isolation and
	// schedule tests use to act inside a worker.
	testHookUnitStart func(gfd int)
	// testArmAt, when non-nil, replaces n/16 as the number of matches on n
	// nodes after which a validation or Revalidate group arms (0: before its
	// first search starts).
	testArmAt func(n int) int
	// testHookTask, when non-nil, runs as a worker takes a ParSat task — the
	// seam the chunking tests use to learn which worker chased which chunk,
	// and how many chunks a run cut.
	testHookTask func(worker int, task []unit)
	// testHookChase, when non-nil, runs as ParImp's chase takes unit i —
	// the seam the panic-isolation test uses to detonate in the chase.
	testHookChase func(i int)
	// testHookTerm, when non-nil, sees the node of every term a ParSat
	// worker's chase reads or writes (enforcer.lookup, enforcer.handle) —
	// the seam the term-closure test uses to hold each worker to the terms
	// of the chunks it ran.
	testHookTerm func(worker int, n graph.NodeID)
}

// DefaultParOptions returns the configuration used by the experiments
// unless stated otherwise.
func DefaultParOptions(workers int) ParOptions {
	return ParOptions{Workers: workers}
}

// unit is one search of a pattern group (Section V-B): rooted in an
// ascending list of the group's pivot candidates. For ParSat they are the
// part of the pivot's G_Σ scope that lies in one chunk; for ParImp all of
// its label-index candidates on G^X_Q. Units are per pattern group, not per
// GFD: one enumeration of the group's pattern serves every member rule, with
// the per-GFD conclusions fanned out at enforcement time (chaseMatch).
type unit struct {
	grp   int            // index into parEngine.groups
	roots []graph.NodeID // ascending, never empty
}

// parEngine is the planning ParSat and ParImp share: Σ's pattern groups,
// one plan per group, each group's pivot and its candidates, and the order
// the groups run in. The canonical graph is immutable and shared read-only
// by every worker. What runs on the plan differs: ParSat chases chunks of
// G_Σ (parsat.go), ParImp chases one relation over matches the pool
// enumerates (parimp.go). Every fan-out runs on the package's worker pool
// (pool.go).
type parEngine struct {
	opt  ParOptions
	set  *gfd.Set
	g    *graph.Frozen
	high func(int) bool // GFD indexes with the highest unit priority
	// sigma, G_Σ for satisfiability, scopes each group's pivot candidates
	// to the GFD copies that can host its pattern (canon.Sigma.Scope). Nil
	// for implication: G^X_Q is one copy, and the pivot's candidates are its
	// label index.
	sigma *canon.Sigma

	// groups buckets Σ by pattern structure; the per-group arrays below are
	// aligned with it. sharedGroups counts the multi-member groups for
	// Stats.GroupsShared.
	groups       []gfd.Group
	sharedGroups int

	orders [][]pattern.Var // per group, the order of its pivot (Plan.OrderFor)
	plans  []*match.Plan
	roots  [][]graph.NodeID // per group, the pivot's candidates; nil for none

	ctx context.Context // never nil: Background when ParOptions.Ctx is nil

	// testHookGroupPlan, when non-nil, runs before each group is planned —
	// the seam the cancellation tests use to observe and interrupt the
	// planning pass (kept off ParOptions: it is engine plumbing, not an
	// option).
	testHookGroupPlan func(grp int)
}

func newParEngine(opt ParOptions, set *gfd.Set, g *graph.Frozen) *parEngine {
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	opt.Workers = max(opt.Workers, 1)
	return &parEngine{opt: opt, set: set, g: g, ctx: ctx}
}

// planGroups plans every pattern group of Σ on g. GFDs with structurally
// equal patterns share one group — one plan, one set of searches — and their
// X → Y conclusions fan out per match in chaseMatch. Each group's pivot is
// the plan pivot with the fewest candidates. A non-nil error is the pass's
// cancellation or panic; nothing has been chased then.
func (e *parEngine) planGroups() error {
	e.groups = e.set.Groups()
	n := len(e.groups)
	for _, grp := range e.groups {
		if len(grp.Members) > 1 {
			e.sharedGroups++
		}
	}
	e.orders = make([][]pattern.Var, n)
	e.plans = make([]*match.Plan, n)
	e.roots = make([][]graph.NodeID, n)
	// Planning and pivot choice are per-group independent; doing them
	// serially would be a p-independent startup phase capping the speedup
	// (Amdahl), so they are spread over the same p workers. The context is
	// polled between groups: a deadline must not wait the pass out.
	return newPool(e.ctx, e.opt.Workers).run(n, func(_, i int) error {
		if err := e.ctx.Err(); err != nil {
			return canceledErr(err)
		}
		if h := e.testHookGroupPlan; h != nil {
			h(i)
		}
		pat := e.groups[i].Pattern
		plan := match.CompilePlan(pat, e.g)
		var scope [][]graph.NodeID
		if e.sigma != nil {
			var ok bool
			if scope, ok = e.sigma.Scope(pat, plan.Pivots()...); !ok {
				return nil // no copy of Σ hosts it: nothing to search
			}
		}
		for k, pv := range plan.Pivots() {
			var cands []graph.NodeID
			if scope != nil {
				cands = scope[pv]
			}
			if cands == nil { // implication, or an edgeless component
				cands = e.g.AppendCandidates(nil, pat.Label(pv))
			}
			if k == 0 || len(cands) < len(e.roots[i]) {
				e.roots[i], e.orders[i] = cands, plan.OrderFor(pv)
			}
		}
		e.plans[i] = plan
		return nil
	})
}

// groupOrder returns the pattern groups in scheduling order: each group
// stands where its first member does in the GFD-level dependency order of
// Section V-B (depgraph.OrderGFDs), which already puts empty antecedents
// first; with e.high set, the groups whose first member it names go ahead
// of the rest.
func (e *parEngine) groupOrder() []int {
	groupOf := make([]int, e.set.Len()) // first member → group + 1
	for i, grp := range e.groups {
		groupOf[grp.Members[0]] = i + 1
	}
	var high, rest []int
	for _, gi := range depgraph.OrderGFDs(e.set) {
		i := groupOf[gi] - 1
		if i < 0 {
			continue // not a group's first member
		}
		if e.high != nil && e.high(gi) {
			high = append(high, i)
		} else {
			rest = append(rest, i)
		}
	}
	return append(high, rest...)
}

// search returns unit u's enumeration, in its group's pivot order, rooted in
// u's pivot candidates. No d_Q-neighborhood restriction is needed: every
// later variable of the pivot's component is generated from an assigned
// neighbor's adjacency, so the search never leaves the root's neighborhood,
// and the root frame's signature pruning drops the candidates that cannot
// cover the pivot's edges. The run's context rides into the enumeration so
// even one huge unit stops within a bounded number of frame expansions
// after cancellation.
func (e *parEngine) search(u unit) *match.Search {
	if h := e.opt.testHookUnitStart; h != nil {
		// The hook's GFD index is the group's representative member, so
		// existing per-GFD test hooks keep firing on meaningful indexes.
		h(e.groups[u.grp].Members[0])
	}
	return match.NewSearch(e.groups[u.grp].Pattern, e.g, match.Options{
		Order: e.orders[u.grp], RootCandidates: u.roots, Plan: e.plans[u.grp], Ctx: e.opt.Ctx,
	})
}

// chaseMatch offers h to every member GFD of pattern group grp — this is
// where shared enumeration fans out into per-rule conclusions — then drains
// once. The fixpoint is order-independent (Church–Rosser), so offering the
// members back-to-back instead of in separate per-GFD runs changes nothing
// about the answer. It reports false on conflict.
func (e *parEngine) chaseMatch(enf *enforcer, grp int, h match.Assignment) bool {
	members := e.groups[grp].Members
	for _, mi := range members {
		if !enf.offer(mi, h) {
			return false
		}
	}
	if !enf.drain() {
		return false
	}
	enf.stats.MatchesReused += len(members) - 1
	return true
}
