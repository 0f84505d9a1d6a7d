package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/depgraph"
	"repro/internal/eq"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// ParOptions configures ParSat and ParImp. The zero value is not useful;
// start from DefaultParOptions. Two things about work units are not options,
// because nothing is gained by varying them: they always run in the
// dependency order of Section V-B (groupOrder), and each roots its search in
// at most unitRoots pivot candidates.
type ParOptions struct {
	// Workers is p, the number of parallel workers (at least 1).
	Workers int
	// TTL is the straggler threshold: a unit that has spent more than TTL
	// matching and checking is split, and its untried branches go back to
	// the pool as units of their own (Section V-B, unit splitting). TTL <= 0
	// never splits — the paper's ParSat_nb / ParImp_nb series.
	TTL time.Duration
	// Ctx, when non-nil, cancels the run cooperatively: workers check it at
	// unit boundaries, idle workers blocked on the steal condition variable
	// are woken, and in-flight match enumerations stop within a bounded
	// number of frame expansions (match.Options.Ctx). A cancelled run
	// returns the stats of the work it finished plus ErrCanceled (or
	// context.DeadlineExceeded when a deadline fired) in the result's Err
	// field; it never leaks a goroutine. Nil runs without cancellation.
	Ctx context.Context
	// testHookUnitStart, when non-nil, runs at the top of every work unit
	// with the group's first member — the seam the panic-isolation tests use
	// to detonate inside a worker.
	testHookUnitStart func(gfd int)
}

// DefaultParOptions returns the configuration used by the experiments
// unless stated otherwise.
func DefaultParOptions(workers int) ParOptions {
	return ParOptions{Workers: workers, TTL: 100 * time.Millisecond}
}

// unit is a work unit of one pattern group (Section V-B): a consecutive,
// ascending range of at most unitRoots of the group's pivot candidates, or,
// once split off a straggler, one partial match to complete. The candidates
// are the pivot's G_Σ scope for ParSat and its label-index candidates on
// G^X_Q for ParImp. Units are per pattern group, not per GFD: one enumeration
// of the group's pattern serves every member rule, with the per-GFD
// conclusions fanned out at enforcement time (handleMatch).
type unit struct {
	grp   int              // index into parEngine.groups
	roots []graph.NodeID   // the range; nil for a split-off unit
	seed  match.Assignment // the partial match of a split-off unit
}

// unitRoots is the most pivot candidates one unit roots its search in. A
// unit pays a pool take, a catch-up and a search set-up; at one candidate
// per unit those costs rivalled the matching itself (2.8 matches per unit on
// the sat-dbpedia Σ). Cuts of 16 to 128 and whole groups measured the same
// (DESIGN.md, "Work units"); a short cut keeps the pool able to balance.
const unitRoots = 64

// halt is a run's answer-bearing early termination — a conflict (UNSAT, or
// implication by conflict) or the implication goal — as opposed to a failure.
// The worker that finds it returns it from its task, so it travels through
// the pool's first-failure-wins slot: siblings stop, and a conflict found
// before a cancellation is still the legitimate answer.
type halt struct {
	con  *eq.Conflict
	goal bool
}

func (h *halt) Error() string { return "core: run halted with an answer" }

// parEngine runs the worker protocol shared by ParSat and ParImp. The
// canonical graph is replicated conceptually at each worker; being immutable
// it is shared read-only. Each worker owns an Eq replica and a pending
// index; deltas are exchanged through a cluster.Log. Every fan-out — the
// planning pass, the work phase, each finalize round — runs on the
// package's worker pool (pool.go).
type parEngine struct {
	opt ParOptions
	set *gfd.Set
	g   graph.Reader
	// baseEq is what every worker's replica starts as a Clone of: empty for
	// satisfiability, Eq_X for implication.
	baseEq *eq.Eq
	goal   func(*eq.Eq) bool // nil for satisfiability; Y ⊆ Eq_H for implication
	high   func(int) bool    // GFD indexes with the highest unit priority
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
	units  []unit

	ctx  context.Context // never nil: Background when ParOptions.Ctx is nil
	log  *cluster.Log
	pool *pool[unit] // the work phase's pool; sized once, here, for all phases

	// testHookGroupPlan, when non-nil, runs before each group is planned —
	// the seam the cancellation tests use to observe and interrupt the
	// planning pass (kept off ParOptions: it is engine plumbing, not an
	// option).
	testHookGroupPlan func(grp int)
}

func newParEngine(opt ParOptions, set *gfd.Set, g graph.Reader, baseEq *eq.Eq) *parEngine {
	pl := newPool[unit](opt.Ctx, opt.Workers)
	return &parEngine{opt: opt, set: set, g: g, baseEq: baseEq, ctx: pl.ctx, log: cluster.NewLog(), pool: pl}
}

// buildUnits enumerates the work units of Σ on g. GFDs with structurally
// equal patterns share one group — one plan, one set of units — and their
// X → Y conclusions fan out per match in handleMatch. Each group's pivot is
// the plan pivot with the fewest candidates, and its candidate list is cut
// into ascending ranges of at most unitRoots (appendRanges). A non-nil error
// is the planning pass's cancellation or panic; no unit has run then.
func (e *parEngine) buildUnits() error {
	e.groups = e.set.Groups()
	n := len(e.groups)
	for _, grp := range e.groups {
		if len(grp.Members) > 1 {
			e.sharedGroups++
		}
	}
	e.orders = make([][]pattern.Var, n)
	e.plans = make([]*match.Plan, n)
	roots := make([][]graph.NodeID, n)
	// Planning and pivot choice are per-group independent; doing them
	// serially would be a p-independent startup phase capping the speedup
	// (Amdahl), so they are spread over the same p workers and only the
	// cutting below is serial. The context is polled between groups: a
	// deadline must not wait the pass out.
	err := newPool[int](e.ctx, e.pool.size()).run(indexes(n), func(_, i int) error {
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
				return nil // no copy of Σ hosts it: no units
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
			if k == 0 || len(cands) < len(roots[i]) {
				roots[i], e.orders[i] = cands, plan.OrderFor(pv)
			}
		}
		e.plans[i] = plan
		return nil
	})
	if err != nil {
		return err
	}
	// Units are emitted in dependency order, group by group, so the pool's
	// striping hands every worker its highest-priority share first.
	for _, i := range e.groupOrder() {
		e.units = appendRanges(e.units, i, roots[i], unitRoots)
	}
	return nil
}

// appendRanges appends group grp's units to units: roots cut into
// consecutive ranges of at most size candidates, in order. Roots are
// ascending, so every range is, and a worker that runs a group's units in
// order enumerates what one search over all of roots would, in that order.
func appendRanges(units []unit, grp int, roots []graph.NodeID, size int) []unit {
	for lo := 0; lo < len(roots); lo += size {
		hi := min(lo+size, len(roots))
		units = append(units, unit{grp: grp, roots: roots[lo:hi:hi]})
	}
	return units
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

// run executes the protocol and returns the first conflict (satisfiability
// failure / implication success), whether the goal was reached (implication
// by deduction), the converged relation (quiescent runs only; nil after
// early termination), and aggregate stats. A non-nil error means the run
// ended without an answer — cancellation (ErrCanceled or the context's
// deadline error) or a worker panic (*PanicError) — with stats covering the
// work completed up to that point.
//
// The paper's coordinator queue W is realised by the pool: the units, in
// dependency order, are striped across the per-worker deques, so every deque
// front holds its worker's highest-priority share and the blended execution
// order approximates one global priority queue; TTL-split straggler branches
// go onto the splitter's own deque front — local, immediately runnable, and
// stealable by an idle peer. Once every unit has retired, finalize rounds run
// as fork/join phases on the same kind of pool.
func (e *parEngine) run() (con *eq.Conflict, goalHit bool, final *eq.Eq, stats Stats, err error) {
	if err := e.buildUnits(); err != nil {
		return nil, false, nil, Stats{}, err
	}
	workers := make([]*parWorker, e.pool.size())
	for i := range workers {
		workers[i] = newParWorker(i, e)
	}
	err = e.pool.run(e.units, func(id int, u unit) error {
		workers[id].runUnit(u)
		return workers[id].halted
	})
	if err == nil {
		final, err = e.finalize(workers)
	}
	for i, w := range workers {
		w.enf.stats.UnitsStolen = e.pool.stolen[i]
		stats.Add(w.enf.stats)
	}
	stats.Broadcasts = e.log.Appends()
	stats.DeltaOps = e.log.Len()
	stats.GroupsShared = e.sharedGroups
	var h *halt
	if errors.As(err, &h) {
		return h.con, h.goal, nil, stats, nil
	}
	return nil, false, final, stats, err
}

// finalize runs rounds of one task per Eq replica — apply the whole
// broadcast log, drain, broadcast what fired — until a round leaves the log
// unchanged. Every replica has then applied the whole log, so worker 0's
// relation is the converged global Eq. Each round is bounded by Eq's
// monotone growth over a finite term set.
func (e *parEngine) finalize(workers []*parWorker) (*eq.Eq, error) {
	ids := indexes(len(workers))
	rounds := newPool[int](e.ctx, len(workers))
	for {
		base := e.log.Len()
		err := rounds.run(ids, func(_, i int) error {
			workers[i].finalize()
			return workers[i].halted
		})
		if err != nil {
			return nil, err
		}
		if e.log.Len() == base {
			return workers[0].enf.eq, nil
		}
	}
}

// parWorker is one worker P_i: an Eq replica, a pending index, and a cursor
// into the broadcast log. halted is set (once) when this replica reached a
// conflict or the goal; the task in progress then winds down and returns it.
type parWorker struct {
	id     int
	eng    *parEngine
	enf    *enforcer
	cursor int
	halted error
}

func newParWorker(id int, eng *parEngine) *parWorker {
	replica := eng.baseEq.Clone()
	if eng.pool.size() == 1 {
		// A lone worker has no peer to tell: no delta is recorded, the
		// broadcast log stays empty, and catchUp never finds news.
		replica.StopLogging()
	}
	return &parWorker{id: id, eng: eng, enf: newEnforcer(replica, eng.set)}
}

// conflicted records the replica's conflict as the worker's halt and
// reports false, the "stop" value of the methods below.
func (w *parWorker) conflicted() bool {
	w.halted = &halt{con: w.enf.conflict()}
	return false
}

// catchUp applies the broadcast log tail and drains re-checks; it reports
// false when a conflict or the goal emerged.
func (w *parWorker) catchUp() bool {
	if w.eng.log.Len() <= w.cursor {
		return true
	}
	tail, cur := w.eng.log.ReadFrom(w.cursor)
	w.cursor = cur
	if !w.enf.applyRemote(tail) {
		return w.conflicted()
	}
	return w.checkGoal()
}

// broadcast publishes the local delta, if any. When nothing from a peer
// landed in the log since this worker last read it, the cursor moves past the
// worker's own ops: its replica produced them and need not replay them.
func (w *parWorker) broadcast() {
	d := w.enf.eq.Logged()
	if len(d) == 0 {
		return
	}
	if n := w.eng.log.Append(d); n-len(d) == w.cursor {
		w.cursor = n
	}
	w.enf.eq.ResetLog() // Append copied the ops
}

func (w *parWorker) checkGoal() bool {
	if w.eng.goal != nil && w.eng.goal(w.enf.eq) {
		w.broadcast()
		w.halted = &halt{goal: true}
		return false
	}
	return true
}

// finalize applies the whole log and drains until locally stable,
// broadcasting anything new that fires.
func (w *parWorker) finalize() {
	for {
		before := w.cursor
		if !w.catchUp() {
			return
		}
		w.broadcast()
		if w.cursor == before && w.eng.log.Len() <= w.cursor {
			return
		}
	}
}

// runUnit executes one work unit: matching with TTL splitting, enforcing
// every member GFD of the unit's pattern group at each match. Matching and
// checking alternate on the worker's own goroutine: each match is enforced
// as soon as it is found (so a conflict or the goal stops the unit
// mid-enumeration), and the parallelism is across units.
func (w *parWorker) runUnit(u unit) {
	w.enf.stats.UnitsRun++
	eng := w.eng
	if h := eng.opt.testHookUnitStart; h != nil {
		// The hook's GFD index is the group's representative member, so
		// existing per-GFD test hooks keep firing on meaningful indexes.
		h(eng.groups[u.grp].Members[0])
	}
	if !w.catchUp() {
		return
	}
	s := eng.search(u)
	var split []match.Assignment
	start := time.Now()
	for {
		if eng.pool.stopping() {
			return
		}
		if eng.opt.TTL > 0 && time.Since(start) > eng.opt.TTL {
			split = append(split, s.Split()...)
			start = time.Now()
		}
		h, ok := s.Next()
		if !ok {
			break
		}
		if !w.handleMatch(u.grp, h) {
			return
		}
	}
	w.emitSplits(u, split)
}

// search returns unit u's enumeration, in its group's pivot order: rooted in
// u's range of pivot candidates, or completing u's partial match. No
// d_Q-neighborhood restriction is needed: every later variable's candidates
// are generated from an assigned neighbor's adjacency, so the search never
// leaves the root's neighborhood, and the root frame's signature pruning
// drops the candidates that cannot cover the pivot's edges. The run's
// context rides into the enumeration so even one huge unit stops within a
// bounded number of frame expansions after cancellation.
func (e *parEngine) search(u unit) *match.Search {
	return match.NewSearch(e.groups[u.grp].Pattern, e.g, match.Options{
		Order: e.orders[u.grp], Seed: u.seed, RootCandidates: u.roots, Plan: e.plans[u.grp], Ctx: e.opt.Ctx,
	})
}

// handleMatch offers h to every member GFD of pattern group grp — this is
// where shared enumeration fans out into per-rule conclusions — then drains
// once and performs the broadcast/catch-up cycle. The fixpoint is
// order-independent (Church–Rosser), so offering the members back-to-back
// instead of in separate per-GFD runs changes nothing about the answer.
// It reports false when the run must stop (conflict or goal).
func (w *parWorker) handleMatch(grp int, h match.Assignment) bool {
	members := w.eng.groups[grp].Members
	for _, mi := range members {
		if !w.enf.offer(mi, h) {
			return w.conflicted()
		}
	}
	if !w.enf.drain() {
		return w.conflicted()
	}
	w.enf.stats.MatchesReused += len(members) - 1
	w.broadcast()
	if !w.checkGoal() {
		return false
	}
	return w.catchUp()
}

func (w *parWorker) emitSplits(u unit, seeds []match.Assignment) {
	if len(seeds) == 0 || w.eng.pool.stopping() {
		return
	}
	units := make([]unit, len(seeds))
	for i, sd := range seeds {
		units[i] = unit{grp: u.grp, seed: sd}
	}
	w.enf.stats.UnitsSplit += len(units)
	// Split branches stay on the splitter's own deque: runnable immediately,
	// stealable by idle peers.
	w.eng.pool.push(w.id, units)
}
