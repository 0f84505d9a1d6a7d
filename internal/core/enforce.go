// Package core implements the paper's primary contribution: sequential and
// parallel algorithms for the satisfiability (SeqSat/ParSat, Sections IV–V)
// and implication (SeqImp/ParImp, Section VI) analyses of graph functional
// dependencies. The sequential algorithms are the parallel ones on one
// worker.
package core

import (
	"slices"
	"strconv"

	"repro/internal/canon"
	"repro/internal/eq"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
)

// Stats counts the work performed by a reasoning run; the benchmark harness
// reports these alongside wall-clock times.
type Stats struct {
	Matches      int // matches offered to the chase
	Enforcements int // matches whose antecedent held and consequent was enforced
	// Rechecks counts wakes of a watched literal: a parked match re-checked
	// because a handle of the one blocked literal it watches changed.
	Rechecks int
	Pending  int // matches parked in the inverted index
	// Dropped counts matches whose antecedent became permanently false when
	// offered or woken. A literal that becomes impossible behind a watch
	// that is still blocked is not looked at, so its match stays parked and
	// is not counted.
	Dropped int
	// UnitsRun counts the searches a run chased: ParSat's (group, chunk)
	// pieces, at most p per group, and ParImp's units, one per group with
	// pivot candidates.
	UnitsRun int
	// UnitsStolen, UnitsSplit, Broadcasts and DeltaOps are always 0: no
	// worker takes a task from another's share (the pool hands tasks out
	// from one cursor), no engine splits a unit and none ships Eq deltas
	// between workers. They stay only because benchmark/gfdbench reports
	// them.
	UnitsStolen int
	UnitsSplit  int
	Broadcasts  int
	DeltaOps    int
	// GroupsShared counts pattern groups with ≥2 member GFDs: patterns that
	// were enumerated once on behalf of several rules (shared multi-GFD
	// evaluation).
	GroupsShared int
	// MatchesReused counts match deliveries beyond the first per enumerated
	// match: each enumerated match of an m-member group enforces m rules,
	// m−1 of which would have required their own enumeration per-GFD.
	MatchesReused int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Matches += other.Matches
	s.Enforcements += other.Enforcements
	s.Rechecks += other.Rechecks
	s.Pending += other.Pending
	s.Dropped += other.Dropped
	s.UnitsRun += other.UnitsRun
	s.GroupsShared += other.GroupsShared
	s.MatchesReused += other.MatchesReused
}

// xState classifies a match's antecedent under the current Eq.
type xState int

const (
	xHolds      xState = iota // every literal deduced
	xBlocked                  // not deduced yet, but Eq growth may deduce it
	xImpossible               // a constant literal contradicts a fixed constant
)

// rule is one GFD's literals resolved against the name tables of an
// enforcer's relation (canon.ResolveLits): what offer and drain evaluate per
// match. vars is the length of its matches.
type rule struct {
	x, y []canon.Lit
	vars int
}

// pendingMatch is a match whose antecedent was blocked when last checked
// (Section IV-C(b)). It waits in the inverted index under the handles of
// one blocked literal, its watch x[w]; every literal before the watch
// holds, and keeps holding, because Eq only grows. The record holds no
// pointer: the rule is Σ's index gi, and the assignment is the copy at
// offset at of the enforcer's arena.
type pendingMatch struct {
	gi, at int32
	// w is the watched literal, or done once the match fired or died. It
	// only moves forward, so it doubles as the generation of the match's
	// pendingRefs: a ref filed for another w is stale.
	w int32
}

// done is pendingMatch.w of a match that fired or died: no ref matches it.
const done = -1

// pendingRef is one entry of a term's list in the inverted index: the parked
// match (an index into enforcer.parked), the watch it was filed for, and the
// next entry of the same list (1 + its index into enforcer.refs; 0 ends the
// list). The lists are threaded through one slice so that filing a match
// under a term allocates nothing of its own.
type pendingRef struct {
	pm, w, next int32
}

// pendingList is a term's list: 1 + the indexes of its first and last
// pendingRef, 0 when empty. Entries are appended at the tail, so a term's
// matches are re-checked in the order they were filed.
type pendingList struct {
	head, tail int32
}

// enforcer owns one chase's state: the equivalence relation Eq plus the
// inverted pending index. ParImp runs one over Eq_X. ParSat's workers run
// one each over views of one relation on G_Σ (view), sharing its table and
// the pending index, each chasing the terms of its own chunks. It runs on
// the relation's ID surface throughout: literals arrive resolved, terms are
// handles, and the index and the re-check queue are slices over handles.
type enforcer struct {
	eq *eq.Eq
	// rules[i] is Σ.GFDs[i] resolved against eq. Views share it, read-only.
	rules []rule
	// pending[t] lists the blocked matches whose watched literal mentions
	// the term with handle t: one list per slot of eq's table, allocated
	// once. Filing a match under a handle does not create the class: an
	// antecedent over a term nobody created stays blocked. Views share the
	// array; a list's entries index the refs of the view that chases t.
	pending []pendingList
	refs    []pendingRef
	parked  []pendingMatch
	// arena holds the copies of parked matches, in chunks of parkChunk node
	// IDs that are never grown, so no copy moves.
	arena [][]graph.NodeID
	stats Stats
	// queue[qhead:] holds handles whose classes changed and whose pending
	// matches have not been revisited yet.
	queue []eq.Handle
	qhead int
	// testHookTerm, when non-nil, sees the node of every term the chase
	// reads or writes. ParSat sets it from ParOptions.testHookTerm.
	testHookTerm func(graph.NodeID)
}

// newEnforcer returns an enforcer of Σ over relation e on nodes
// 0 … nodes−1. It resolves every rule of Σ, so e has interned every
// attribute and constant Σ names, and then seals e to those nodes and
// attributes: the chase never grows the table, and the pending index has a
// list for each of its slots from the start. No chase reads a delta, so e
// stops recording its log.
func newEnforcer(e *eq.Eq, set *gfd.Set, nodes int) *enforcer {
	e.StopLogging()
	rules := make([]rule, set.Len())
	for gi, phi := range set.GFDs {
		rules[gi] = rule{x: canon.ResolveLits(e, phi.X), y: canon.ResolveLits(e, phi.Y), vars: phi.Pattern.NumVars()}
	}
	e.Seal(nodes)
	return &enforcer{eq: e, rules: rules, pending: make([]pendingList, e.NumHandles())}
}

// view returns an enforcer over a view of e's relation (eq.Eq.View), with
// e's rules and pending index and a conflict, counters and arena of its
// own. Views run concurrently only on chunks whose terms are disjoint.
func (e *enforcer) view() *enforcer {
	return &enforcer{eq: e.eq.View(), rules: e.rules, pending: e.pending}
}

// lookup returns the class of (n, a), or eq.NoHandle: what the chase
// reads.
func (e *enforcer) lookup(n graph.NodeID, a eq.AttrID) eq.Handle {
	if e.testHookTerm != nil {
		e.testHookTerm(n)
	}
	return e.eq.Lookup(n, a)
}

// handle returns the handle of (n, a): what the chase writes, a class to
// enforce or a list to file a match under.
func (e *enforcer) handle(n graph.NodeID, a eq.AttrID) eq.Handle {
	if e.testHookTerm != nil {
		e.testHookTerm(n)
	}
	return e.eq.HandleOf(n, a)
}

// checkX classifies h |= X from literal from on, and returns the first
// blocked literal. It goes on past that literal to find an impossible one.
func (e *enforcer) checkX(r *rule, h match.Assignment, from int) (state xState, w int) {
	state, w = xHolds, -1
	for i := from; i < len(r.x); i++ {
		switch e.literal(&r.x[i], h) {
		case xImpossible:
			return xImpossible, i
		case xBlocked:
			if state == xHolds {
				state, w = xBlocked, i
			}
		}
	}
	return state, w
}

// literal classifies h |= l under the deduced-satisfaction semantics: a
// constant literal holds iff its class carries exactly that constant; a
// variable literal holds iff the two classes are merged. A constant literal
// whose class carries a different constant can never hold (constants are
// permanent). A term whose class does not exist blocks its literal, x.A =
// x.A included.
func (e *enforcer) literal(l *canon.Lit, h match.Assignment) xState {
	t := e.lookup(h[l.X], l.A)
	if t == eq.NoHandle {
		return xBlocked
	}
	if l.IsConst() {
		switch e.eq.ConstAt(t) {
		case l.C:
			return xHolds
		case eq.NoConst:
			return xBlocked
		}
		return xImpossible
	}
	u := e.lookup(h[l.Y], l.B)
	if u == eq.NoHandle {
		return xBlocked
	}
	if e.eq.SameAt(t, u) {
		return xHolds
	}
	// Two classes carrying the same constant are forced equal in every
	// population even without a merge; distinct constants can never become
	// equal.
	switch ct, cu := e.eq.ConstAt(t), e.eq.ConstAt(u); {
	case ct == eq.NoConst || cu == eq.NoConst:
		return xBlocked
	case ct != cu:
		return xImpossible
	}
	return xHolds
}

// enforceY applies Rules 1 and 2 for every consequent literal at h,
// queueing changed terms for pending re-checks. It returns false as soon as
// Eq conflicts.
func (e *enforcer) enforceY(r *rule, h match.Assignment) bool {
	e.stats.Enforcements++
	for i := range r.y {
		l := &r.y[i]
		t := e.handle(h[l.X], l.A)
		if l.IsConst() {
			e.queue = e.eq.AssignAt(t, l.C, e.queue)
		} else {
			e.queue = e.eq.MergeAt(t, e.handle(h[l.Y], l.B), e.queue)
		}
		if e.eq.Conflicted() != nil {
			return false
		}
	}
	return true
}

// offer processes a freshly enumerated match of GFD gi: fire it, park it, or
// drop it. h may be a search's view (match.Search.Next): it is only read
// here, and a parked match is a copy. It returns false on conflict.
func (e *enforcer) offer(gi int, h match.Assignment) bool {
	e.stats.Matches++
	r := &e.rules[gi]
	switch state, w := e.checkX(r, h, 0); state {
	case xHolds:
		return e.enforceY(r, h)
	case xImpossible:
		e.stats.Dropped++
		return true
	default:
		e.park(gi, r, h, w)
		return true
	}
}

// parkChunk is the size, in node IDs, of the chunks parked matches are
// copied into: a few hundred matches per allocation.
const parkChunk = 2048

// keep copies h, a search's view, into the arena and returns the copy's
// offset: chunk index × parkChunk + position in the chunk. A copy that does
// not fit the last chunk starts a new one; a match longer than parkChunk
// gets a chunk of its own, at position 0.
func (e *enforcer) keep(h match.Assignment) int32 {
	c := len(e.arena) - 1
	if c < 0 || len(h) > cap(e.arena[c])-len(e.arena[c]) {
		e.arena = append(e.arena, make([]graph.NodeID, 0, max(parkChunk, len(h))))
		c++
	}
	at := c*parkChunk + len(e.arena[c])
	e.arena[c] = append(e.arena[c], h...)
	return int32(at)
}

// copyOf returns the assignment parked match p was copied to.
func (e *enforcer) copyOf(p *pendingMatch) match.Assignment {
	at := int(p.at) % parkChunk
	return e.arena[p.at/parkChunk][at : at+e.rules[p.gi].vars]
}

// park files a blocked match in the inverted index under its first blocked
// literal x[w]. It is the one place an engine keeps a match past the
// search's next step, so it is where the view is copied.
func (e *enforcer) park(gi int, r *rule, h match.Assignment, w int) {
	pm := int32(len(e.parked))
	e.parked = append(doubling(e.parked), pendingMatch{gi: int32(gi), at: e.keep(h), w: int32(w)})
	e.stats.Pending++
	e.watch(pm, int32(w), &r.x[w], h, eq.NoHandle, nil)
}

// watch files match pm, watching literal l = x[w], under l's handles: one
// for a constant literal, both for a variable literal, because a merge
// reports only the absorbed side. A handle equal to walking, the term whose
// list drain is rebuilding into keep, goes onto keep, so the walk does not
// meet it again.
func (e *enforcer) watch(pm, w int32, l *canon.Lit, h match.Assignment, walking eq.Handle, keep *pendingList) {
	t := e.handle(h[l.X], l.A)
	e.file(t, pm, w, walking, keep)
	if !l.IsConst() {
		if u := e.handle(h[l.Y], l.B); u != t {
			e.file(u, pm, w, walking, keep)
		}
	}
}

// doubling returns s with room for one more element, doubling a full
// slice's capacity. The index's slices only ever grow, for the whole run;
// append alone grows a large slice by a quarter at a time and so copies
// several times its final size on the way there.
func doubling[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, max(len(s), 64))
}

// file appends a ref to match pm's watch w to t's list, or to keep when t
// is walking.
func (e *enforcer) file(t eq.Handle, pm, w int32, walking eq.Handle, keep *pendingList) {
	e.refs = append(doubling(e.refs), pendingRef{pm: pm, w: w})
	at := int32(len(e.refs))
	if t == walking {
		e.link(keep, at)
		return
	}
	e.link(&e.pending[t], at)
}

// link appends ref at (1 + its index) to list l.
func (e *enforcer) link(l *pendingList, at int32) {
	if l.tail == 0 {
		l.head = at
	} else {
		e.refs[l.tail-1].next = at
	}
	l.tail = at
}

// drain wakes the matches watching every queued changed term until the
// queue empties or a conflict arises. A woken match is re-checked from its
// watch on, since the literals before it still hold: it stays while the
// watch is blocked, moves its watch to the next blocked literal, dies on an
// impossible one, or fires. Firing can change more classes, which re-queues
// more terms — the inflationary fixpoint loop. It returns false on
// conflict.
func (e *enforcer) drain() bool {
	for e.qhead < len(e.queue) {
		t := e.queue[e.qhead]
		e.qhead++
		// Walk t's list into keep, unlinking what is stale, fires, dies or
		// watches elsewhere now. Nothing parks while draining, so parked
		// does not move under the loop; refs may, so no pointer into it is
		// held.
		var keep pendingList
		for at := e.pending[t].head; at != 0; {
			ref, cur := e.refs[at-1], at
			at = ref.next
			p := &e.parked[ref.pm]
			if ref.w != p.w {
				continue
			}
			e.stats.Rechecks++
			r, h, w := &e.rules[p.gi], e.copyOf(p), int(p.w)
			state := e.literal(&r.x[w], h)
			if state == xHolds {
				state, w = e.checkX(r, h, w+1)
			}
			switch {
			case state == xBlocked && w == int(p.w):
				e.link(&keep, cur)
			case state == xBlocked:
				p.w = int32(w)
				e.watch(ref.pm, p.w, &r.x[w], h, t, &keep)
			case state == xImpossible:
				p.w = done
				e.stats.Dropped++
			default:
				p.w = done
				if !e.enforceY(r, h) {
					return false
				}
			}
		}
		if keep.tail != 0 {
			e.refs[keep.tail-1].next = 0
		}
		e.pending[t] = keep
	}
	e.queue, e.qhead = e.queue[:0], 0
	return true
}

// conflict returns the recorded conflict, if any.
func (e *enforcer) conflict() *eq.Conflict { return e.eq.Conflicted() }

// Match is one enumerated match of Σ.GFDs[GFD]: the chase's unit of input.
type Match struct {
	GFD int
	H   match.Assignment
}

// EnforceMatches runs the enforcement fixpoint over matches that were
// enumerated beforehand, in the order given — offer then drain per match, on
// a fresh relation, stopping at the first conflict. It is the chase of a
// ParSat worker without the enumeration, which is how the bench harness
// times the enforcement layer by itself. The assignments are read, never
// written; the relation is sealed to the nodes they name, as ParSat's is to
// G_Σ's.
func EnforceMatches(set *gfd.Set, ms []Match) (Stats, *eq.Conflict) {
	enf := enforceMatches(set, ms)
	return enf.stats, enf.conflict()
}

// enforceMatches is EnforceMatches returning the enforcer, relation and
// index included.
func enforceMatches(set *gfd.Set, ms []Match) *enforcer {
	nodes := 0
	for _, m := range ms {
		for _, n := range m.H {
			nodes = max(nodes, int(n)+1)
		}
	}
	enf := newEnforcer(eq.New(), set, nodes)
	for _, m := range ms {
		if !enf.offer(m.GFD, m.H) || !enf.drain() {
			break
		}
	}
	return enf
}

// CompleteModel materializes a model from a canonical graph and a
// conflict-free relation over its terms (Theorem 1's construction): every
// class with a constant assigns it to all member terms; every class without
// one receives a fresh constant distinct from all others — and from the
// reserved constants of Σ — so no extra equalities or antecedents are
// accidentally triggered. The model is g with those values written in: one
// batch of SetAttr edits in a graph.Delta over g, refrozen.
func CompleteModel(g *graph.Frozen, e *eq.Eq, reserved []string) *graph.Frozen {
	d := graph.NewDelta(g)
	fresh := 0
	seen := make(map[string]bool)
	for _, c := range e.AllConsts() {
		seen[c] = true
	}
	for _, c := range reserved {
		seen[c] = true
	}
	// One pass over the handles, a class handled at its first member: done
	// marks the rest of its ring.
	done := make([]bool, e.NumHandles())
	for i := range done {
		h := eq.Handle(i)
		if done[h] || !e.HasAt(h) {
			continue
		}
		var c string
		if id := e.ConstAt(h); id != eq.NoConst {
			c = e.ConstName(id)
		} else {
			// Bounded by construction: seen is finite, fresh only grows.
			for seen[freshConst(fresh)] {
				fresh++
			}
			c = freshConst(fresh)
			fresh++
			seen[c] = true
		}
		for u := h; !done[u]; u = e.Next(u) {
			done[u] = true
			t := e.TermAt(u)
			d.SetAttr(t.Node, t.Attr, c)
		}
	}
	return g.Refreeze(d)
}

func freshConst(i int) string {
	return "⊤" + strconv.Itoa(i)
}
