// Package core implements the paper's primary contribution: sequential and
// parallel algorithms for the satisfiability (SeqSat/ParSat, Sections IV–V)
// and implication (SeqImp/ParImp, Section VI) analyses of graph functional
// dependencies.
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
	Matches      int // matches enumerated
	Enforcements int // matches whose antecedent held and consequent was enforced
	Rechecks     int // pending matches re-examined after Eq changes
	Pending      int // matches parked in the inverted index
	Dropped      int // matches whose antecedent became permanently false
	UnitsRun     int // work units executed (parallel runs)
	UnitsSplit   int // sub-units produced by straggler splitting
	UnitsStolen  int // units taken from another worker's deque
	Broadcasts   int // delta broadcasts between workers
	DeltaOps     int // total Eq operations shipped in broadcasts
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
	s.UnitsSplit += other.UnitsSplit
	s.UnitsStolen += other.UnitsStolen
	s.Broadcasts += other.Broadcasts
	s.DeltaOps += other.DeltaOps
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
// match.
type rule struct {
	x, y     []canon.Lit
	resolved bool
}

// pendingMatch is a match whose antecedent was blocked when first seen; it
// sits in the inverted index until a relevant Eq class changes (Section
// IV-C(b)).
type pendingMatch struct {
	r    *rule
	h    match.Assignment
	done bool
}

// pendingRef is one entry of a term's list in the inverted index: the parked
// match (an index into enforcer.parked) and the next entry of the same list
// (1 + its index into enforcer.refs; 0 ends the list). The lists are threaded
// through one slice so that filing a match under a term allocates nothing of
// its own.
type pendingRef struct {
	pm, next int32
}

// pendingList is a term's list: 1 + the indexes of its first and last
// pendingRef, 0 when empty. Entries are appended at the tail, so a term's
// matches are re-checked in the order they were parked.
type pendingList struct {
	head, tail int32
}

// enforcer owns one replica of the reasoning state: the equivalence
// relation Eq plus the inverted pending index. The sequential algorithms use
// a single enforcer; each parallel worker owns one and exchanges eq.Deltas.
// It runs on the relation's ID surface throughout: literals arrive resolved,
// terms are handles, and the index and the re-check queue are slices over
// handles.
type enforcer struct {
	eq  *eq.Eq
	set *gfd.Set
	// rules[i] is set.GFDs[i] resolved against eq, on the rule's first match:
	// once per run and replica for the rules that have matches, nothing for
	// the rest — an implication run on a six-node G^X_Q matches few of Σ's
	// patterns, and resolving all of Σ up front would show in its start-up.
	rules []rule
	// pending[t] lists the blocked matches whose antecedent mentions the
	// term with handle t. Filing a match allocates the handle but not the
	// class: an antecedent over a term nobody created stays blocked.
	pending []pendingList
	refs    []pendingRef
	parked  []pendingMatch
	// arena is the chunk the copies of parked matches are carved from.
	arena []graph.NodeID
	stats Stats
	// queue[qhead:] holds handles whose classes changed and whose pending
	// matches have not been revisited yet.
	queue []eq.Handle
	qhead int
}

// newEnforcer returns an enforcer of Σ over relation e.
func newEnforcer(e *eq.Eq, set *gfd.Set) *enforcer {
	return &enforcer{eq: e, set: set, rules: make([]rule, set.Len())}
}

// newSeqEnforcer is the enforcer of a sequential run: no delta log, since
// there is no peer to read one.
func newSeqEnforcer(e *eq.Eq, set *gfd.Set) *enforcer {
	e.StopLogging()
	return newEnforcer(e, set)
}

// rule returns Σ's gi-th rule, resolving it on first use.
func (e *enforcer) rule(gi int) *rule {
	r := &e.rules[gi]
	if !r.resolved {
		phi := e.set.GFDs[gi]
		r.x, r.y, r.resolved = canon.ResolveLits(e.eq, phi.X), canon.ResolveLits(e.eq, phi.Y), true
	}
	return r
}

// checkX classifies h |= X under the deduced-satisfaction semantics: a
// constant literal holds iff its class carries exactly that constant; a
// variable literal holds iff the two classes are merged. A constant literal
// whose class carries a different constant can never hold (constants are
// permanent), so the match is dropped. A term whose class does not exist
// blocks its literal, x.A = x.A included.
func (e *enforcer) checkX(r *rule, h match.Assignment) xState {
	state := xHolds
	for i := range r.x {
		l := &r.x[i]
		t := e.eq.Lookup(h[l.X], l.A)
		if l.IsConst() {
			if t == eq.NoHandle {
				state = xBlocked
				continue
			}
			switch e.eq.ConstAt(t) {
			case l.C:
			case eq.NoConst:
				state = xBlocked
			default:
				return xImpossible
			}
			continue
		}
		u := e.eq.Lookup(h[l.Y], l.B)
		if t == eq.NoHandle || u == eq.NoHandle {
			state = xBlocked
			continue
		}
		if e.eq.SameAt(t, u) {
			continue
		}
		// Two classes carrying the same constant are forced equal in every
		// population even without a merge; distinct constants can never
		// become equal.
		ct, cu := e.eq.ConstAt(t), e.eq.ConstAt(u)
		switch {
		case ct == eq.NoConst || cu == eq.NoConst:
			state = xBlocked
		case ct != cu:
			return xImpossible
		}
	}
	return state
}

// enforceY applies Rules 1 and 2 for every consequent literal at h,
// queueing changed terms for pending re-checks. It returns false as soon as
// Eq conflicts.
func (e *enforcer) enforceY(r *rule, h match.Assignment) bool {
	e.stats.Enforcements++
	for i := range r.y {
		l := &r.y[i]
		t := e.eq.HandleOf(h[l.X], l.A)
		if l.IsConst() {
			e.queue = e.eq.AssignAt(t, l.C, e.queue)
		} else {
			e.queue = e.eq.MergeAt(t, e.eq.HandleOf(h[l.Y], l.B), e.queue)
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
	r := e.rule(gi)
	switch e.checkX(r, h) {
	case xHolds:
		return e.enforceY(r, h)
	case xImpossible:
		e.stats.Dropped++
		return true
	default:
		e.park(r, h)
		return true
	}
}

// parkChunk is the size, in node IDs, of the chunks parked matches are
// copied into: a few hundred matches per allocation.
const parkChunk = 2048

// keep copies h, a search's view, into the arena. A full chunk is left to
// the copies carved from it and a new one started, so nothing moves.
func (e *enforcer) keep(h match.Assignment) match.Assignment {
	if len(h) > cap(e.arena)-len(e.arena) {
		e.arena = make([]graph.NodeID, 0, max(parkChunk, len(h)))
	}
	n := len(e.arena)
	e.arena = append(e.arena, h...)
	return e.arena[n:len(e.arena):len(e.arena)]
}

// park registers a blocked match in the inverted index under every term its
// antecedent mentions, so any relevant class change triggers a re-check. It
// is the one place an engine keeps a match past the search's next step, so
// it is where the view is copied.
func (e *enforcer) park(r *rule, h match.Assignment) {
	pm := int32(len(e.parked))
	e.parked = append(doubling(e.parked), pendingMatch{r: r, h: e.keep(h)})
	e.stats.Pending++
	for i := range r.x {
		l := &r.x[i]
		t := e.eq.HandleOf(h[l.X], l.A)
		e.file(t, pm)
		if !l.IsConst() {
			if u := e.eq.HandleOf(h[l.Y], l.B); u != t {
				e.file(u, pm)
			}
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

func (e *enforcer) file(t eq.Handle, pm int32) {
	if have := len(e.pending); int(t) >= have {
		// One list per handle allocated so far; at least doubled, like the
		// other run-long slices.
		n := e.eq.NumHandles()
		if n > cap(e.pending) {
			e.pending = slices.Grow(e.pending, max(n-have, have))
		}
		e.pending = e.pending[:n]
	}
	e.refs = append(doubling(e.refs), pendingRef{pm: pm})
	at := int32(len(e.refs))
	if l := &e.pending[t]; l.tail == 0 {
		l.head, l.tail = at, at
	} else {
		e.refs[l.tail-1].next = at
		l.tail = at
	}
}

// drain re-checks pending matches for every queued changed term until the
// queue empties or a conflict arises. Firing a pending match can change more
// classes, which re-queues more terms — the inflationary fixpoint loop.
// It returns false on conflict.
func (e *enforcer) drain() bool {
	for e.qhead < len(e.queue) {
		t := e.queue[e.qhead]
		e.qhead++
		if int(t) >= len(e.pending) {
			continue
		}
		// Walk t's list, unlinking what fires or dies. Nothing parks while
		// draining, so refs and parked do not move under the loop.
		var keep pendingList
		for at := e.pending[t].head; at != 0; {
			ref := &e.refs[at-1]
			cur := at
			at = ref.next
			pm := &e.parked[ref.pm]
			if pm.done {
				continue
			}
			e.stats.Rechecks++
			state := e.checkX(pm.r, pm.h)
			if state == xBlocked {
				if keep.tail == 0 {
					keep.head = cur
				} else {
					e.refs[keep.tail-1].next = cur
				}
				keep.tail = cur
				continue
			}
			r, h := pm.r, pm.h
			pm.done, pm.h = true, nil
			if state == xImpossible {
				e.stats.Dropped++
			} else if !e.enforceY(r, h) {
				return false
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

// applyRemote replays a delta from another worker and drains the pending
// re-checks it triggers. It returns false on conflict.
func (e *enforcer) applyRemote(d eq.Delta) bool {
	e.queue = e.eq.ApplyAppend(d, e.queue)
	if e.eq.Conflicted() != nil {
		return false
	}
	return e.drain()
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
// a fresh relation, stopping at the first conflict. It is the chase of
// SeqSat without the enumeration, which is how the bench harness times the
// enforcement layer by itself. The assignments are read, never written; the
// relation is sized for the nodes they name, as SeqSat's is for G_Σ.
func EnforceMatches(set *gfd.Set, ms []Match) (Stats, *eq.Conflict) {
	e := eq.New()
	for _, m := range ms {
		for _, n := range m.H {
			e.Reserve(int(n) + 1)
		}
	}
	enf := newSeqEnforcer(e, set)
	for _, m := range ms {
		if !enf.offer(m.GFD, m.H) || !enf.drain() {
			break
		}
	}
	return enf.stats, enf.conflict()
}

// CompleteModel materializes a model from a canonical graph and a
// conflict-free Eq (Theorem 1's construction): every class with a constant
// assigns it to all member terms; every class without one receives a fresh
// constant distinct from all others — and from the reserved constants of Σ —
// so no extra equalities or antecedents are accidentally triggered.
func CompleteModel(g *graph.Graph, e *eq.Eq, reserved []string) *graph.Graph {
	m := g.Clone()
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
			m.SetAttr(t.Node, t.Attr, c)
		}
	}
	return m
}

func freshConst(i int) string {
	return "⊤" + strconv.Itoa(i)
}
