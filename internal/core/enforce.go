// Package core implements the paper's primary contribution: sequential and
// parallel algorithms for the satisfiability (SeqSat/ParSat, Sections IV–V)
// and implication (SeqImp/ParImp, Section VI) analyses of graph functional
// dependencies.
package core

import (
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

// pendingMatch is a match whose antecedent was blocked when first seen; it
// sits in the inverted index until a relevant Eq class changes (Section
// IV-C(b)).
type pendingMatch struct {
	phi  *gfd.GFD
	h    match.Assignment
	done bool
}

// enforcer owns one replica of the reasoning state: the equivalence
// relation Eq plus the inverted pending index. The sequential algorithms use
// a single enforcer; each parallel worker owns one and exchanges eq.Deltas.
type enforcer struct {
	eq      *eq.Eq
	pending map[eq.Term][]*pendingMatch
	stats   Stats
	// recheckQueue holds terms whose classes changed and whose pending
	// matches have not been revisited yet.
	recheckQueue []eq.Term
}

func newEnforcer(base *eq.Eq) *enforcer {
	if base == nil {
		base = eq.New()
	}
	return &enforcer{eq: base, pending: make(map[eq.Term][]*pendingMatch)}
}

// termOf converts a literal side to an Eq term under match h.
func termOf(h match.Assignment, x gfd.Literal) (eq.Term, eq.Term) {
	t := eq.Term{Node: h[x.X], Attr: x.A}
	if x.Kind == gfd.VarLiteral {
		return t, eq.Term{Node: h[x.Y], Attr: x.B}
	}
	return t, eq.Term{}
}

// checkX classifies h |= X under the deduced-satisfaction semantics: a
// constant literal holds iff its class carries exactly that constant; a
// variable literal holds iff the two classes are merged. A constant literal
// whose class carries a different constant can never hold (constants are
// permanent), so the match is dropped.
func (e *enforcer) checkX(phi *gfd.GFD, h match.Assignment) xState {
	state := xHolds
	for _, l := range phi.X {
		switch l.Kind {
		case gfd.ConstLiteral:
			t, _ := termOf(h, l)
			c, ok := e.eq.Const(t)
			switch {
			case !ok:
				state = maxState(state, xBlocked)
			case c != l.Const:
				return xImpossible
			}
		case gfd.VarLiteral:
			t, u := termOf(h, l)
			if !e.eq.Same(t, u) {
				// Two classes carrying the same constant are forced equal in
				// every population even without a merge; distinct constants
				// can never become equal.
				ct, okT := e.eq.Const(t)
				cu, okU := e.eq.Const(u)
				switch {
				case okT && okU && ct != cu:
					return xImpossible
				case okT && okU: // equal constants: literal holds
				default:
					state = maxState(state, xBlocked)
				}
			}
		}
	}
	return state
}

func maxState(a, b xState) xState {
	if b > a {
		return b
	}
	return a
}

// enforceY applies Rules 1 and 2 for every consequent literal at h,
// queueing changed terms for pending re-checks. It returns false as soon as
// Eq conflicts.
func (e *enforcer) enforceY(phi *gfd.GFD, h match.Assignment) bool {
	e.stats.Enforcements++
	for _, l := range phi.Y {
		var changed []eq.Term
		switch l.Kind {
		case gfd.ConstLiteral:
			t, _ := termOf(h, l)
			changed = e.eq.AssignConst(t, l.Const)
		case gfd.VarLiteral:
			t, u := termOf(h, l)
			changed = e.eq.Merge(t, u)
		}
		e.recheckQueue = append(e.recheckQueue, changed...)
		if e.eq.Conflicted() != nil {
			return false
		}
	}
	return true
}

// offer processes a freshly enumerated match: fire it, park it, or drop it.
// It returns false on conflict.
func (e *enforcer) offer(phi *gfd.GFD, h match.Assignment) bool {
	e.stats.Matches++
	switch e.checkX(phi, h) {
	case xHolds:
		return e.enforceY(phi, h)
	case xImpossible:
		e.stats.Dropped++
		return true
	default:
		e.park(phi, h)
		return true
	}
}

// park registers a blocked match in the inverted index under every term its
// antecedent mentions, so any relevant class change triggers a re-check.
func (e *enforcer) park(phi *gfd.GFD, h match.Assignment) {
	pm := &pendingMatch{phi: phi, h: h}
	e.stats.Pending++
	for _, l := range phi.X {
		t, u := termOf(h, l)
		e.pending[t] = append(e.pending[t], pm)
		if l.Kind == gfd.VarLiteral {
			e.pending[u] = append(e.pending[u], pm)
		}
	}
}

// drain re-checks pending matches for every queued changed term until the
// queue empties or a conflict arises. Firing a pending match can change more
// classes, which re-queues more terms — the inflationary fixpoint loop.
// It returns false on conflict.
func (e *enforcer) drain() bool {
	for len(e.recheckQueue) > 0 {
		t := e.recheckQueue[0]
		e.recheckQueue = e.recheckQueue[1:]
		list := e.pending[t]
		if len(list) == 0 {
			continue
		}
		keep := list[:0]
		for _, pm := range list {
			if pm.done {
				continue
			}
			e.stats.Rechecks++
			switch e.checkX(pm.phi, pm.h) {
			case xHolds:
				pm.done = true
				if !e.enforceY(pm.phi, pm.h) {
					return false
				}
			case xImpossible:
				pm.done = true
				e.stats.Dropped++
			default:
				keep = append(keep, pm)
			}
		}
		e.pending[t] = keep
	}
	return true
}

// applyRemote replays a delta from another worker and drains the pending
// re-checks it triggers. It returns false on conflict.
func (e *enforcer) applyRemote(d eq.Delta) bool {
	changed := e.eq.Apply(d)
	e.recheckQueue = append(e.recheckQueue, changed...)
	if e.eq.Conflicted() != nil {
		return false
	}
	return e.drain()
}

// conflict returns the recorded conflict, if any.
func (e *enforcer) conflict() *eq.Conflict { return e.eq.Conflicted() }

// CompleteModel materializes a model from a canonical graph and a
// conflict-free Eq (Theorem 1's construction): every class with a constant
// assigns it to all member terms; every class without one receives a fresh
// constant distinct from all others — and from the reserved constants of Σ —
// so no extra equalities or antecedents are accidentally triggered.
func CompleteModel(g *graph.Graph, e *eq.Eq, reserved []string) *graph.Graph {
	m := g.Clone()
	fresh := 0
	assigned := make(map[eq.Term]bool)
	seen := make(map[string]bool)
	for _, c := range e.AllConsts() {
		seen[c] = true
	}
	for _, c := range reserved {
		seen[c] = true
	}
	for _, t := range e.AllTerms() {
		if assigned[t] {
			continue
		}
		mem := e.Members(t)
		c, ok := e.Const(t)
		if !ok {
			// Bounded by construction: seen is finite, fresh only grows.
			for seen[freshConst(fresh)] {
				fresh++
			}
			c = freshConst(fresh)
			fresh++
		}
		seen[c] = true
		for _, u := range mem {
			assigned[u] = true
			m.SetAttr(u.Node, u.Attr, c)
		}
	}
	return m
}

func freshConst(i int) string {
	return "⊤" + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	p := len(b)
	for i > 0 {
		p--
		b[p] = byte('0' + i%10)
		i /= 10
	}
	return string(b[p:])
}
