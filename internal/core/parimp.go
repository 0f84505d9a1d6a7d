package core

import (
	"errors"
	"sync"

	"repro/internal/canon"
	"repro/internal/eq"
	"repro/internal/gfd"
	"repro/internal/graph"
)

// ParImp decides Σ |= φ with p parallel workers (Section VI-C). G^X_Q is one
// copy, so ParSat's partition of the chase does not apply: any match may
// touch any term. What is divided is matching. The pool's workers enumerate
// work units — one per pattern group with pivot candidates, rooted in all of
// them, groups in dependency order with the GFDs whose antecedent Eq_X
// subsumes first (Section VI-C(a)) — into per-unit match buffers, and one
// chase on Eq_X consumes the buffers in unit order. It stops the pool when
// Eq_H conflicts (the antecedent is inconsistent with Σ) or deduces Y.
// Since the chase takes the units in order, the answer and every stat are
// independent of the schedule. SeqImp is ParImp on one worker. It runs on
// Σ′ (startImp), and an empty Σ′ is answered before a worker exists.
func ParImp(set *gfd.Set, phi *gfd.GFD, opt ParOptions) *ImpResult {
	cp, set, res := startImp(set, phi)
	if res != nil {
		return res
	}
	eng := newParEngine(opt, set, cp.Graph.Frozen())
	termsX := cp.EqX.AllTerms()
	eng.high = func(gi int) bool { return xSubsumedByEqX(set.GFDs[gi], cp.EqX, termsX) }
	return eng.imp(cp)
}

// startImp is the start of ParImp: it builds G^X_Q, answers the cases that
// need no chase, and cuts Σ down to Σ′ — the GFDs whose pattern labels occur
// in Q at all (canon.Phi.Applicable). G^X_Q is a handful of nodes and the
// rest of Σ has no match there, so only Σ′ is grouped, ordered, planned and
// searched. A non-nil result is the answer.
func startImp(set *gfd.Set, phi *gfd.GFD) (*canon.Phi, *gfd.Set, *ImpResult) {
	cp := canon.BuildPhi(phi)
	// X inconsistent on its own (no match ever satisfies X), or Y already
	// deducible from X (includes empty Y).
	if cp.EqX.Conflicted() != nil || cp.YDeduced(cp.EqX) {
		return nil, nil, &ImpResult{Implied: true, Reason: ImpliedTrivially}
	}
	set = cp.Applicable(set)
	if set.Len() == 0 {
		return nil, nil, &ImpResult{Reason: NotImplied}
	}
	return cp, set, nil
}

// errDeduced is the chase's report that Eq_H deduces Y. Like a conflict
// (an *eq.Conflict), it is an answer, not a failure: it takes the pool's
// first-failure slot, so the workers stop, and one found before a
// cancellation still answers the run.
var errDeduced = errors.New("core: consequent deduced")

// imp runs ParImp on e, the planned engine of G^X_Q.
//
// The chase has no goroutine of its own. The worker that completes the unit
// next in order takes the chase over, under mu, and chases every buffer that
// is complete from there on; a worker that completes a later unit leaves its
// buffer to whoever is chasing or will chase. So one chase runs at a time, in
// unit order, and nobody waits for a unit: handing each unit to a chase
// goroutine waiting for it measured ≈3 % slower on imp-batch end to end
// (DESIGN.md, "Work units"). A panic in the chase is a worker's panic, a
// *PanicError.
func (e *parEngine) imp(cp *canon.Phi) *ImpResult {
	if err := e.planGroups(); err != nil {
		return &ImpResult{Err: err}
	}
	var units []unit
	for _, gi := range e.groupOrder() {
		if len(e.roots[gi]) > 0 {
			units = append(units, unit{grp: gi, roots: e.roots[gi]})
		}
	}
	enf := newEnforcer(cp.EqX, e.set)
	// chase consumes unit i's matches, back to back in buf.
	chase := func(i int, buf []graph.NodeID) error {
		if h := e.testHookChase; h != nil {
			h(i)
		}
		enf.stats.UnitsRun++
		grp := units[i].grp
		n := e.groups[grp].Pattern.NumVars()
		for at := 0; at < len(buf); at += n {
			if !e.chaseMatch(enf, grp, buf[at:at+n:at+n]) {
				return enf.conflict()
			}
			if cp.YDeduced(enf.eq) {
				return errDeduced
			}
		}
		return nil
	}

	var (
		mu      sync.Mutex
		bufs    = make([][]graph.NodeID, len(units)) // set once unit i is complete
		done    = make([]bool, len(units))
		next    int  // the first unit not chased yet
		chasing bool // some worker is chasing
	)
	pl := newPool(e.ctx, e.opt.Workers)
	err := pl.run(len(units), func(_, i int) error {
		var buf []graph.NodeID
		s := e.search(units[i])
		for h, ok := s.Next(); ok; h, ok = s.Next() {
			if pl.stopping() {
				return nil
			}
			buf = append(buf, h...)
		}
		if err := s.Err(); err != nil {
			return canceledErr(err) // a cut-short buffer must not be chased
		}
		mu.Lock()
		bufs[i], done[i] = buf, true
		if chasing {
			mu.Unlock()
			return nil
		}
		chasing = true
		for next < len(units) && done[next] && !pl.stopping() {
			k, buf := next, bufs[next]
			mu.Unlock()
			if err := chase(k, buf); err != nil {
				return err
			}
			mu.Lock()
			bufs[k] = nil
			next++
		}
		chasing = false
		mu.Unlock()
		return nil
	})
	stats := enf.stats
	stats.GroupsShared = e.sharedGroups
	var con *eq.Conflict
	switch {
	case errors.As(err, &con):
		return &ImpResult{Implied: true, Reason: ImpliedByConflict, Stats: stats}
	case errors.Is(err, errDeduced):
		return &ImpResult{Implied: true, Reason: ImpliedByDeduction, Stats: stats}
	case err != nil:
		return &ImpResult{Err: err, Stats: stats}
	}
	return &ImpResult{Reason: NotImplied, Stats: stats}
}

// xSubsumedByEqX approximates "X subsumes X_ψ": every antecedent literal of
// ψ is deducible from Eq_X under some assignment — tested attribute-wise
// over termsX, the terms of Eq_X (a constant literal needs some Eq_X class
// with that constant on the same attribute; a variable literal needs a class
// containing both attributes or an empty requirement). This is a priority
// heuristic only; correctness does not depend on it. It is asked of every
// GFD of Σ about a relation of a handful of terms, so it compares names and
// resolves nothing.
func xSubsumedByEqX(psi *gfd.GFD, ex *eq.Eq, termsX []eq.Term) bool {
	for _, l := range psi.X {
		ok := false
		for _, t := range termsX {
			if t.Attr != l.A {
				continue
			}
			if l.Kind == gfd.ConstLiteral {
				c, has := ex.Const(t)
				ok = has && c == l.Const
			} else {
				for _, u := range termsX {
					if u.Attr == l.B && u != t && ex.Same(t, u) {
						ok = true
						break
					}
				}
			}
			if ok {
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}
