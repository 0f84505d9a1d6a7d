package core

import (
	"repro/internal/canon"
	"repro/internal/depgraph"
	"repro/internal/eq"
	"repro/internal/gfd"
	"repro/internal/match"
)

// ImpResult reports the outcome of an implication check Σ |= φ.
type ImpResult struct {
	Implied bool
	// Reason distinguishes how implication was established.
	Reason ImpReason
	Stats  Stats
	// Err is non-nil when a parallel run ended before reaching an answer:
	// ErrCanceled or the context's deadline error after ParOptions.Ctx
	// fired, or a *PanicError when a worker panicked. Implied and Reason
	// are meaningless then; Stats covers the work completed.
	Err error
}

// ImpReason says why Σ |= φ holds (or doesn't).
type ImpReason int

const (
	// NotImplied: the enforcement fixpoint neither conflicted nor deduced Y.
	NotImplied ImpReason = iota
	// ImpliedByDeduction: Y ⊆ Eq_H was deduced (Example 8's ϕ13 case).
	ImpliedByDeduction
	// ImpliedByConflict: Q, X and Σ are inconsistent together, so no match
	// of Q can satisfy X in any model of Σ (Example 8's ϕ14 case).
	ImpliedByConflict
	// ImpliedTrivially: Y is empty or already deducible from X alone, or X
	// itself is inconsistent.
	ImpliedTrivially
)

func (r ImpReason) String() string {
	switch r {
	case ImpliedByDeduction:
		return "consequent deduced"
	case ImpliedByConflict:
		return "antecedent inconsistent with Σ"
	case ImpliedTrivially:
		return "trivially implied"
	default:
		return "not implied"
	}
}

// startImp is the part of an implication check SeqImp and ParImp share: it
// builds G^X_Q, answers the cases that need no chase, and cuts Σ down to Σ′ —
// the GFDs whose pattern labels occur in Q at all (canon.Phi.Applicable).
// G^X_Q is a handful of nodes and the rest of Σ has no match there, so only
// Σ′ is grouped, ordered, simulated, planned and searched. A non-nil result
// is the answer.
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

// SeqImp decides whether Σ |= φ (Section VI-B).
//
// By Corollary 4 it suffices to enforce GFDs of Σ on matches of their
// patterns in the canonical graph G^X_Q of φ, starting from Eq_X, and report
// implication iff the expansion Eq_H conflicts or deduces Y.
func SeqImp(set *gfd.Set, phi *gfd.GFD) *ImpResult {
	cp, set, res := startImp(set, phi)
	if res != nil {
		return res
	}
	enf := newEnforcer(cp.EqX, set)

	check := func() (done bool, res *ImpResult) {
		if enf.conflict() != nil {
			return true, &ImpResult{Implied: true, Reason: ImpliedByConflict, Stats: enf.stats}
		}
		if cp.YDeduced(enf.eq) {
			return true, &ImpResult{Implied: true, Reason: ImpliedByDeduction, Stats: enf.stats}
		}
		return false, nil
	}

	g := cp.Graph.Frozen()
	order := orderForImplication(set, cp)
	for _, gi := range order {
		s := match.NewSearch(set.GFDs[gi].Pattern, g, match.Options{})
		for {
			h, ok := s.Next()
			if !ok {
				break
			}
			// offer/drain only fail on conflict; YDeduced is polled after.
			if !enf.offer(gi, h) || !enf.drain() {
				return &ImpResult{Implied: true, Reason: ImpliedByConflict, Stats: enf.stats}
			}
			if done, res := check(); done {
				return res
			}
		}
	}
	if !enf.drain() {
		return &ImpResult{Implied: true, Reason: ImpliedByConflict, Stats: enf.stats}
	}
	if done, res := check(); done {
		return res
	}
	return &ImpResult{Implied: false, Reason: NotImplied, Stats: enf.stats}
}

// orderForImplication orders Σ like OrderGFDs but gives the highest priority
// to GFDs whose antecedent is subsumed by Eq_X — they fire immediately on
// G^X_Q (Section VI-C(a)). GFDs with empty antecedents qualify trivially.
func orderForImplication(set *gfd.Set, cp *canon.Phi) []int {
	base := depgraph.OrderGFDs(set)
	termsX := cp.EqX.AllTerms()
	front := make([]int, 0, len(base))
	var back []int
	for _, i := range base {
		if xSubsumedByEqX(set.GFDs[i], cp.EqX, termsX) {
			front = append(front, i)
		} else {
			back = append(back, i)
		}
	}
	return append(front, back...)
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
