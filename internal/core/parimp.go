package core

import (
	"repro/internal/eq"
	"repro/internal/gfd"
)

// ParImp decides Σ |= φ with p parallel workers (Section VI-C). Work units
// enforce GFDs of Σ on matches of their patterns in the canonical graph
// G^X_Q, expanding Eq_H replicas in parallel; a worker raises the early
// termination flag when its replica conflicts (antecedent inconsistent with
// Σ) or deduces Y. The outcome equals SeqImp's on every input. Like SeqImp it
// runs on Σ′ (startImp), and an empty Σ′ is answered before a worker exists.
func ParImp(set *gfd.Set, phi *gfd.GFD, opt ParOptions) *ImpResult {
	cp, set, res := startImp(set, phi)
	if res != nil {
		return res
	}
	eng := newParEngine(opt, set, cp.Graph.Frozen(), cp.EqX)
	eng.goal = func(e *eq.Eq) bool { return cp.YDeduced(e) }
	// Highest unit priority for GFDs whose antecedent X_ψ is subsumed by
	// Eq_X — they fire immediately on G^X_Q (Section VI-C(a)).
	termsX := cp.EqX.AllTerms()
	eng.high = func(gi int) bool { return xSubsumedByEqX(set.GFDs[gi], cp.EqX, termsX) }
	con, goalHit, _, stats, err := eng.run()
	switch {
	case err != nil:
		return &ImpResult{Err: err, Stats: stats}
	case con != nil:
		return &ImpResult{Implied: true, Reason: ImpliedByConflict, Stats: stats}
	case goalHit:
		return &ImpResult{Implied: true, Reason: ImpliedByDeduction, Stats: stats}
	default:
		return &ImpResult{Implied: false, Reason: NotImplied, Stats: stats}
	}
}
