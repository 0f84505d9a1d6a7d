package core

import "repro/internal/gfd"

// ImpResult reports the outcome of an implication check Σ |= φ.
type ImpResult struct {
	Implied bool
	// Reason distinguishes how implication was established.
	Reason ImpReason
	Stats  Stats
	// Err is non-nil when a run ended before reaching an answer:
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

// SeqImp decides whether Σ |= φ (Section VI-B).
//
// By Corollary 4 it suffices to enforce GFDs of Σ on matches of their
// patterns in the canonical graph G^X_Q of φ, starting from Eq_X, and report
// implication iff the expansion Eq_H conflicts or deduces Y. It is ParImp
// on one worker.
func SeqImp(set *gfd.Set, phi *gfd.GFD) *ImpResult {
	return ParImp(set, phi, DefaultParOptions(1))
}
