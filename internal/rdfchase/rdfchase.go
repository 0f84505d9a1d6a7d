// Package rdfchase implements the comparison baseline ParImpRDF of the
// paper's experiments (Section VII): a chase-based sequential implication
// checker in the style of Hellings et al. [5], which studied implication of
// functional and constant constraints over RDF via the chase.
//
// Like SeqImp, the baseline works on the canonical graph G^X_Q (triple
// patterns of [5] generalize to our patterns-as-graphs). Unlike SeqImp it is
// a *naive* chase:
//
//   - no dependency-graph ordering of rules — GFDs are applied in given
//     order, round-robin;
//   - no inverted pending index — every chase round re-enumerates every
//     match of every pattern from scratch and re-evaluates antecedents;
//   - termination is only checked between rounds (no early exit inside a
//     round).
//
// These are exactly the differences the paper credits for SeqImp's ~1.4–1.5×
// advantage, so the baseline preserves the comparison's shape.
package rdfchase

import (
	"repro/internal/canon"
	"repro/internal/eq"
	"repro/internal/gfd"
	"repro/internal/match"
)

// Stats counts the chase's work for the harness.
type Stats struct {
	Rounds       int
	Matches      int
	Enforcements int
}

// Result is the outcome of an implication check.
type Result struct {
	Implied bool
	Stats   Stats
}

// Implies decides Σ |= φ by chasing G^X_Q to a fixpoint.
func Implies(set *gfd.Set, phi *gfd.GFD) *Result {
	cp := canon.BuildPhi(phi)
	g := cp.Graph
	e := cp.EqX
	st := Stats{}
	if e.Conflicted() != nil || cp.YDeduced(e) {
		return &Result{Implied: true, Stats: st}
	}
	for {
		st.Rounds++
		changed := false
		for _, psi := range set.GFDs {
			s := match.NewSearch(psi.Pattern, g, match.Options{})
			for {
				h, ok := s.Next()
				if !ok {
					break
				}
				st.Matches++
				if !xHolds(e, psi, h) {
					continue
				}
				if enforce(e, psi, h) {
					st.Enforcements++
					changed = true
				}
			}
		}
		if e.Conflicted() != nil || cp.YDeduced(e) {
			return &Result{Implied: true, Stats: st}
		}
		if !changed {
			return &Result{Implied: false, Stats: st}
		}
	}
}

// xHolds evaluates the antecedent under the deduced semantics (shared with
// the main algorithms; duplicated here so the baseline stays self-contained
// and unoptimized).
func xHolds(e *eq.Eq, psi *gfd.GFD, h match.Assignment) bool {
	for _, l := range psi.X {
		t := eq.Term{Node: h[l.X], Attr: l.A}
		switch l.Kind {
		case gfd.ConstLiteral:
			c, ok := e.Const(t)
			if !ok || c != l.Const {
				return false
			}
		case gfd.VarLiteral:
			u := eq.Term{Node: h[l.Y], Attr: l.B}
			if e.Same(t, u) {
				continue
			}
			ct, okT := e.Const(t)
			cu, okU := e.Const(u)
			if !(okT && okU && ct == cu) {
				return false
			}
		}
	}
	return true
}

// enforce applies the consequent and reports whether Eq changed.
func enforce(e *eq.Eq, psi *gfd.GFD, h match.Assignment) bool {
	changed := false
	for _, l := range psi.Y {
		t := eq.Term{Node: h[l.X], Attr: l.A}
		switch l.Kind {
		case gfd.ConstLiteral:
			if len(e.AssignConst(t, l.Const)) > 0 {
				changed = true
			}
		case gfd.VarLiteral:
			u := eq.Term{Node: h[l.Y], Attr: l.B}
			if len(e.Merge(t, u)) > 0 {
				changed = true
			}
		}
		if e.Conflicted() != nil {
			return true
		}
	}
	return changed
}
