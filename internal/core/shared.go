// Shared multi-GFD evaluation. Rule sets are redundant: many GFDs carry
// one pattern (same Q, different X → Y literals) or patterns overlapping on
// a match-order prefix. The validation entry points route through
// gfd.Set.Groups — GFDs bucketed by pattern fingerprint with a structural
// equality guard — so each distinct pattern structure is enumerated once
// and only the literal checks fan out per member, through the compiled
// attr-key-interned evaluator (match.LiteralEval) instead of the per-call
// attribute walk.
package core

import (
	"context"
	"slices"

	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
)

// VerifyOptions configures ViolationsOpts. It has no fields: the type stays
// because benchmark/gfdbench spells core.VerifyOptions{}.
type VerifyOptions struct{}

// VerifyStats reports how much enumeration work the grouped evaluation
// shared.
type VerifyStats struct {
	// Groups is the number of structurally distinct patterns in Σ.
	Groups int
	// SharedGFDs counts GFDs that rode along in a multi-member group —
	// their patterns were never enumerated separately.
	SharedGFDs int
	// MatchesReused counts match deliveries beyond the first per enumerated
	// match: for a match shared by an m-member group, m−1 re-enumerations
	// that never happened.
	MatchesReused int
	// PrefixFamilies counts sets of distinct patterns that additionally
	// shared a common search prefix (see match.EnumerateGrouped).
	PrefixFamilies int
}

// literalSpecs translates gfd literals into the match-level form the
// compiled evaluator consumes.
func literalSpecs(ls []gfd.Literal) []match.LiteralSpec {
	if len(ls) == 0 {
		return nil
	}
	out := make([]match.LiteralSpec, len(ls))
	for i, l := range ls {
		if l.Kind == gfd.ConstLiteral {
			out[i] = match.LiteralSpec{IsConst: true, V1: l.X, A1: l.A, Const: l.Const}
		} else {
			out[i] = match.LiteralSpec{V1: l.X, A1: l.A, V2: l.Y, A2: l.B}
		}
	}
	return out
}

// compileGroupLiterals builds the group's literal program: one slot per
// distinct (variable, attribute) pair across all members.
func compileGroupLiterals(set *gfd.Set, grp gfd.Group) *match.LiteralEval {
	members := make([]match.MemberLiterals, len(grp.Members))
	for i, mi := range grp.Members {
		phi := set.GFDs[mi]
		members[i] = match.MemberLiterals{X: literalSpecs(phi.X), Y: literalSpecs(phi.Y)}
	}
	return match.CompileLiterals(members)
}

// ViolationsOpts is ViolationsCtx with sharing statistics. The violation
// list is what checking each GFD on its own would give, violation for
// violation, in Σ-then-enumeration order.
func ViolationsOpts(ctx context.Context, g graph.Reader, set *gfd.Set, _ VerifyOptions) ([]Violation, VerifyStats, error) {
	groups := set.Groups()
	st := VerifyStats{Groups: len(groups)}

	pgs := make([]match.PatternGroup, len(groups))
	progs := make([]*match.LiteralEval, len(groups))
	scratch := make([]*match.LiteralScratch, len(groups))
	for gi, grp := range groups {
		pgs[gi] = match.PatternGroup{Pattern: grp.Pattern}
		progs[gi] = compileGroupLiterals(set, grp)
		scratch[gi] = progs[gi].NewScratch()
		if len(grp.Members) > 1 {
			st.SharedGFDs += len(grp.Members)
		}
	}

	byGFD := make([][]Violation, set.Len())
	enumSt, err := match.EnumerateGrouped(ctx, g, pgs, func(gi int, h match.Assignment) bool {
		grp := groups[gi]
		prog, scr := progs[gi], scratch[gi]
		scr.Begin()
		// h is the search's view: copied once, on the first member it
		// violates, and shared by every member violating at this match.
		var kept match.Assignment
		for i, mi := range grp.Members {
			if prog.Violates(i, g, h, scr) {
				if kept == nil {
					kept = h.Clone()
				}
				byGFD[mi] = append(byGFD[mi], Violation{GFD: set.GFDs[mi], Match: kept})
			}
		}
		st.MatchesReused += len(grp.Members) - 1
		return true
	})
	st.PrefixFamilies = enumSt.Families

	// Assemble in Σ order, sized once; within a GFD the grouped enumeration
	// already delivered matches in the standalone enumeration order.
	out := slices.Concat(byGFD...)
	if err != nil {
		return out, st, canceledErr(err)
	}
	return out, st, nil
}
