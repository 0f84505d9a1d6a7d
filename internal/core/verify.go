package core

import (
	"context"

	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
)

// Violation describes one failure of G |= φ: a match whose antecedent holds
// but whose consequent does not. Match is read-only: GFDs of one pattern
// group that fail at the same match share one copy of it.
type Violation struct {
	GFD   *gfd.GFD
	Match match.Assignment
}

// Satisfies reports whether G |= Σ under the literal semantics of Section
// III (actual attribute values, not the deduced Eq semantics), returning
// the first violation found. It is the test oracle for the reasoning
// algorithms and the checker applications use for error detection.
func Satisfies(g graph.Reader, set *gfd.Set) (bool, *Violation) {
	out := make([][]Violation, set.Len())
	for i, phi := range set.GFDs {
		c := newGroupCheck(set, gfd.Group{Pattern: phi.Pattern, Members: []int{i}})
		s := match.NewSearch(phi.Pattern, g, match.Options{})
		for h, ok := s.Next(); ok; h, ok = s.Next() {
			if c.check(g, h, out) {
				return false, &out[i][0]
			}
		}
	}
	return true, nil
}

// Violations enumerates every violation of Σ in G (error detection /
// inconsistency catching, the paper's motivating application).
func Violations(g graph.Reader, set *gfd.Set) []Violation {
	// A background context never fires, so the error path is unreachable.
	out, _ := ViolationsCtx(context.Background(), g, set)
	return out
}

// ViolationsCtx is Violations under a deadline: the enumeration polls ctx
// every few hundred match-frame expansions, returning ErrCanceled or the
// context's deadline error (and whatever violations were already found)
// once it fires. The checker commands use it to bound validation over large
// graphs. Evaluation is shared across GFDs with equal pattern structures
// (see ViolationsOpts); the result is identical to checking each GFD
// independently, in the same order.
func ViolationsCtx(ctx context.Context, g graph.Reader, set *gfd.Set) ([]Violation, error) {
	out, _, err := ViolationsOpts(ctx, g, set, VerifyOptions{})
	return out, err
}

// IsModel reports whether G is a model of Σ: G |= Σ, G is nonempty, and
// every pattern of Σ has at least one match in G (Section IV's definition).
func IsModel(g graph.Reader, set *gfd.Set) bool {
	if g.NumNodes() == 0 {
		return false
	}
	if ok, _ := Satisfies(g, set); !ok {
		return false
	}
	for _, phi := range set.GFDs {
		s := match.NewSearch(phi.Pattern, g, match.Options{})
		if _, ok := s.Next(); !ok {
			return false
		}
	}
	return true
}
