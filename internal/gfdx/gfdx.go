// Package gfdx implements the extension the paper's Section IX names as
// ongoing work: reasoning about GFDs whose literals carry built-in
// predicates (=, ≠, <, ≤, >, ≥) rather than equality only. These are the
// GED-style extended dependencies of Fan & Lu (PODS 2017) restricted to
// non-disjunctive consequents.
//
// Extended satisfiability keeps the small model property's structure: GFDs
// are enforced on matches of their patterns in the canonical graph G_Σ, but
// the per-class state generalizes from "one constant" to
//
//   - a numeric interval with open/closed bounds (from <,≤,>,≥,= bounds),
//   - a set of excluded values (from ≠ constants),
//   - order edges between classes (from x.A < y.B style literals).
//
// A class conflicts when its interval empties, collapses onto an excluded
// point, or an order cycle with a strict edge appears; non-strict order
// cycles merge the classes involved (x ≤ y ≤ x ⇒ x = y). Bounds propagate
// along order edges to a fixpoint.
//
// Scope: constants compare numerically when both sides parse as numbers;
// non-numeric constants support = and ≠ only (a literal ordering two
// non-numeric constants is rejected at construction). Disjunction — the
// other half of the paper's planned extension — is out of scope here.
package gfdx

import (
	"fmt"
	"strconv"

	"repro/internal/canon"
	"repro/internal/eq"
	"repro/internal/gfd"
	"repro/internal/match"
	"repro/internal/pattern"
)

// Pred is a built-in comparison predicate.
type Pred int

// Predicates.
const (
	EQ Pred = iota
	NE
	LT
	LE
	GT
	GE
)

func (p Pred) String() string {
	switch p {
	case EQ:
		return "="
	case NE:
		return "≠"
	case LT:
		return "<"
	case LE:
		return "≤"
	case GT:
		return ">"
	case GE:
		return "≥"
	}
	return "?"
}

// Literal is an extended literal x.A ⊙ c or x.A ⊙ y.B.
type Literal struct {
	Pred Pred
	X    pattern.Var
	A    string
	// Constant form:
	Const string
	IsVar bool
	// Variable form:
	Y pattern.Var
	B string
}

// Const builds x.A ⊙ c.
func Const(x pattern.Var, a string, p Pred, c string) Literal {
	return Literal{Pred: p, X: x, A: a, Const: c}
}

// Vars builds x.A ⊙ y.B.
func Vars(x pattern.Var, a string, p Pred, y pattern.Var, b string) Literal {
	return Literal{Pred: p, X: x, A: a, IsVar: true, Y: y, B: b}
}

// GFD is an extended dependency Q[x̄](X → Y).
type GFD struct {
	Name    string
	Pattern *pattern.Pattern
	X, Y    []Literal
}

// New validates and constructs an extended GFD: ordering predicates on
// non-numeric constants are rejected.
func New(name string, p *pattern.Pattern, x, y []Literal) (*GFD, error) {
	for _, l := range append(append([]Literal{}, x...), y...) {
		if int(l.X) >= p.NumVars() || (l.IsVar && int(l.Y) >= p.NumVars()) {
			return nil, fmt.Errorf("gfdx %s: literal references undeclared variable", name)
		}
		if !l.IsVar && l.Pred != EQ && l.Pred != NE {
			if _, err := strconv.ParseFloat(l.Const, 64); err != nil {
				return nil, fmt.Errorf("gfdx %s: ordering predicate on non-numeric constant %q", name, l.Const)
			}
		}
	}
	p.Freeze()
	return &GFD{Name: name, Pattern: p, X: x, Y: y}, nil
}

// Set is an ordered set of extended GFDs.
type Set struct {
	GFDs []*GFD
}

// NewSet builds a set.
func NewSet(gs ...*GFD) *Set { return &Set{GFDs: gs} }

// AsPlain lowers the set to plain GFDs when every literal is an equality;
// it returns nil if any literal uses another predicate (or a lowered GFD
// fails plain validation, which New here already rules out). Used to
// cross-check the extended checker against core.SeqSat on the shared
// fragment.
func (s *Set) AsPlain() *gfd.Set {
	out := gfd.NewSet()
	for _, g := range s.GFDs {
		var xs, ys []gfd.Literal
		for _, l := range g.X {
			pl, ok := plainLiteral(l)
			if !ok {
				return nil
			}
			xs = append(xs, pl)
		}
		for _, l := range g.Y {
			pl, ok := plainLiteral(l)
			if !ok {
				return nil
			}
			ys = append(ys, pl)
		}
		pg, err := gfd.New(g.Name, g.Pattern, xs, ys)
		if err != nil {
			return nil
		}
		out.Add(pg)
	}
	return out
}

func plainLiteral(l Literal) (gfd.Literal, bool) {
	if l.Pred != EQ {
		return gfd.Literal{}, false
	}
	if l.IsVar {
		return gfd.Vars(l.X, l.A, l.Y, l.B), true
	}
	return gfd.Const(l.X, l.A, l.Const), true
}

// plainPattern converts the extended set to a plain set with empty literal
// sets, reusing canon.BuildSigma for the canonical graph.
func (s *Set) patternSet() *gfd.Set {
	out := gfd.NewSet()
	for _, g := range s.GFDs {
		pg, err := gfd.New(g.Name, g.Pattern, nil, nil)
		if err != nil {
			continue // unreachable: with no literals there is nothing to validate
		}
		out.Add(pg)
	}
	return out
}

// Result reports extended satisfiability.
type Result struct {
	Satisfiable bool
	// Reason describes the first conflict (empty when satisfiable).
	Reason string
	Stats  Stats
}

// Stats counts the extended checker's work.
type Stats struct {
	Matches      int
	Enforcements int
	Rechecks     int
	Propagations int
}

// SeqSatX checks the satisfiability of an extended set: it returns
// Satisfiable=false only when the constraint state derived from necessary
// enforcements is inconsistent. On the equality-only fragment it coincides
// with core.SeqSat (cross-checked in tests).
func SeqSatX(s *Set) *Result {
	if len(s.GFDs) == 0 {
		return &Result{Satisfiable: true}
	}
	cs := canon.BuildSigma(s.patternSet())
	st := newState()

	type pend struct {
		g    *GFD
		h    match.Assignment
		off  int
		done bool
	}
	pending := make(map[eq.Term][]*pend)
	var queue []eq.Term

	enforce := func(g *GFD, h match.Assignment) bool {
		st.stats.Enforcements++
		for _, l := range g.Y {
			changed, ok := st.assert(term(h, l.X, l.A), l, h)
			if !ok {
				return false
			}
			queue = append(queue, changed...)
		}
		return true
	}

	var offer func(g *GFD, h match.Assignment) bool
	offer = func(g *GFD, h match.Assignment) bool {
		st.stats.Matches++
		switch st.checkX(g, h) {
		case xHolds:
			return enforce(g, h)
		case xImpossible:
			return true
		default:
			p := &pend{g: g, h: h.Clone()} // h is the search's view
			for _, l := range g.X {
				pending[term(h, l.X, l.A)] = append(pending[term(h, l.X, l.A)], p)
				if l.IsVar {
					pending[term(h, l.Y, l.B)] = append(pending[term(h, l.Y, l.B)], p)
				}
			}
			return true
		}
	}

	drain := func() bool {
		for len(queue) > 0 {
			t := queue[0]
			queue = queue[1:]
			list := pending[t]
			if len(list) == 0 {
				continue
			}
			keep := list[:0]
			for _, p := range list {
				if p.done {
					continue
				}
				st.stats.Rechecks++
				switch st.checkX(p.g, p.h) {
				case xHolds:
					p.done = true
					if !enforce(p.g, p.h) {
						return false
					}
				case xImpossible:
					p.done = true
				default:
					keep = append(keep, p)
				}
			}
			pending[t] = keep
		}
		return true
	}

	for _, g := range s.GFDs {
		srch := match.NewSearch(g.Pattern, cs.Graph, match.Options{})
		for {
			h, ok := srch.Next()
			if !ok {
				break
			}
			// Matches are found per GFD into the shared canonical graph;
			// node IDs in h are already global.
			if !offer(g, h) || !drain() {
				return &Result{Satisfiable: false, Reason: st.reason, Stats: st.stats}
			}
			if changed, ok := st.propagate(); !ok {
				return &Result{Satisfiable: false, Reason: st.reason, Stats: st.stats}
			} else {
				queue = append(queue, changed...)
				if !drain() {
					return &Result{Satisfiable: false, Reason: st.reason, Stats: st.stats}
				}
			}
		}
	}
	if changed, ok := st.propagate(); !ok {
		return &Result{Satisfiable: false, Reason: st.reason, Stats: st.stats}
	} else {
		queue = append(queue, changed...)
		if !drain() {
			return &Result{Satisfiable: false, Reason: st.reason, Stats: st.stats}
		}
	}
	return &Result{Satisfiable: true, Stats: st.stats}
}

func term(h match.Assignment, x pattern.Var, a string) eq.Term {
	return eq.Term{Node: h[x], Attr: a}
}
