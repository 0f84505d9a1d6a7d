// Compiled literal programs for group evaluation. When several GFDs share
// one pattern, a grouped search enumerates the pattern's matches once and
// evaluates each member's X → Y literals per match; the naive walk fetches
// g.Attr(h[x], "A") again for every literal that mentions x.A. A
// LiteralEval interns every distinct (variable, attribute) pair across the
// whole group into a slot fetched at most once per bound node, and compiles
// each member's literal sets into slot-index comparisons, so per-match
// literal cost is at most one attribute lookup per distinct pair actually
// touched — not one per literal occurrence per member.
package match

import (
	"repro/internal/graph"
	"repro/internal/pattern"
)

// LiteralSpec is a pattern-attribute literal in match-level form: x.A = c
// when IsConst, x.A = y.B otherwise. It mirrors the gfd literal without
// importing it — match sits below gfd in the dependency order; core
// translates.
type LiteralSpec struct {
	IsConst bool
	V1      pattern.Var
	A1      string
	Const   string      // IsConst only
	V2      pattern.Var // !IsConst only
	A2      string
}

// MemberLiterals is one group member's antecedent and consequent over the
// shared pattern.
type MemberLiterals struct {
	X []LiteralSpec
	Y []LiteralSpec
}

// litRef is one compiled literal: a slot comparison.
type litRef struct {
	slot1   int
	isConst bool
	constV  string
	slot2   int
}

type memberProg struct {
	x, y []litRef
}

// LiteralEval is the compiled literal program of one pattern group. It is
// immutable after CompileLiterals and safe to share across goroutines; the
// mutable per-match state lives in a LiteralScratch.
type LiteralEval struct {
	slotVar  []pattern.Var
	slotAttr []string
	members  []memberProg
}

// slotKey identifies one interned (variable, attribute) pair.
type slotKey struct {
	v    pattern.Var
	attr string
}

// CompileLiterals interns the distinct (variable, attribute) pairs across
// all members' literals and compiles each member's X → Y sets into slot
// references.
func CompileLiterals(members []MemberLiterals) *LiteralEval {
	e := &LiteralEval{members: make([]memberProg, len(members))}
	slots := make(map[slotKey]int)
	for mi, m := range members {
		prog := &e.members[mi]
		for _, l := range m.X {
			prog.x = append(prog.x, e.compileLit(slots, l))
		}
		for _, l := range m.Y {
			prog.y = append(prog.y, e.compileLit(slots, l))
		}
	}
	return e
}

func (e *LiteralEval) internSlot(slots map[slotKey]int, v pattern.Var, attr string) int {
	key := slotKey{v: v, attr: attr}
	if i, ok := slots[key]; ok {
		return i
	}
	i := len(e.slotVar)
	slots[key] = i
	e.slotVar = append(e.slotVar, v)
	e.slotAttr = append(e.slotAttr, attr)
	return i
}

func (e *LiteralEval) compileLit(slots map[slotKey]int, l LiteralSpec) litRef {
	r := litRef{slot1: e.internSlot(slots, l.V1, l.A1), isConst: l.IsConst}
	if l.IsConst {
		r.constV = l.Const
	} else {
		r.slot2 = e.internSlot(slots, l.V2, l.A2)
	}
	return r
}

// LiteralScratch caches slot values, each with the node it was read from.
// Not safe for concurrent use — each worker keeps its own. Loads are lazy,
// so short-circuited members never pay for slots they do not read, and a
// slot is re-read only when the match binds its variable to a different
// node: a depth-first enumeration holds its outer variables fixed across
// long runs of matches, and such a run costs one lookup, not one per match.
type LiteralScratch struct {
	vals []string
	ok   []bool
	node []graph.NodeID // the node vals/ok were read from; InvalidNode if none
}

// NewScratch returns a scratch sized for the program.
func (e *LiteralEval) NewScratch() *LiteralScratch {
	n := len(e.slotVar)
	s := &LiteralScratch{
		vals: make([]string, n),
		ok:   make([]bool, n),
		node: make([]graph.NodeID, n),
	}
	s.Begin()
	return s
}

// Begin forgets every loaded value. Successive matches on one reader need
// no Begin, since values are keyed by node; call it before evaluating
// against a different reader.
func (s *LiteralScratch) Begin() {
	for i := range s.node {
		s.node[i] = graph.InvalidNode
	}
}

// load fetches slot i at match h, reading g only when the slot last read a
// different node.
func (s *LiteralScratch) load(e *LiteralEval, g graph.Reader, h Assignment, i int) (string, bool) {
	if v := h[e.slotVar[i]]; v != s.node[i] {
		s.vals[i], s.ok[i] = g.Attr(v, e.slotAttr[i])
		s.node[i] = v
	}
	return s.vals[i], s.ok[i]
}

// holds evaluates one compiled literal set with the standard semantics:
// x.A = c holds iff the attribute exists with value c; x.A = y.B iff both
// exist and are equal. Short-circuits on the first failing literal.
func (e *LiteralEval) holds(refs []litRef, g graph.Reader, h Assignment, s *LiteralScratch) bool {
	for _, r := range refs {
		v1, ok1 := s.load(e, g, h, r.slot1)
		if !ok1 {
			return false
		}
		if r.isConst {
			if v1 != r.constV {
				return false
			}
			continue
		}
		v2, ok2 := s.load(e, g, h, r.slot2)
		if !ok2 || v1 != v2 {
			return false
		}
	}
	return true
}

// Violates reports whether member m violates the dependency at match h:
// the antecedent holds and the consequent does not. Calls on one scratch
// must read the same g until its next Begin.
func (e *LiteralEval) Violates(m int, g graph.Reader, h Assignment, s *LiteralScratch) bool {
	prog := &e.members[m]
	return e.holds(prog.x, g, h, s) && !e.holds(prog.y, g, h, s)
}
