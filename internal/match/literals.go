// Compiled literal programs for group evaluation. When several GFDs share
// one pattern, a grouped search enumerates the pattern's matches once and
// evaluates each member's X → Y literals per match; the naive walk fetches
// g.Attr(h[x], "A") again for every literal that mentions x.A. A
// LiteralEval interns every distinct (variable, attribute) pair across the
// whole group into a slot fetched at most once per bound node, and compiles
// each member's literal sets into slot-index comparisons, so per-match
// literal cost is at most one attribute lookup per distinct pair actually
// touched — not one per literal occurrence per member. A lookup is a search
// of the node's attribute row by name ID, and a comparison is one of value
// IDs: a scratch resolves the program's names and constants against the
// snapshot it reads once (graph/attrs.go), not per match.
package match

import (
	"fmt"

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

// litRef is one compiled literal: a slot compared with a constant (an index
// into LiteralEval.consts) or with a second slot.
type litRef struct {
	slot1   int
	isConst bool
	konst   int
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
	consts   []string
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
		r.konst = len(e.consts)
		e.consts = append(e.consts, l.Const)
	} else {
		r.slot2 = e.internSlot(slots, l.V2, l.A2)
	}
	return r
}

// attrRows is what a scratch reads: the attribute rows of a
// *graph.Frozen, also through any reader that embeds one.
type attrRows interface {
	Epoch() uint64
	AttrNameID(name string) graph.AttrID
	AttrValueID(value string) graph.ValueID
	AttrAt(v graph.NodeID, a graph.AttrID) graph.ValueID
}

// LiteralScratch caches slot values, each with the node it was read from.
// Not safe for concurrent use — each worker keeps its own. Loads are lazy,
// so short-circuited members never pay for slots they do not read, and a
// slot is re-read only when the match binds its variable to a different
// node: a depth-first enumeration holds its outer variables fixed across
// long runs of matches, and such a run costs one lookup, not one per match.
//
// A scratch is bound to the snapshot it reads: on the first Violates, and
// again whenever the reader or the reader's epoch changes (an edited
// *graph.Graph re-freezes), it resolves every slot's attribute name and
// every constant to the snapshot's IDs, and forgets its values. A constant
// the snapshot does not hold resolves to graph.NoValue, which no attribute
// equals. Loads then cache value IDs, and literals compare them.
type LiteralScratch struct {
	reader graph.Reader
	graph  *graph.Graph // reader, when it is one: its epoch moves on edits
	rows   attrRows
	epoch  uint64
	slots  []slotState
	consts []graph.ValueID // per program constant, its value ID
}

// slotState is one slot of a scratch: the program's variable, the name ID
// it is bound to, and the value last loaded with the node it came from.
type slotState struct {
	v    pattern.Var
	name graph.AttrID
	val  graph.ValueID // graph.NoValue where the attribute is missing
	node graph.NodeID  // the node val was read from; InvalidNode if none
}

// NewScratch returns a scratch sized for the program.
func (e *LiteralEval) NewScratch() *LiteralScratch {
	s := &LiteralScratch{
		slots:  make([]slotState, len(e.slotVar)),
		consts: make([]graph.ValueID, len(e.consts)),
	}
	for i, v := range e.slotVar {
		s.slots[i].v = v
	}
	s.Begin()
	return s
}

// Begin forgets every loaded value; the binding to the reader stays.
// Successive matches need no Begin, since values are keyed by node, and
// neither does a change of reader, which rebinds.
func (s *LiteralScratch) Begin() {
	for i := range s.slots {
		s.slots[i].node = graph.InvalidNode
	}
}

// bind points the scratch at g's snapshot. A *graph.Graph is read through
// its cached Frozen; any other reader must carry attribute rows itself.
func (s *LiteralScratch) bind(e *LiteralEval, g graph.Reader) {
	var rows attrRows
	gr, isGraph := g.(*graph.Graph)
	if isGraph {
		rows = gr.Frozen()
	} else if r, ok := g.(attrRows); ok {
		rows = r
	} else {
		panic(fmt.Sprintf("match: literal evaluation on a %T, which has no attribute rows", g))
	}
	s.reader, s.graph, s.rows, s.epoch = g, gr, rows, rows.Epoch()
	for i, a := range e.slotAttr {
		s.slots[i].name = rows.AttrNameID(a)
	}
	for i, c := range e.consts {
		s.consts[i] = rows.AttrValueID(c)
	}
	s.Begin()
}

// load fetches slot i at match h, reading the rows only when the slot last
// read a different node.
func (s *LiteralScratch) load(h Assignment, i int) graph.ValueID {
	sl := &s.slots[i]
	if v := h[sl.v]; v != sl.node {
		sl.val = s.rows.AttrAt(v, sl.name)
		sl.node = v
	}
	return sl.val
}

// holds evaluates one compiled literal set with the standard semantics:
// x.A = c holds iff the attribute exists with value c; x.A = y.B iff both
// exist and are equal. Short-circuits on the first failing literal.
func (s *LiteralScratch) holds(refs []litRef, h Assignment) bool {
	for _, r := range refs {
		v1 := s.load(h, r.slot1)
		if v1 == graph.NoValue {
			return false
		}
		if r.isConst {
			if v1 != s.consts[r.konst] {
				return false
			}
		} else if v1 != s.load(h, r.slot2) { // a missing y.B is NoValue ≠ v1
			return false
		}
	}
	return true
}

// Violates reports whether member m violates the dependency at match h in
// g: the antecedent holds and the consequent does not.
func (e *LiteralEval) Violates(m int, g graph.Reader, h Assignment, s *LiteralScratch) bool {
	if g != s.reader || s.graph != nil && s.graph.Epoch() != s.epoch {
		s.bind(e, g)
	}
	prog := &e.members[m]
	return s.holds(prog.x, h) && !s.holds(prog.y, h)
}
