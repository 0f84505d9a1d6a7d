// Compiled literal programs for group evaluation. When several GFDs share
// one pattern, a grouped search enumerates the pattern's matches once and
// evaluates each member's X → Y literals per match; the naive walk fetches
// g.Attr(h[x], "A") again for every literal that mentions x.A. A
// LiteralEval interns every distinct (variable, attribute) pair across the
// whole group into a slot fetched at most once per bound node, and compiles
// each member's literal sets into slot-index comparisons, so per-match
// literal cost is at most one attribute lookup per distinct pair actually
// touched — not one per literal occurrence per member. A lookup searches
// the node's attribute row by name ID, or reads the name's value column in a
// NewColumnScratch; a comparison is one of value IDs: a scratch resolves
// names and constants against the snapshot it reads once, not per match.
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

// LiteralScratch caches slot values, each with the node it was read from.
// Not safe for concurrent use — each worker keeps its own. Loads are lazy,
// so short-circuited members never pay for slots they do not read, and a
// slot is re-read only when the match binds its variable to a different
// node: a depth-first enumeration holds its outer variables fixed across
// long runs of matches, and such a run costs one lookup, not one per match.
//
// A scratch is bound to the snapshot it reads: on the first Violates, and
// again whenever Violates is handed another snapshot, it resolves every
// slot's attribute name and every constant to the snapshot's IDs, and
// forgets its values. A constant the snapshot does not hold resolves to
// graph.NoValue, which no attribute equals. Loads then cache value IDs, and
// literals compare them.
type LiteralScratch struct {
	rows    *graph.Frozen
	columns bool // read slots through the snapshot's value columns
	slots   []slotState
	consts  []graph.ValueID // per program constant, its value ID
	live    []liveMember    // LiteralGuard.Filter's current frame
}

// slotState is one slot of a scratch: the program's variable, the name ID
// (and column) it is bound to, and the last value loaded with its node.
type slotState struct {
	v    pattern.Var
	name graph.AttrID
	col  *graph.AttrColumn // nil: search the row (a column scratch: until the first read)
	val  graph.ValueID     // graph.NoValue where the attribute is missing
	node graph.NodeID      // the node val was read from; InvalidNode if none
}

// NewScratch returns a scratch sized for the program that searches rows.
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

// NewColumnScratch is NewScratch reading the snapshot's value columns
// (graph.AttrColumn): it pays when its caller reads many matches per node.
func (e *LiteralEval) NewColumnScratch() *LiteralScratch {
	s := e.NewScratch()
	s.columns = true
	return s
}

// Begin forgets every loaded value; the binding to the snapshot stays.
// Successive matches need no Begin, since values are keyed by node, and
// neither does a change of snapshot, which rebinds.
func (s *LiteralScratch) Begin() {
	for i := range s.slots {
		s.slots[i].node = graph.InvalidNode
	}
}

// bind points the scratch at the snapshot rows. A column scratch asks for a
// slot's column at the slot's first read (load), so a group makes only the
// columns its literals read.
func (s *LiteralScratch) bind(e *LiteralEval, rows *graph.Frozen) {
	s.rows = rows
	for i, a := range e.slotAttr {
		sl := &s.slots[i]
		sl.name, sl.col = rows.AttrNameID(a), nil
	}
	for i, c := range e.consts {
		s.consts[i] = rows.AttrValueID(c)
	}
	s.Begin()
}

// noVar is a variable no slot has: holds at a full match binds nothing
// beyond h.
const noVar pattern.Var = -1

// load fetches slot i at h with v bound to c, reading the column or row only
// when the slot last read a different node.
func (s *LiteralScratch) load(h Assignment, i int, v pattern.Var, c graph.NodeID) graph.ValueID {
	sl := &s.slots[i]
	n := c
	if sl.v != v {
		n = h[sl.v]
	}
	if n != sl.node {
		if sl.col == nil && s.columns && sl.name != graph.NoAttr {
			sl.col = s.rows.AttrColumn(sl.name)
		}
		if sl.col != nil {
			sl.val = sl.col.At(n)
		} else {
			sl.val = s.rows.AttrAt(n, sl.name)
		}
		sl.node = n
	}
	return sl.val
}

// holds evaluates one compiled literal set at h with v bound to c, with the
// standard semantics: x.A = c holds iff the attribute exists with value c;
// x.A = y.B iff both exist and are equal. Short-circuits on the first
// failing literal.
func (s *LiteralScratch) holds(refs []litRef, h Assignment, v pattern.Var, c graph.NodeID) bool {
	for _, r := range refs {
		v1 := s.load(h, r.slot1, v, c)
		if v1 == graph.NoValue {
			return false
		}
		if r.isConst {
			if v1 != s.consts[r.konst] {
				return false
			}
		} else if v1 != s.load(h, r.slot2, v, c) { // a missing y.B is NoValue ≠ v1
			return false
		}
	}
	return true
}

// Violates reports whether member m violates the dependency at match h in
// g: the antecedent holds and the consequent does not.
func (e *LiteralEval) Violates(m int, g *graph.Frozen, h Assignment, s *LiteralScratch) bool {
	if g != s.rows {
		s.bind(e, g)
	}
	prog := &e.members[m]
	return s.holds(prog.x, h, noVar, 0) && !s.holds(prog.y, h, noVar, 0)
}

// LiteralGuard is a group's literal program compiled against one search
// order, to prune that search: each literal is filed under its decision
// depth, the position in the order of the last of its variables to bind.
// It is immutable and safe to share; Filter's per-frame state lives in the
// scratch it is handed.
type LiteralGuard struct {
	e       *LiteralEval
	depth   []int // per pattern variable, its position in the order
	members []guardProg
}

// guardProg is one member's literals sorted by decision depth: those
// decided at depth d are x[xAt[d]:xAt[d+1]] and y[yAt[d]:yAt[d+1]].
type guardProg struct {
	x, y     []litRef
	xAt, yAt []int
}

// liveMember is a member a frame's bound prefix does not refute, with the
// literals that can refute it at the frame's candidates: its X literals
// decided there, and its Y literals decided there when they are the last of
// a Y that holds so far (else y is nil).
type liveMember struct {
	x, y []litRef
}

// Guard compiles the program against a search order over all of the
// pattern's variables.
func (e *LiteralEval) Guard(order []pattern.Var) *LiteralGuard {
	gd := &LiteralGuard{e: e, depth: make([]int, len(order)), members: make([]guardProg, len(e.members))}
	for d, v := range order {
		gd.depth[v] = d
	}
	decided := func(r litRef) int {
		d := gd.depth[e.slotVar[r.slot1]]
		if !r.isConst {
			d = max(d, gd.depth[e.slotVar[r.slot2]])
		}
		return d
	}
	byDepth := func(refs []litRef) ([]litRef, []int) {
		out, at := make([]litRef, 0, len(refs)), make([]int, len(order)+1)
		for d := range order {
			at[d] = len(out)
			for _, r := range refs {
				if decided(r) == d {
					out = append(out, r)
				}
			}
		}
		at[len(order)] = len(out)
		return out, at
	}
	for m, prog := range e.members {
		gp := &gd.members[m]
		gp.x, gp.xAt = byDepth(prog.x)
		gp.y, gp.yAt = byDepth(prog.y)
	}
	return gd
}

// Filter is an Options.Filter for a search in the guard's order, reading g
// through s. It drops each candidate for v at which every member is
// refuted: one of its X literals is decided and false, or all of its Y
// literals are decided and hold. No match below such a candidate violates
// a member, and the survivors keep their order. A frame's live members are
// computed once from the bound prefix, and a candidate costs only the
// literals decided at v.
func (gd *LiteralGuard) Filter(g *graph.Frozen, s *LiteralScratch, h Assignment, v pattern.Var, cands []graph.NodeID) []graph.NodeID {
	if g != s.rows {
		s.bind(gd.e, g)
	}
	d := gd.depth[v]
	s.live = s.live[:0]
	for m := range gd.members {
		p := &gd.members[m]
		if !s.holds(p.x[:p.xAt[d]], h, noVar, 0) {
			continue
		}
		yHolds := s.holds(p.y[:p.yAt[d]], h, noVar, 0)
		if yHolds && p.yAt[d] == len(p.y) {
			continue // all of Y is decided, and holds
		}
		lm := liveMember{x: p.x[p.xAt[d]:p.xAt[d+1]]}
		if yHolds && p.yAt[d+1] == len(p.y) {
			lm.y = p.y[p.yAt[d]:p.yAt[d+1]]
		}
		if len(lm.x) == 0 && lm.y == nil {
			return cands // no candidate refutes this member
		}
		s.live = append(s.live, lm)
	}
	kept := cands[:0]
	for _, c := range cands {
		for _, lm := range s.live {
			if s.holds(lm.x, h, v, c) && (lm.y == nil || !s.holds(lm.y, h, v, c)) {
				kept = append(kept, c)
				break
			}
		}
	}
	return kept
}
