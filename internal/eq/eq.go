// Package eq implements the equivalence relation Eq of Section IV-C: a
// union-find over attribute terms x.A (node–attribute pairs of a canonical
// graph) where each class may carry at most one constant. Enforcing a GFD at
// a match expands Eq via:
//
//	Rule 1 (x.A = c):   create [x.A] if missing and add c; two distinct
//	                    constants in one class is a conflict.
//	Rule 2 (x.A = y.B): create missing classes and merge them; a merged
//	                    class with distinct constants is a conflict.
//
// Eq is monotone (classes only grow, constants are never retracted), so
// deltas taken from one relation (TakeDelta) can be replayed on another
// (Apply) in any order and both converge. No engine reads a delta: each
// chase owns its terms. The delta surface stays for benchmark/gfdbench's
// probes and the convergence tests.
//
// The relation has two surfaces over one implementation. The ID surface is
// what the reasoning engines run on: attribute and constant names are
// interned once (AttrIDOf, ConstIDOf — the same resolve-once idiom as
// graph.Reader's LabelIDOf), and a term is addressed by a Handle, its
// position in one dense table of (node, attribute) slots: n·A + a, for A
// attribute columns. Lookup is that arithmetic plus one load, and AssignAt /
// MergeAt report changed classes by appending handles to a buffer the caller
// owns — no string is hashed and nothing is allocated per operation. The
// string surface (Term, AssignConst, Merge, Apply, Const, Same, …) is a thin
// wrapper that interns and delegates; it is the boundary for tests, conflict
// rendering, the witness model and the delta Op, which stays name-shaped so
// relations need not agree on IDs.
//
// A zero slot is a term without a class, so a fresh table needs no fill and
// its pages no term touches are never written. A handle is not a term:
// every (node, attribute) pair of the table has one, and the pending index
// of the engines files blocked matches under it, but only a mutation creates
// the class [x.A]. Has, Same, Len, AllTerms, Classes and Lookup see created
// classes only.
//
// New returns a relation that grows on demand, for the string surface. An
// engine fixes the shape before its chase asks for a handle (Seal): over
// G_Σ's nodes and Σ's attribute names for ParSat, whose workers then chase
// term-disjoint chunks on views of the one table (View); over G^X_Q and the
// attributes of φ and Σ′ for ParImp. A sealed relation that is asked to
// grow panics.
package eq

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/graph"
)

// Term is an attribute term x.A: attribute Attr at canonical-graph node Node.
type Term struct {
	Node graph.NodeID
	Attr string
}

func (t Term) String() string { return fmt.Sprintf("%d.%s", t.Node, t.Attr) }

// Conflict records the first contradiction found: a class required to equal
// two distinct constants.
type Conflict struct {
	Term   Term
	C1, C2 string
}

func (c *Conflict) Error() string {
	return fmt.Sprintf("eq: conflict at %s: %q vs %q", c.Term, c.C1, c.C2)
}

// OpKind tags delta operations.
type OpKind int

const (
	// OpAssign records "constant C was attached to the class of T".
	OpAssign OpKind = iota
	// OpMerge records "the classes of T and U were merged".
	OpMerge
)

// Op is one monotone mutation, replayable on another relation.
type Op struct {
	Kind OpKind
	T, U Term
	C    string
}

// Delta is an ordered batch of operations taken from a relation.
type Delta []Op

// AttrID and ConstID are a relation's dense IDs for attribute and constant
// names. They are private to the relation that issued them and its views.
type (
	AttrID  int32
	ConstID int32
)

// Handle addresses one (node, attribute) slot of a relation: n·A + a. It is
// valid for the relation that issued it and its views, until the relation
// widens (AttrIDOf of a new name before Seal) and every handle moves.
type Handle int32

const (
	// NoHandle is Lookup's "no such class".
	NoHandle Handle = -1
	// NoConst is ConstAt's "class carries no constant".
	NoConst ConstID = -1
)

// slot is one handle's record: the union-find node and the intrusive ring of
// the members of its class, so a merge is a splice and a class is walked
// without a per-class slice. Its node and attribute are its position. Each
// field holds 1 + its value, so the zero slot is a term without a class: no
// parent, and no constant.
type slot struct {
	parent Handle  // 1 + the union-find parent; 0 while the class does not exist
	ring   Handle  // 1 + the next member of the class, circular
	konst  ConstID // at a root: 1 + the class's constant; 0 for none
	rank   int8
}

// Eq is the equivalence relation. The zero value is not usable; construct
// with New. Eq is not safe for concurrent use: each chase owns its relation,
// or a view of a shared table whose terms no other chase touches (View).
type Eq struct {
	// slots is the term table: (n, a) is slots[n·stride + a] for n below
	// nodes. stride is at least the number of attributes; Seal makes it
	// exactly that.
	slots         []slot
	nodes, stride int
	sealed        bool

	*names
	classes int // classes this relation (or view) created

	con *Conflict
	log Delta // mutations since the last TakeDelta
	// quiet drops the log altogether (StopLogging); replaying suppresses it
	// while Apply replays a delta, so replayed ops are not logged again.
	quiet, replaying bool
}

// names are a relation's name tables, which its views share.
type names struct {
	attrIDs  map[string]AttrID
	attrs    []string
	constIDs map[string]ConstID
	consts   []string
	// viewed is set once a view shares the tables: they are read-only then.
	viewed bool
}

// New returns an empty relation that grows on demand.
func New() *Eq {
	return &Eq{names: &names{attrIDs: make(map[string]AttrID), constIDs: make(map[string]ConstID)}}
}

// AttrIDOf returns the ID of attribute name a, interning it if new. A new
// attribute widens the table, which renumbers every handle; on a sealed
// relation it panics.
func (e *Eq) AttrIDOf(a string) AttrID {
	if id, ok := e.attrIDs[a]; ok {
		return id
	}
	if e.sealed {
		panic(fmt.Sprintf("eq: attribute %q is new to a sealed relation", a))
	}
	id := AttrID(len(e.attrs))
	e.attrIDs[a] = id
	e.attrs = append(e.attrs, a)
	if len(e.attrs) > e.stride {
		e.reshape(e.nodes, max(2*e.stride, len(e.attrs)))
	}
	return id
}

// ConstIDOf returns the ID of constant c, interning it if new. Two constants
// are equal exactly when their IDs are. A relation with views interns
// nothing new: it panics then.
func (e *Eq) ConstIDOf(c string) ConstID {
	if id, ok := e.constIDs[c]; ok {
		return id
	}
	if e.viewed {
		panic(fmt.Sprintf("eq: constant %q is new to a relation with views", c))
	}
	id := ConstID(len(e.consts))
	e.constIDs[c] = id
	e.consts = append(e.consts, c)
	return id
}

// ConstName returns the constant an ID stands for.
func (e *Eq) ConstName(c ConstID) string { return e.consts[c] }

// reshape lays the table out anew for nodes × stride slots, keeping every
// class. A handle moves only when the stride changes.
func (e *Eq) reshape(nodes, stride int) {
	if e.sealed {
		panic(fmt.Sprintf("eq: a sealed relation of %d nodes × %d attributes cannot grow", e.nodes, e.stride))
	}
	if nodes*stride > math.MaxInt32 {
		panic(fmt.Sprintf("eq: %d nodes × %d attributes overflow a handle", nodes, stride))
	}
	slots := make([]slot, nodes*stride)
	if stride == e.stride {
		copy(slots, e.slots)
	} else {
		move := func(v Handle) Handle { // v is 1 + a handle, or 0
			if v == 0 {
				return 0
			}
			return Handle(int(v-1)/e.stride*stride+int(v-1)%e.stride) + 1
		}
		for h, s := range e.slots {
			if s.parent != 0 {
				slots[move(Handle(h)+1)-1] = slot{parent: move(s.parent), ring: move(s.ring), konst: s.konst, rank: s.rank}
			}
		}
	}
	e.slots, e.nodes, e.stride = slots, nodes, stride
}

// Seal fixes the relation's shape: nodes 0 … nodes−1 (or as many as it
// already holds) by the attributes interned so far, one column each. From
// then on a new node or attribute panics, so every handle is valid for the
// relation's life, and its views (View) can share the table.
func (e *Eq) Seal(nodes int) {
	if nodes = max(nodes, e.nodes); nodes != e.nodes || e.stride != len(e.attrs) {
		e.reshape(nodes, len(e.attrs))
	}
	e.sealed = true
}

// View returns a relation over e's table and name tables, with a conflict,
// counters and log of its own. e must be sealed. A view reads and writes
// the slots of the shared table, so views may run concurrently only over
// disjoint sets of terms, and no name is interned once a view exists.
func (e *Eq) View() *Eq {
	if !e.sealed {
		panic("eq: a view of a relation that is not sealed")
	}
	e.viewed = true
	return &Eq{slots: e.slots, nodes: e.nodes, stride: e.stride, sealed: true, names: e.names, quiet: e.quiet}
}

// Lookup returns the handle of the class [n.a], or NoHandle when the class
// does not exist. It allocates nothing.
func (e *Eq) Lookup(n graph.NodeID, a AttrID) Handle {
	if uint(n) < uint(e.nodes) {
		if h := Handle(int(n)*e.stride + int(a)); e.slots[h].parent != 0 {
			return h
		}
	}
	return NoHandle
}

// HandleOf returns the handle for (n, a). It does not create the class:
// until a mutation does, Lookup keeps answering NoHandle. A node beyond the
// table extends it, which moves no handle; on a sealed relation it panics.
func (e *Eq) HandleOf(n graph.NodeID, a AttrID) Handle {
	if int(n) >= e.nodes {
		e.reshape(max(2*e.nodes, int(n)+1), e.stride)
	}
	return Handle(int(n)*e.stride + int(a))
}

// NumHandles returns the number of slots in the table; handles are
// 0 … NumHandles()−1.
func (e *Eq) NumHandles() int { return len(e.slots) }

// HasAt reports whether h's class exists.
func (e *Eq) HasAt(h Handle) bool { return e.slots[h].parent != 0 }

// TermAt returns the term h addresses.
func (e *Eq) TermAt(h Handle) Term {
	return Term{Node: graph.NodeID(int(h) / e.stride), Attr: e.attrs[int(h)%e.stride]}
}

// Next returns the member after h in its class, which is a ring: following
// Next from any member visits the whole class and returns to it.
func (e *Eq) Next(h Handle) Handle { return e.slots[h].ring - 1 }

// create makes h's singleton class if it does not exist yet, and reports
// whether it did.
func (e *Eq) create(h Handle) bool {
	s := &e.slots[h]
	if s.parent != 0 {
		return false
	}
	s.parent, s.ring = h+1, h+1
	e.classes++
	return true
}

func (e *Eq) find(h Handle) Handle {
	root := h
	for p := e.slots[root].parent - 1; p != root; p = e.slots[root].parent - 1 {
		root = p
	}
	for p := e.slots[h].parent - 1; p != root; p = e.slots[h].parent - 1 {
		e.slots[h].parent = root + 1
		h = p
	}
	return root
}

// ConstAt returns the constant of h's class, or NoConst. The class must
// exist.
func (e *Eq) ConstAt(h Handle) ConstID { return e.slots[e.find(h)].konst - 1 }

// SameAt reports whether a and b are in one class. Both classes must exist.
func (e *Eq) SameAt(a, b Handle) bool { return e.find(a) == e.find(b) }

// appendClass appends the members of the class rooted anywhere on h's ring.
func (e *Eq) appendClass(buf []Handle, h Handle) []Handle {
	buf = append(buf, h)
	for m := e.Next(h); m != h; m = e.Next(m) {
		buf = append(buf, m)
	}
	return buf
}

// AssignAt enforces the literal h = c (Rule 1), creating the class if
// missing, and appends to changed the handles whose class changed (for
// pending-match re-checking) — nothing when c was already present. On
// contradiction it records a conflict and still appends the class members so
// callers can observe the change.
func (e *Eq) AssignAt(h Handle, c ConstID, changed []Handle) []Handle {
	e.create(h)
	root := e.find(h)
	switch old := e.slots[root].konst - 1; {
	case old == c:
		return changed
	case old == NoConst:
		e.slots[root].konst = c + 1
	case e.con == nil:
		e.con = &Conflict{Term: e.TermAt(h), C1: e.consts[old], C2: e.consts[c]}
	}
	if e.logging() {
		e.log = append(e.log, Op{Kind: OpAssign, T: e.TermAt(h), C: e.consts[c]})
	}
	return e.appendClass(changed, root)
}

// MergeAt enforces the literal a = b (Rule 2), creating missing classes, and
// appends to changed the handles whose class changed: the members of the
// absorbed side plus, when a constant propagates to it or the call created
// it, the surviving side's — nothing when a and b were already equivalent. A
// merge joining classes with distinct constants records a conflict.
func (e *Eq) MergeAt(a, b Handle, changed []Handle) []Handle {
	newA, newB := e.create(a), e.create(b)
	ra, rb := e.find(a), e.find(b)
	if ra == rb {
		if !newA {
			return changed
		}
		// a = a on a term nobody had created: the class now exists, which is
		// what the literal asks for, and a replay must recreate it.
		if e.logging() {
			e.log = append(e.log, Op{Kind: OpMerge, T: e.TermAt(a), U: e.TermAt(b)})
		}
		return append(changed, a)
	}
	// Union by rank; keep ra as the surviving root.
	if e.slots[ra].rank < e.slots[rb].rank {
		ra, rb = rb, ra
	}
	sa, sb := &e.slots[ra], &e.slots[rb]
	if sa.rank == sb.rank {
		sa.rank++
	}
	changed = e.appendClass(changed, rb)
	switch {
	case sb.konst != 0 && sa.konst == 0:
		// The absorbed side's constant now constrains the survivor's members.
		changed = e.appendClass(changed, ra)
		sa.konst = sb.konst
	case (newA && ra == a) || (newB && ra == b):
		// The survivor is a singleton this call created: going from absent to
		// present is a change too — an antecedent x.A = x.A waits for it.
		changed = append(changed, ra)
	case sb.konst != 0 && sa.konst != sb.konst && e.con == nil:
		e.con = &Conflict{Term: e.TermAt(a), C1: e.consts[sa.konst-1], C2: e.consts[sb.konst-1]}
	}
	sb.konst = 0
	sb.parent = ra + 1
	sa.ring, sb.ring = sb.ring, sa.ring // splice the two rings into one
	if e.logging() {
		e.log = append(e.log, Op{Kind: OpMerge, T: e.TermAt(a), U: e.TermAt(b)})
	}
	return changed
}

func (e *Eq) logging() bool { return !e.quiet && !e.replaying }

// StopLogging makes the relation stop recording its mutations for TakeDelta
// — for a relation whose deltas nobody reads, which is every engine's. Ops
// already recorded are dropped.
func (e *Eq) StopLogging() {
	e.quiet = true
	e.log = nil
}

// TakeDelta returns the mutations applied since the previous TakeDelta and
// resets the log. Replaying the delta on another relation reproduces the
// semantic content (classes and constants), independent of interleaving
// with that relation's own mutations.
func (e *Eq) TakeDelta() Delta {
	d := e.log
	e.log = nil
	return d
}

// Len returns the number of classes this relation created: on a view, the
// terms of its own chase.
func (e *Eq) Len() int { return e.classes }

// Conflicted returns the first conflict found, or nil.
func (e *Eq) Conflicted() *Conflict { return e.con }

// The string surface: each method interns its names and delegates.

func (e *Eq) handleOfTerm(t Term) Handle { return e.HandleOf(t.Node, e.AttrIDOf(t.Attr)) }

// lookupTerm is Lookup by name; an attribute the relation has never seen
// cannot have a class, and is not interned by asking.
func (e *Eq) lookupTerm(t Term) Handle {
	a, ok := e.attrIDs[t.Attr]
	if !ok {
		return NoHandle
	}
	return e.Lookup(t.Node, a)
}

func (e *Eq) termsOf(hs []Handle) []Term {
	if len(hs) == 0 {
		return nil
	}
	out := make([]Term, len(hs))
	for i, h := range hs {
		out[i] = e.TermAt(h)
	}
	return out
}

// Has reports whether the class [t] exists.
func (e *Eq) Has(t Term) bool { return e.lookupTerm(t) != NoHandle }

// Const returns the constant attached to [t], if any.
func (e *Eq) Const(t Term) (string, bool) {
	h := e.lookupTerm(t)
	if h == NoHandle {
		return "", false
	}
	c := e.ConstAt(h)
	if c == NoConst {
		return "", false
	}
	return e.consts[c], true
}

// Same reports whether t and u exist and are in the same class.
func (e *Eq) Same(t, u Term) bool {
	ht, hu := e.lookupTerm(t), e.lookupTerm(u)
	return ht != NoHandle && hu != NoHandle && e.SameAt(ht, hu)
}

// AssignConst is AssignAt by name; it returns the changed terms in a fresh
// slice, nil when nothing changed.
func (e *Eq) AssignConst(t Term, c string) []Term {
	return e.termsOf(e.AssignAt(e.handleOfTerm(t), e.ConstIDOf(c), nil))
}

// Merge is MergeAt by name; it returns the changed terms in a fresh slice,
// nil when t and u were already equivalent. Both attributes are interned
// before either handle is taken, since a new one moves every handle.
func (e *Eq) Merge(t, u Term) []Term {
	a, b := e.AttrIDOf(t.Attr), e.AttrIDOf(u.Attr)
	ht := e.HandleOf(t.Node, a)
	return e.termsOf(e.MergeAt(ht, e.HandleOf(u.Node, b), nil))
}

// Apply replays a delta taken from another relation and returns the changed
// terms in a fresh slice. Conflicts discovered during replay are recorded
// exactly as for local mutations; replayed ops are not logged again. The
// delta's attributes are interned first, so that no handle moves while the
// changed handles are collected.
func (e *Eq) Apply(d Delta) []Term {
	for i := range d {
		e.AttrIDOf(d[i].T.Attr)
		if d[i].Kind == OpMerge {
			e.AttrIDOf(d[i].U.Attr)
		}
	}
	var changed []Handle
	e.replaying = true
	for i := range d {
		op := &d[i]
		t := e.handleOfTerm(op.T)
		switch op.Kind {
		case OpAssign:
			changed = e.AssignAt(t, e.ConstIDOf(op.C), changed)
		case OpMerge:
			changed = e.MergeAt(t, e.handleOfTerm(op.U), changed)
		}
	}
	e.replaying = false
	return e.termsOf(changed)
}

// AllTerms returns every term whose class exists, in a fresh slice in no
// particular order. On a view, that is every view's terms.
func (e *Eq) AllTerms() []Term {
	var out []Term
	for h := range e.slots {
		if e.HasAt(Handle(h)) {
			out = append(out, e.TermAt(Handle(h)))
		}
	}
	return out
}

// AllConsts returns every constant the relation has interned, attached to a
// class or not. The slice is the relation's table; callers must not mutate
// it.
func (e *Eq) AllConsts() []string { return e.consts }

// Classes returns a canonical rendering of the relation: each class as its
// sorted member list plus constant, classes sorted lexicographically. Two
// relations with equal Classes() output are semantically identical — used by
// convergence tests.
func (e *Eq) Classes() string {
	var lines []string
	var members []Handle
	for i := range e.slots {
		h := Handle(i)
		if e.slots[h].parent != h+1 {
			continue // not a root, or no class
		}
		members = e.appendClass(members[:0], h)
		names := make([]string, len(members))
		for j, m := range members {
			names[j] = e.TermAt(m).String()
		}
		sort.Strings(names)
		line := strings.Join(names, ",")
		if c := e.slots[h].konst; c != 0 {
			line += "=" + e.consts[c-1]
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
