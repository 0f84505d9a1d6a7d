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
// deltas taken from one replica can be replayed on another in any order and
// all replicas converge — the property the parallel algorithms rely on for
// asynchronous broadcast.
//
// The relation has two surfaces over one implementation. The ID surface is
// what the reasoning engines run on: attribute and constant names are
// interned once (AttrIDOf, ConstIDOf — the same resolve-once idiom as
// graph.Reader's LabelIDOf), a term is addressed by a dense Handle found
// from (node, attribute ID) by one load from the attribute's handle column,
// and AssignAt / MergeAt / ApplyAppend report changed classes by appending
// handles to a buffer the caller owns — no string is hashed and nothing is
// allocated per operation once the tables are warm. The string surface (Term,
// AssignConst, Merge, Apply, Const, Same, …) is a thin wrapper that interns
// and delegates; it is the boundary for tests, conflict rendering, the
// witness model and the broadcast Op, which stays name-shaped so replicas
// need not agree on IDs.
//
// A handle is not a term: HandleOf allocates the slot (the pending index of
// the engines files blocked matches under it) without creating the class
// [x.A]; only a mutation creates it. Has, Same, Len, AllTerms, Classes and
// Lookup see created classes only.
package eq

import (
	"fmt"
	"slices"
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

// Op is one monotone mutation, replayable on another replica.
type Op struct {
	Kind OpKind
	T, U Term
	C    string
}

// Delta is an ordered batch of operations taken from a replica.
type Delta []Op

// AttrID and ConstID are a relation's dense IDs for attribute and constant
// names. They are private to the relation that issued them and to its
// Clones.
type (
	AttrID  int32
	ConstID int32
)

// Handle addresses one (node, attribute) slot of a relation. Like the name
// IDs, it is valid for the relation that issued it and, for handles issued
// before the copy, its Clones.
type Handle int32

const (
	// NoHandle is Lookup's "no such class".
	NoHandle Handle = -1
	// NoConst is ConstAt's "class carries no constant".
	NoConst ConstID = -1

	// noClass in slot.parent marks a handle whose class has not been created.
	noClass Handle = -1
)

// slot is one handle's record: its key, the union-find node, and the
// intrusive ring of the members of its class — so a merge is a splice and a
// class is walked without a per-class slice.
type slot struct {
	node   int32 // graph.NodeID; the storage layer packs node IDs into 32 bits too
	attr   AttrID
	parent Handle  // union-find parent; noClass until the class is created
	ring   Handle  // next member of the class, circular
	konst  ConstID // at a root: the class's constant, or NoConst
	rank   int8
}

// Eq is the equivalence relation. The zero value is not usable; construct
// with New. Eq is not safe for concurrent use; each worker owns a replica.
type Eq struct {
	slots []slot
	// byAttr[a][n] is 1 + the handle of (n, a), and 0 when (n, a) has none,
	// so a fresh column needs no fill. A column exists only for an attribute
	// that got a handle; a new attribute adds one and leaves the others be.
	byAttr [][]Handle
	// nodes is Reserve's hint: the least length a column is made or grown to.
	nodes   int
	classes int // handles whose class exists

	attrIDs  map[string]AttrID
	attrs    []string
	constIDs map[string]ConstID
	consts   []string

	con *Conflict
	log Delta // mutations since the last TakeDelta
	// quiet drops the log altogether (StopLogging); replaying suppresses it
	// while Apply replays a remote delta, so received ops are not
	// re-broadcast by the receiving worker.
	quiet, replaying bool
}

// New returns an empty relation.
func New() *Eq {
	return &Eq{
		attrIDs:  make(map[string]AttrID),
		constIDs: make(map[string]ConstID),
	}
}

// AttrIDOf returns the ID of attribute name a, interning it if new.
func (e *Eq) AttrIDOf(a string) AttrID {
	if id, ok := e.attrIDs[a]; ok {
		return id
	}
	id := AttrID(len(e.attrs))
	e.attrIDs[a] = id
	e.attrs = append(e.attrs, a)
	return id
}

// ConstIDOf returns the ID of constant c, interning it if new. Two constants
// are equal exactly when their IDs are.
func (e *Eq) ConstIDOf(c string) ConstID {
	if id, ok := e.constIDs[c]; ok {
		return id
	}
	id := ConstID(len(e.consts))
	e.constIDs[c] = id
	e.consts = append(e.consts, c)
	return id
}

// ConstName returns the constant an ID stands for.
func (e *Eq) ConstName(c ConstID) string { return e.consts[c] }

// Reserve is a capacity hint: a column made or grown from now on holds node
// IDs below nodes, so a relation over that many nodes makes each column once.
func (e *Eq) Reserve(nodes int) { e.nodes = max(e.nodes, nodes) }

// slotOf returns the handle allocated for (n, a), created or not.
func (e *Eq) slotOf(n graph.NodeID, a AttrID) Handle {
	if int(a) < len(e.byAttr) {
		if col := e.byAttr[a]; uint(n) < uint(len(col)) {
			return col[n] - 1
		}
	}
	return NoHandle
}

// Lookup returns the handle of the class [n.a], or NoHandle when the class
// does not exist. It allocates nothing.
func (e *Eq) Lookup(n graph.NodeID, a AttrID) Handle {
	if h := e.slotOf(n, a); h >= 0 && e.slots[h].parent != noClass {
		return h
	}
	return NoHandle
}

// HandleOf returns the handle for (n, a), allocating it if new. It does not
// create the class: until a mutation does, Lookup keeps answering NoHandle.
func (e *Eq) HandleOf(n graph.NodeID, a AttrID) Handle {
	if h := e.slotOf(n, a); h >= 0 {
		return h
	}
	if int(a) >= len(e.byAttr) {
		e.byAttr = append(e.byAttr, make([][]Handle, int(a)+1-len(e.byAttr))...)
	}
	if col := e.byAttr[a]; int(n) >= len(col) {
		e.byAttr[a] = make([]Handle, max(2*len(col), int(n)+1, e.nodes))
		copy(e.byAttr[a], col)
	}
	h := Handle(len(e.slots))
	if len(e.slots) == cap(e.slots) {
		// The table only grows, for the whole run: double it, where append
		// alone would grow it by a quarter at a time and copy several times
		// its final size on the way there.
		e.slots = slices.Grow(e.slots, max(len(e.slots), 64))
	}
	e.slots = append(e.slots, slot{node: int32(n), attr: a, parent: noClass, ring: h, konst: NoConst})
	e.byAttr[a][n] = h + 1
	return h
}

// NumHandles returns the number of handles allocated; handles are
// 0 … NumHandles()−1.
func (e *Eq) NumHandles() int { return len(e.slots) }

// HasAt reports whether h's class exists.
func (e *Eq) HasAt(h Handle) bool { return e.slots[h].parent != noClass }

// TermAt returns the term h addresses.
func (e *Eq) TermAt(h Handle) Term {
	s := &e.slots[h]
	return Term{Node: graph.NodeID(s.node), Attr: e.attrs[s.attr]}
}

// Next returns the member after h in its class, which is a ring: following
// Next from any member visits the whole class and returns to it.
func (e *Eq) Next(h Handle) Handle { return e.slots[h].ring }

// create makes h's singleton class if it does not exist yet, and reports
// whether it did.
func (e *Eq) create(h Handle) bool {
	if e.slots[h].parent != noClass {
		return false
	}
	e.slots[h].parent = h
	e.classes++
	return true
}

func (e *Eq) find(h Handle) Handle {
	root := h
	for e.slots[root].parent != root {
		root = e.slots[root].parent
	}
	for e.slots[h].parent != root {
		h, e.slots[h].parent = e.slots[h].parent, root
	}
	return root
}

// ConstAt returns the constant of h's class, or NoConst. The class must
// exist.
func (e *Eq) ConstAt(h Handle) ConstID { return e.slots[e.find(h)].konst }

// SameAt reports whether a and b are in one class. Both classes must exist.
func (e *Eq) SameAt(a, b Handle) bool { return e.find(a) == e.find(b) }

// appendClass appends the members of the class rooted anywhere on h's ring.
func (e *Eq) appendClass(buf []Handle, h Handle) []Handle {
	buf = append(buf, h)
	for m := e.slots[h].ring; m != h; m = e.slots[m].ring {
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
	switch old := e.slots[root].konst; {
	case old == c:
		return changed
	case old == NoConst:
		e.slots[root].konst = c
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
		// what the literal asks for, and peers must learn it.
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
	case sb.konst != NoConst && sa.konst == NoConst:
		// The absorbed side's constant now constrains the survivor's members.
		changed = e.appendClass(changed, ra)
		sa.konst = sb.konst
	case (newA && ra == a) || (newB && ra == b):
		// The survivor is a singleton this call created: going from absent to
		// present is a change too — an antecedent x.A = x.A waits for it.
		changed = append(changed, ra)
	case sb.konst != NoConst && sa.konst != sb.konst && e.con == nil:
		e.con = &Conflict{Term: e.TermAt(a), C1: e.consts[sa.konst], C2: e.consts[sb.konst]}
	}
	sb.konst = NoConst
	sb.parent = ra
	sa.ring, sb.ring = sb.ring, sa.ring // splice the two rings into one
	if e.logging() {
		e.log = append(e.log, Op{Kind: OpMerge, T: e.TermAt(a), U: e.TermAt(b)})
	}
	return changed
}

// ApplyAppend replays a delta from another replica and appends to changed
// the handles whose class changed. Conflicts discovered during replay are
// recorded exactly as for local mutations. Replayed ops are not re-logged,
// so a worker never re-broadcasts what it received.
func (e *Eq) ApplyAppend(d Delta, changed []Handle) []Handle {
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
	return changed
}

func (e *Eq) logging() bool { return !e.quiet && !e.replaying }

// StopLogging makes the relation stop recording its mutations for TakeDelta
// — for a replica whose deltas nobody reads (a sequential run, a lone
// worker). Ops already recorded are dropped.
func (e *Eq) StopLogging() {
	e.quiet = true
	e.log = nil
}

// Logged returns the mutations recorded since the log was last emptied, as a
// view that the next mutation or ResetLog invalidates: for a caller that
// copies them out at once (a broadcast) and then calls ResetLog, so the log's
// storage is reused where TakeDelta would give it away.
func (e *Eq) Logged() Delta { return e.log }

// ResetLog empties the log, keeping its storage.
func (e *Eq) ResetLog() { e.log = e.log[:0] }

// TakeDelta returns the mutations applied since the previous TakeDelta and
// resets the log. Replaying the delta on another replica reproduces the
// semantic content (classes and constants), independent of interleaving
// with that replica's own mutations.
func (e *Eq) TakeDelta() Delta {
	d := e.log
	e.log = nil
	return d
}

// Len returns the number of terms tracked.
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
// nil when t and u were already equivalent.
func (e *Eq) Merge(t, u Term) []Term {
	return e.termsOf(e.MergeAt(e.handleOfTerm(t), e.handleOfTerm(u), nil))
}

// Apply is ApplyAppend returning the changed terms in a fresh slice.
func (e *Eq) Apply(d Delta) []Term { return e.termsOf(e.ApplyAppend(d, nil)) }

// Clone returns an independent deep copy, including any pending log and
// conflict. The copy issues the same IDs and handles for everything the
// original had interned, so literals resolved against one serve the other.
func (e *Eq) Clone() *Eq {
	c := &Eq{
		slots:    append([]slot(nil), e.slots...),
		byAttr:   make([][]Handle, len(e.byAttr)),
		nodes:    e.nodes,
		classes:  e.classes,
		attrIDs:  make(map[string]AttrID, len(e.attrIDs)),
		attrs:    append([]string(nil), e.attrs...),
		constIDs: make(map[string]ConstID, len(e.constIDs)),
		consts:   append([]string(nil), e.consts...),
		log:      append(Delta(nil), e.log...),
		quiet:    e.quiet,
	}
	// One allocation backs every column; HandleOf grows a column into a
	// fresh one, never in place.
	backing := slices.Concat(e.byAttr...)
	for a, col := range e.byAttr {
		c.byAttr[a], backing = backing[:len(col):len(col)], backing[len(col):]
	}
	for s, id := range e.attrIDs {
		c.attrIDs[s] = id
	}
	for s, id := range e.constIDs {
		c.constIDs[s] = id
	}
	if e.con != nil {
		cc := *e.con
		c.con = &cc
	}
	return c
}

// AllTerms returns every term whose class exists, in a fresh slice in no
// particular order.
func (e *Eq) AllTerms() []Term {
	out := make([]Term, 0, e.classes)
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
// replicas with equal Classes() output are semantically identical — used by
// convergence tests.
func (e *Eq) Classes() string {
	var lines []string
	var members []Handle
	for i := range e.slots {
		h := Handle(i)
		if e.slots[h].parent != h {
			continue // not a root, or no class
		}
		members = e.appendClass(members[:0], h)
		names := make([]string, len(members))
		for j, m := range members {
			names[j] = e.TermAt(m).String()
		}
		sort.Strings(names)
		line := strings.Join(names, ",")
		if c := e.slots[h].konst; c != NoConst {
			line += "=" + e.consts[c]
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
