package eq

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/graph"
)

// The term index — (node, attribute ID) → Handle — checked against a map.
// An operation stream is bytes, so the property test and the fuzzer drive
// the same decoder: each op is a kind byte followed by its arguments, and a
// stream that runs out reads zeros.
const (
	opIntern = iota // a: AttrIDOf
	opHandle        // node, page, a: HandleOf
	opLookup        // node, page, a: Lookup
	opAssign        // node, page, a, c: AssignAt on HandleOf
	opMerge         // node, page, a, node, page, a: MergeAt on two HandleOfs
	opNew           // a new, empty relation beside the others
	opSwitch        // r: make relation r mod count the current one
	opSeal          // k: Seal(16·k)
	numOps
)

// maxRelations bounds opNew, and so the memory a stream can ask for.
const maxRelations = 4

// termKey names a term by attribute name: relations number their
// attributes each in its own order.
type termKey struct {
	n graph.NodeID
	a string
}

// termRef is one relation and the reference it must agree with.
type termRef struct {
	e     *Eq
	attrs map[string]AttrID
	terms map[termKey]bool // terms a mutation created
	// seen holds every term asked for, for the final cross-checks.
	seen map[termKey]bool
	// sealed is set by opSeal, and shape is then NumHandles: a sealed table
	// never changes size.
	sealed bool
	shape  int
}

func newTermRef() *termRef {
	return &termRef{e: New(), attrs: map[string]AttrID{}, terms: map[termKey]bool{}, seen: map[termKey]bool{}}
}

// opReader decodes a stream: 16 attribute names, and node IDs spread over
// four pages of 4096, so most of them lie far beyond any Seal a stream
// makes and a growing table's nodes double several times.
type opReader struct{ b []byte }

func (o *opReader) byte() byte {
	if len(o.b) == 0 {
		return 0
	}
	b := o.b[0]
	o.b = o.b[1:]
	return b
}

func (o *opReader) attr() string { return "a" + strconv.Itoa(int(o.byte()%16)) }

func (o *opReader) term() termKey {
	n := graph.NodeID(o.byte())
	n |= graph.NodeID(o.byte()%4) << 12
	return termKey{n, o.attr()}
}

// panics reports whether f panicked.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// refused reports whether an op on the terms ks must be refused, and checks
// that it is: on a sealed relation, a new attribute or a node beyond the
// table panics.
func (r *termRef) refused(t *testing.T, ks ...termKey) bool {
	t.Helper()
	grow := false
	for _, k := range ks {
		_, known := r.attrs[k.a]
		grow = grow || !known || int(k.n) >= r.e.nodes
	}
	if !r.sealed || !grow {
		return false
	}
	if !panics(func() {
		for _, k := range ks {
			r.e.HandleOf(k.n, r.e.AttrIDOf(k.a))
		}
	}) {
		t.Fatalf("asking a sealed relation for %v did not panic", ks)
	}
	return true
}

func (r *termRef) attrID(t *testing.T, name string) AttrID {
	t.Helper()
	got := r.e.AttrIDOf(name)
	want, ok := r.attrs[name]
	if !ok {
		want = AttrID(len(r.attrs))
		r.attrs[name] = want
	}
	if got != want {
		t.Fatalf("AttrIDOf(%q) = %d, want %d", name, got, want)
	}
	return got
}

// handle returns k's handle, which must be its position in the table; its
// attribute must be interned already, since a new one moves every handle.
func (r *termRef) handle(t *testing.T, k termKey) Handle {
	t.Helper()
	r.seen[k] = true
	h := r.e.HandleOf(k.n, r.attrs[k.a])
	if h < 0 || int(h) >= r.e.NumHandles() {
		t.Fatalf("HandleOf%v = %d, outside the table of %d slots", k, h, r.e.NumHandles())
	}
	if tm := r.e.TermAt(h); tm != (Term{Node: k.n, Attr: k.a}) {
		t.Fatalf("TermAt(HandleOf%v) = %v", k, tm)
	}
	return h
}

// check asks r for k without growing anything, by ID when r knows the
// attribute and by name when it does not.
func (r *termRef) check(t *testing.T, k termKey) {
	t.Helper()
	a, known := r.attrs[k.a]
	if !known {
		if r.e.Has(Term{Node: k.n, Attr: k.a}) {
			t.Fatalf("Has%v, for an attribute never interned", k)
		}
		return
	}
	got := r.e.Lookup(k.n, a)
	if !r.terms[k] {
		if got != NoHandle {
			t.Fatalf("Lookup%v = %d, want none", k, got)
		}
		return
	}
	if want := r.e.HandleOf(k.n, a); got != want {
		t.Fatalf("Lookup%v = %d, want its handle %d", k, got, want)
	}
}

// runTermOps drives the stream through the relations and their references
// and fails at the first disagreement. At the end every relation is asked
// about every term any relation saw, so a term one added must not show in
// another, and no two terms may share a handle. It returns the relations.
func runTermOps(t *testing.T, stream []byte) []*termRef {
	t.Helper()
	o := &opReader{b: stream}
	refs := []*termRef{newTermRef()}
	cur := refs[0]
	for len(o.b) > 0 {
		switch o.byte() % numOps {
		case opIntern:
			a := o.attr()
			if _, known := cur.attrs[a]; !cur.sealed || known {
				cur.attrID(t, a)
			} else if !panics(func() { cur.e.AttrIDOf(a) }) {
				t.Fatalf("a sealed relation interned %q", a)
			}
		case opHandle:
			if k := o.term(); !cur.refused(t, k) {
				cur.attrID(t, k.a)
				cur.handle(t, k)
			}
		case opLookup:
			cur.check(t, o.term())
		case opAssign:
			k, c := o.term(), strconv.Itoa(int(o.byte()%4))
			if !cur.refused(t, k) {
				cur.attrID(t, k.a)
				cur.e.AssignAt(cur.handle(t, k), cur.e.ConstIDOf(c), nil)
				cur.terms[k] = true
			}
		case opMerge:
			k, l := o.term(), o.term()
			if !cur.refused(t, k, l) {
				cur.attrID(t, k.a)
				cur.attrID(t, l.a)
				h := cur.handle(t, k)
				cur.e.MergeAt(h, cur.handle(t, l), nil)
				cur.terms[k], cur.terms[l] = true, true
			}
		case opNew:
			if len(refs) < maxRelations {
				refs = append(refs, newTermRef())
			}
		case opSwitch:
			cur = refs[int(o.byte())%len(refs)]
		case opSeal:
			k := 16 * int(o.byte())
			if !cur.sealed {
				nodes := max(k, cur.e.nodes)
				cur.e.Seal(k)
				cur.sealed, cur.shape = true, nodes*len(cur.attrs)
			}
		}
		if cur.e.Len() != len(cur.terms) {
			t.Fatalf("%d terms, want %d", cur.e.Len(), len(cur.terms))
		}
		if cur.sealed && cur.e.NumHandles() != cur.shape {
			t.Fatalf("a sealed relation has %d slots, sealed at %d", cur.e.NumHandles(), cur.shape)
		}
	}
	for _, r := range refs {
		for _, other := range refs {
			for k := range other.seen {
				r.check(t, k)
				r.check(t, termKey{k.n + 1, k.a})
			}
		}
		at := map[Handle]termKey{}
		for k := range r.seen {
			h := r.e.HandleOf(k.n, r.attrs[k.a])
			if prev, ok := at[h]; ok {
				t.Fatalf("%v and %v share handle %d", prev, k, h)
			}
			at[h] = k
		}
	}
	return refs
}

// termStream builds a stream op by op, for the hand-made cases below.
type termStream []byte

func (s termStream) op(kind byte, args ...byte) termStream {
	return append(append(s, kind), args...)
}

// termScenario is a case the index must get right by construction.
type termScenario struct {
	name   string
	stream []byte
}

// termScenarios are FuzzTermIndex's seeds too.
func termScenarios() []termScenario {
	var late termStream
	for n := byte(0); n < 64; n++ {
		late = late.op(opAssign, n, 0, 0, n%4).op(opHandle, n, 0, 1)
	}
	for a := byte(2); a < 16; a++ {
		late = late.op(opIntern, a).op(opMerge, a, 0, a, a+1, 0, 1).op(opLookup, a+1, 0, a)
	}

	sparse := func(seal bool) []byte {
		var s termStream
		for page := byte(0); page < 4; page++ {
			s = s.op(opAssign, 250, page, 3, page).op(opLookup, 250, page, 3).op(opLookup, 249, page, 3)
			s = s.op(opMerge, 7, page, 5, 250, 3-page, 3).op(opLookup, 7, page, 5)
			if seal && page == 1 {
				// The table already reaches node 250 of page 3, past 16·4.
				s = s.op(opSeal, 4)
			}
		}
		// Attribute 6 is new, and node 255 of page 3 lies past the table.
		return s.op(opAssign, 9, 1, 6, 0).op(opHandle, 255, 3, 5).op(opHandle, 9, 0, 5).op(opLookup, 9, 3, 5)
	}

	sideBySide := termStream{}.
		op(opAssign, 1, 0, 0, 1).op(opHandle, 2, 0, 1).
		op(opNew).
		op(opAssign, 3, 0, 0, 2).op(opIntern, 9).op(opMerge, 2, 0, 1, 200, 2, 9).
		op(opSwitch, 1).
		op(opIntern, 8).op(opAssign, 4, 0, 8, 1).op(opAssign, 2, 0, 1, 3).op(opHandle, 200, 2, 9).
		op(opNew).op(opSwitch, 2).op(opAssign, 44, 1, 8, 0).
		op(opSwitch, 0).op(opLookup, 4, 0, 8).op(opLookup, 2, 0, 1)

	notYet := termStream{}.
		op(opHandle, 5, 0, 6).op(opLookup, 5, 0, 6).
		op(opHandle, 6, 0, 6).op(opHandle, 5, 0, 7).op(opLookup, 5, 0, 6).
		op(opMerge, 6, 0, 6, 6, 0, 6).op(opLookup, 5, 0, 6).op(opLookup, 6, 0, 6).
		op(opAssign, 5, 0, 6, 0).op(opLookup, 5, 0, 6).op(opLookup, 5, 0, 7)

	sealedFirst := termStream{}.
		op(opIntern, 1).op(opIntern, 2).op(opSeal, 2).
		op(opAssign, 31, 0, 1, 0).op(opMerge, 31, 0, 2, 0, 0, 1).op(opLookup, 0, 0, 2).
		op(opIntern, 3).op(opHandle, 32, 0, 1).op(opMerge, 1, 0, 1, 1, 1, 2)

	return []termScenario{
		{"attributes interned late", late},
		{"sparse nodes, sealed midway", sparse(true)},
		{"sparse nodes, growing", sparse(false)},
		{"relations side by side", sideBySide},
		{"handle before term", notYet},
		{"sealed before any term", sealedFirst},
	}
}

// Property: Lookup, HandleOf, TermAt and AttrIDOf answer as a map keyed by
// (node, attribute) does, across interleaved mutations, late attributes,
// sparse node IDs on growing and sealed relations, and relations side by
// side.
func TestTermIndexAgreesWithMap(t *testing.T) {
	for _, sc := range termScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for _, r := range runTermOps(t, sc.stream) {
				var ns []graph.NodeID
				var as []AttrID
				var hs []Handle
				for k := range r.terms {
					a := r.attrs[k.a]
					ns, as, hs = append(ns, k.n), append(as, a), append(hs, r.e.Lookup(k.n, a))
				}
				// Both finds are arithmetic and a load: nothing is allocated
				// for a term that exists.
				if got := testing.AllocsPerRun(100, func() {
					for i, h := range hs {
						if r.e.HandleOf(ns[i], as[i]) != h || r.e.Lookup(ns[i], as[i]) != h {
							t.Fatal("index moved")
						}
					}
				}); got != 0 {
					t.Errorf("Lookup and HandleOf on existing terms: %v allocs per run, want 0", got)
				}
			}
		})
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		stream := make([]byte, 20+rng.Intn(400))
		rng.Read(stream)
		runTermOps(t, stream)
	}
}

// FuzzTermIndex runs the same check on arbitrary streams. CI replays the
// seeds deterministically (see ci.yml); run with -fuzz=FuzzTermIndex to
// search further.
func FuzzTermIndex(f *testing.F) {
	for _, sc := range termScenarios() {
		f.Add(sc.stream)
	}
	f.Fuzz(func(t *testing.T, stream []byte) {
		runTermOps(t, stream)
	})
}

// A sealed relation has the shape Seal gave it, nodes × its attributes, and
// refuses to grow: a node beyond it, or a new attribute, panics. Its views
// share the table: a class one view creates is a class of the relation and
// of every other view, while each counts, and conflicts, on its own.
func TestSealedRelationRefusesToGrow(t *testing.T) {
	e := New()
	a, b := e.AttrIDOf("A"), e.AttrIDOf("B")
	e.AssignConst(Term{Node: 3, Attr: "A"}, "1")
	e.ConstIDOf("0")
	e.AttrIDOf("C") // widens the table past three columns
	e.Seal(100)
	if e.NumHandles() != 100*3 {
		t.Fatalf("sealed at 100 nodes × 3 attributes: %d slots", e.NumHandles())
	}
	if c, _ := e.Const(Term{Node: 3, Attr: "A"}); c != "1" {
		t.Fatalf("the class of 3.A lost its constant in the seal: %q", c)
	}
	for what, grow := range map[string]func(){
		"a node beyond it":  func() { e.HandleOf(100, a) },
		"a new attribute":   func() { e.AttrIDOf("D") },
		"a term beyond it":  func() { e.Merge(Term{Node: 1, Attr: "A"}, Term{Node: 400, Attr: "B"}) },
		"a view's new node": func() { e.View().HandleOf(100, b) },
	} {
		if !panics(grow) {
			t.Errorf("%s: a sealed relation grew", what)
		}
	}
	v, w := e.View(), e.View()
	v.AssignAt(v.HandleOf(7, b), v.ConstIDOf("1"), nil)
	w.MergeAt(w.HandleOf(8, b), w.HandleOf(8, a), nil)
	if !e.Has(Term{Node: 7, Attr: "B"}) || !w.Has(Term{Node: 7, Attr: "B"}) || !v.Same(Term{Node: 8, Attr: "A"}, Term{Node: 8, Attr: "B"}) {
		t.Error("a view's class is not the relation's")
	}
	if v.Len() != 1 || w.Len() != 2 {
		t.Errorf("views count %d and %d classes, want 1 and 2", v.Len(), w.Len())
	}
	v.AssignAt(v.HandleOf(7, b), v.ConstIDOf("0"), nil) // interned before the views
	if v.Conflicted() == nil || w.Conflicted() != nil || e.Conflicted() != nil {
		t.Error("a view's conflict is not its own")
	}
	if !panics(func() { w.ConstIDOf("2") }) {
		t.Error("a relation with views interned a new constant")
	}
	if e.NumHandles() != 100*3 {
		t.Errorf("the views changed the table's shape: %d slots", e.NumHandles())
	}
}
