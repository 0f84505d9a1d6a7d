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
	opIntern  = iota // a: AttrIDOf
	opHandle         // node, page, a: HandleOf
	opLookup         // node, page, a: Lookup
	opAssign         // node, page, a, c: AssignAt on HandleOf
	opMerge          // node, page, a, node, page, a: MergeAt on two HandleOfs
	opNew            // a new, empty relation beside the others
	opSwitch         // r: make relation r mod count the current one
	opReserve        // k: Reserve(16·k)
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
	e       *Eq
	attrs   map[string]AttrID
	handles map[termKey]Handle
	terms   map[Handle]bool // handles a mutation made into terms
}

func newTermRef() *termRef {
	return &termRef{e: New(), attrs: map[string]AttrID{}, handles: map[termKey]Handle{}, terms: map[Handle]bool{}}
}

// opReader decodes a stream: 16 attribute names, and node IDs spread over
// four pages of 4096, so most of them lie far beyond any Reserve a stream
// makes and columns are sparse.
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

func (r *termRef) handle(t *testing.T, k termKey) Handle {
	t.Helper()
	got := r.e.HandleOf(k.n, r.attrID(t, k.a))
	want, ok := r.handles[k]
	if !ok {
		want = Handle(len(r.handles))
		r.handles[k] = want
	}
	if got != want {
		t.Fatalf("HandleOf%v = %d, want %d", k, got, want)
	}
	if tm := r.e.TermAt(got); tm != (Term{Node: k.n, Attr: k.a}) {
		t.Fatalf("TermAt(HandleOf%v) = %v", k, tm)
	}
	return got
}

// check asks r for k without allocating anything, by ID when r knows the
// attribute and by name when it does not.
func (r *termRef) check(t *testing.T, k termKey) {
	t.Helper()
	want := NoHandle
	if h, ok := r.handles[k]; ok && r.terms[h] {
		want = h
	}
	got := NoHandle
	if a, ok := r.attrs[k.a]; ok {
		got = r.e.Lookup(k.n, a)
	} else if r.e.Has(Term{Node: k.n, Attr: k.a}) {
		t.Fatalf("Has%v, for an attribute never interned", k)
	}
	if got != want {
		t.Fatalf("Lookup%v = %d, want %d", k, got, want)
	}
}

// runTermOps drives the stream through the relations and their references
// and fails at the first disagreement. At the end every relation is asked
// about every term any relation saw, so a term one added must not show in
// another. It returns the relations.
func runTermOps(t *testing.T, stream []byte) []*termRef {
	t.Helper()
	o := &opReader{b: stream}
	refs := []*termRef{newTermRef()}
	cur := refs[0]
	for len(o.b) > 0 {
		switch o.byte() % numOps {
		case opIntern:
			cur.attrID(t, o.attr())
		case opHandle:
			cur.handle(t, o.term())
		case opLookup:
			cur.check(t, o.term())
		case opAssign:
			h := cur.handle(t, o.term())
			cur.e.AssignAt(h, cur.e.ConstIDOf(strconv.Itoa(int(o.byte()%4))), nil)
			cur.terms[h] = true
		case opMerge:
			a, b := cur.handle(t, o.term()), cur.handle(t, o.term())
			cur.e.MergeAt(a, b, nil)
			cur.terms[a], cur.terms[b] = true, true
		case opNew:
			if len(refs) < maxRelations {
				refs = append(refs, newTermRef())
			}
		case opSwitch:
			cur = refs[int(o.byte())%len(refs)]
		case opReserve:
			cur.e.Reserve(16 * int(o.byte()))
		}
		if cur.e.NumHandles() != len(cur.handles) || cur.e.Len() != len(cur.terms) {
			t.Fatalf("%d handles and %d terms, want %d and %d", cur.e.NumHandles(), cur.e.Len(), len(cur.handles), len(cur.terms))
		}
	}
	for _, r := range refs {
		for _, other := range refs {
			for k := range other.handles {
				r.check(t, k)
				r.check(t, termKey{k.n + 1, k.a})
			}
		}
		for k, h := range r.handles {
			if got := r.e.HandleOf(k.n, r.attrs[k.a]); got != h {
				t.Fatalf("HandleOf%v = %d at the end, want %d", k, got, h)
			}
		}
		if r.e.NumHandles() != len(r.handles) {
			t.Fatalf("asking allocated: %d handles, want %d", r.e.NumHandles(), len(r.handles))
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

	sparse := func(reserve bool) []byte {
		var s termStream
		if reserve {
			s = s.op(opReserve, 4) // 64 nodes: pages 1–3 lie beyond it
		}
		for page := byte(0); page < 4; page++ {
			s = s.op(opAssign, 250, page, 3, page).op(opLookup, 250, page, 3).op(opLookup, 249, page, 3)
			s = s.op(opMerge, 7, page, 5, 250, 3-page, 3).op(opLookup, 7, page, 5)
		}
		return s
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

	return []termScenario{
		{"attributes interned late", late},
		{"sparse nodes past Reserve", sparse(true)},
		{"sparse nodes, no Reserve", sparse(false)},
		{"relations side by side", sideBySide},
		{"handle before term", notYet},
	}
}

// Property: Lookup, HandleOf and AttrIDOf answer as a map keyed by (node,
// attribute) does, across interleaved mutations, late attributes, sparse
// node IDs with and without Reserve, and relations side by side.
func TestTermIndexAgreesWithMap(t *testing.T) {
	for _, sc := range termScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			for _, r := range runTermOps(t, sc.stream) {
				var ns []graph.NodeID
				var as []AttrID
				var hs []Handle
				for k, h := range r.handles {
					if r.terms[h] {
						ns, as, hs = append(ns, k.n), append(as, r.attrs[k.a]), append(hs, h)
					}
				}
				// Both finds are a load from a column: nothing is allocated
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

// Reserve is what keeps a relation's columns from doubling their way up: a
// column is made at the reserved length, for the first attribute and for one
// interned later, and grows past it only for a node beyond it.
func TestReserveSizesColumnsOnce(t *testing.T) {
	e := New()
	e.Reserve(1000)
	a := e.AttrIDOf("A")
	for n := 0; n < 1000; n += 7 {
		e.HandleOf(graph.NodeID(n), a)
	}
	b := e.AttrIDOf("B")
	e.HandleOf(10, b)
	if len(e.byAttr[a]) != 1000 || len(e.byAttr[b]) != 1000 {
		t.Fatalf("column lengths %d and %d, want 1000", len(e.byAttr[a]), len(e.byAttr[b]))
	}
	e.HandleOf(1000, b)
	if len(e.byAttr[b]) != 2000 {
		t.Fatalf("a column grown past Reserve has %d entries, want 2000", len(e.byAttr[b]))
	}
}
