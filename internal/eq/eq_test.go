package eq

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func tm(n int, a string) Term { return Term{Node: graph.NodeID(n), Attr: a} }

func TestAssignConstRule1(t *testing.T) {
	e := New()
	changed := e.AssignConst(tm(0, "A"), "1")
	if len(changed) != 1 {
		t.Fatalf("first assign changed %d terms, want 1", len(changed))
	}
	if c, ok := e.Const(tm(0, "A")); !ok || c != "1" {
		t.Fatalf("Const = %q,%v", c, ok)
	}
	// Re-assigning the same constant is a no-op.
	if changed := e.AssignConst(tm(0, "A"), "1"); changed != nil {
		t.Error("idempotent assign reported a change")
	}
	if e.Conflicted() != nil {
		t.Fatal("spurious conflict")
	}
	// A distinct constant conflicts.
	e.AssignConst(tm(0, "A"), "2")
	con := e.Conflicted()
	if con == nil {
		t.Fatal("conflict not detected")
	}
	if (con.C1 != "1" || con.C2 != "2") && (con.C1 != "2" || con.C2 != "1") {
		t.Errorf("conflict constants = %q,%q", con.C1, con.C2)
	}
}

func TestMergeRule2(t *testing.T) {
	e := New()
	e.AssignConst(tm(0, "A"), "7")
	if e.Same(tm(0, "A"), tm(1, "B")) {
		t.Fatal("distinct singletons reported equal")
	}
	e.Merge(tm(0, "A"), tm(1, "B"))
	if !e.Same(tm(0, "A"), tm(1, "B")) {
		t.Fatal("merge did not join classes")
	}
	// The constant propagates to the merged class.
	if c, ok := e.Const(tm(1, "B")); !ok || c != "7" {
		t.Fatalf("merged const = %q,%v, want 7", c, ok)
	}
	// Merging the same pair again is a no-op.
	if changed := e.Merge(tm(0, "A"), tm(1, "B")); changed != nil {
		t.Error("idempotent merge reported change")
	}
}

func TestMergeConflictingConstants(t *testing.T) {
	e := New()
	e.AssignConst(tm(0, "A"), "1")
	e.AssignConst(tm(1, "B"), "2")
	e.Merge(tm(0, "A"), tm(1, "B"))
	if e.Conflicted() == nil {
		t.Fatal("merge of classes with distinct constants must conflict")
	}
}

func TestTransitivityViaMerges(t *testing.T) {
	e := New()
	e.Merge(tm(0, "A"), tm(1, "B"))
	e.Merge(tm(1, "B"), tm(2, "C"))
	if !e.Same(tm(0, "A"), tm(2, "C")) {
		t.Fatal("transitivity broken")
	}
	e.AssignConst(tm(2, "C"), "v")
	if c, _ := e.Const(tm(0, "A")); c != "v" {
		t.Fatal("constant not visible across transitive class")
	}
}

func TestChangedTermsOnConstPropagation(t *testing.T) {
	e := New()
	e.Merge(tm(0, "A"), tm(1, "B"))
	// Assigning to one member must report the whole class as changed so
	// pending matches keyed on either term get re-checked.
	changed := e.AssignConst(tm(1, "B"), "9")
	if len(changed) != 2 {
		t.Fatalf("changed = %v, want both class members", changed)
	}
	// Merging a constant-bearing class into a bare one reports the bare
	// side's members too (they just gained a constant).
	e2 := New()
	e2.AssignConst(tm(0, "A"), "1")
	e2.create(e2.handleOfTerm(tm(1, "B")))
	e2.create(e2.handleOfTerm(tm(2, "C")))
	e2.Merge(tm(1, "B"), tm(2, "C"))
	changed = e2.Merge(tm(0, "A"), tm(1, "B"))
	seen := map[Term]bool{}
	for _, c := range changed {
		seen[c] = true
	}
	if !seen[tm(1, "B")] || !seen[tm(2, "C")] {
		t.Errorf("constant propagation changed-set missing bare members: %v", changed)
	}
}

func TestDeltaReplayConverges(t *testing.T) {
	a, b := New(), New()
	a.AssignConst(tm(0, "A"), "1")
	a.Merge(tm(0, "A"), tm(1, "B"))
	d := a.TakeDelta()
	if len(d) != 2 {
		t.Fatalf("delta ops = %d, want 2", len(d))
	}
	b.Apply(d)
	if a.Classes() != b.Classes() {
		t.Fatalf("replay diverged:\n%s\nvs\n%s", a.Classes(), b.Classes())
	}
	// Replays are idempotent and do not re-log.
	b.TakeDelta()
	b.Apply(d)
	if got := b.TakeDelta(); len(got) != 0 {
		t.Errorf("idempotent replay re-logged %d ops", len(got))
	}
}

func TestConcurrentDeltasCommute(t *testing.T) {
	// Two workers make disjoint-then-overlapping changes; applying each
	// other's deltas in opposite orders must converge (Church–Rosser).
	w1, w2 := New(), New()
	w1.AssignConst(tm(0, "A"), "1")
	w1.Merge(tm(0, "A"), tm(1, "B"))
	d1 := w1.TakeDelta()
	w2.Merge(tm(1, "B"), tm(2, "C"))
	w2.AssignConst(tm(3, "D"), "4")
	d2 := w2.TakeDelta()
	w1.Apply(d2)
	w2.Apply(d1)
	if w1.Classes() != w2.Classes() {
		t.Fatalf("asynchronous application diverged:\n%s\nvs\n%s", w1.Classes(), w2.Classes())
	}
	if c, _ := w1.Const(tm(2, "C")); c != "1" {
		t.Errorf("constant did not flow through cross-worker merge: %q", c)
	}
}

func TestConflictSurvivesReplay(t *testing.T) {
	a := New()
	a.AssignConst(tm(0, "A"), "1")
	a.AssignConst(tm(0, "A"), "2")
	if a.Conflicted() == nil {
		t.Fatal("no local conflict")
	}
	d := a.TakeDelta()
	b := New()
	b.Apply(d)
	if b.Conflicted() == nil {
		t.Fatal("conflict lost in replay")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := New()
	a.AssignConst(tm(0, "A"), "1")
	c := a.Clone()
	c.Merge(tm(0, "A"), tm(5, "Z"))
	if a.Same(tm(0, "A"), tm(5, "Z")) {
		t.Fatal("clone mutation leaked")
	}
	if c.Classes() == a.Classes() {
		t.Fatal("clone did not record its own mutation")
	}
}

// Property: for random operation sequences executed on one replica and
// replayed (possibly interleaved with local ops) on another, both replicas
// converge to identical classes — the monotone-confluence property the
// asynchronous broadcast relies on.
func TestQuickDeltaConfluence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		full := New()
		var ops []Op
		randTerm := func() Term { return tm(rng.Intn(6), string(rune('A'+rng.Intn(3)))) }
		for i := 0; i < 30; i++ {
			if rng.Intn(2) == 0 {
				op := Op{Kind: OpAssign, T: randTerm(), C: string(rune('0' + rng.Intn(3)))}
				ops = append(ops, op)
			} else {
				ops = append(ops, Op{Kind: OpMerge, T: randTerm(), U: randTerm()})
			}
		}
		// Replica A applies ops in order; replica B applies a shuffled copy.
		a, b := New(), New()
		a.Apply(ops)
		shuffled := append([]Op{}, ops...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b.Apply(shuffled)
		_ = full
		// Conflict status is order-independent (the final partition and the
		// constant sets per class are), so it must agree.
		if (a.Conflicted() == nil) != (b.Conflicted() == nil) {
			return false
		}
		if a.Conflicted() != nil {
			// Which constant a conflicted class retains is first-writer-wins
			// and hence order-dependent; the run terminates there anyway.
			return true
		}
		return a.Classes() == b.Classes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sortedTerms renders a changed-set for comparison: the two surfaces report
// the same terms in the same order, but only the set is the contract.
func sortedTerms(ts []Term) string {
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.String()
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func sameConflict(a, b *Conflict) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// randomOps draws n assignments and merges over a 6-node, 3-attribute,
// 3-constant universe: small enough that classes collide, constants clash
// and merges hit terms nobody created.
func randomOps(rng *rand.Rand, n int) Delta {
	randTerm := func() Term { return tm(rng.Intn(6), string(rune('A'+rng.Intn(3)))) }
	ops := make(Delta, n)
	for i := range ops {
		if rng.Intn(2) == 0 {
			ops[i] = Op{Kind: OpAssign, T: randTerm(), C: string(rune('0' + rng.Intn(3)))}
		} else {
			ops[i] = Op{Kind: OpMerge, T: randTerm(), U: randTerm()}
		}
	}
	return ops
}

// Property: the ID surface and the string surface are one implementation —
// the same op sequence driven through each gives the same changed-set per
// op, the same classes, the same conflict and the same delta.
func TestQuickSurfacesAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		byName, byID := New(), New()
		var buf []Handle
		for _, op := range randomOps(rng, 40) {
			var want []Term
			h := byID.HandleOf(op.T.Node, byID.AttrIDOf(op.T.Attr))
			switch op.Kind {
			case OpAssign:
				want = byName.AssignConst(op.T, op.C)
				buf = byID.AssignAt(h, byID.ConstIDOf(op.C), buf[:0])
			case OpMerge:
				want = byName.Merge(op.T, op.U)
				buf = byID.MergeAt(h, byID.HandleOf(op.U.Node, byID.AttrIDOf(op.U.Attr)), buf[:0])
			}
			if got := byID.termsOf(buf); sortedTerms(got) != sortedTerms(want) {
				t.Logf("seed %d, op %+v: changed %v by ID, %v by name", seed, op, got, want)
				return false
			}
		}
		if byID.Classes() != byName.Classes() || byID.Len() != byName.Len() || !sameConflict(byID.Conflicted(), byName.Conflicted()) {
			return false
		}
		return reflect.DeepEqual(byID.TakeDelta(), byName.TakeDelta())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a delta replayed in three different orders on three replicas —
// by name, by ID, and on top of a replica with IDs of its own — converges.
func TestQuickShuffledReplayConverges(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// The delta under test is what a replica records, not the raw ops.
		source := New()
		for _, op := range randomOps(rng, 40) {
			if op.Kind == OpAssign {
				source.AssignConst(op.T, op.C)
			} else {
				source.Merge(op.T, op.U)
			}
		}
		delta := source.TakeDelta()
		shuffled := func() Delta {
			d := append(Delta(nil), delta...)
			rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
			return d
		}
		a, b, c := New(), New(), New()
		a.Apply(shuffled())
		b.ApplyAppend(shuffled(), nil)
		c.AttrIDOf("Z") // c numbers its attributes and constants differently
		c.ConstIDOf("z")
		c.Apply(shuffled())
		for _, r := range []*Eq{a, b, c} {
			if (r.Conflicted() == nil) != (source.Conflicted() == nil) {
				return false
			}
			// Which constant a conflicted class keeps is first-writer-wins.
			if source.Conflicted() == nil && r.Classes() != source.Classes() {
				t.Logf("seed %d diverged:\n%s\nvs\n%s", seed, r.Classes(), source.Classes())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A handle is a slot, not a term: allocating one (what the engines' pending
// index does for a blocked match) must not make the class exist.
func TestHandleIsNotATerm(t *testing.T) {
	e := New()
	a := e.AttrIDOf("A")
	h := e.HandleOf(3, a)
	if e.HandleOf(3, a) != h {
		t.Fatal("HandleOf is not stable")
	}
	if e.Has(tm(3, "A")) || e.Same(tm(3, "A"), tm(3, "A")) || e.Len() != 0 || len(e.AllTerms()) != 0 ||
		e.Classes() != "" || e.Lookup(3, a) != NoHandle || e.HasAt(h) {
		t.Fatal("allocating a handle created the class")
	}
	if _, ok := e.Const(tm(3, "A")); ok {
		t.Fatal("absent class has a constant")
	}
	if e.Has(tm(3, "never-seen")) || e.NumHandles() != 1 {
		t.Fatal("asking about an unknown attribute allocated something")
	}
	// x.A = x.A on the absent term creates it, says so, and tells peers.
	changed := e.MergeAt(h, h, nil)
	if len(changed) != 1 || changed[0] != h || !e.Has(tm(3, "A")) || e.Lookup(3, a) != h || e.Len() != 1 {
		t.Fatalf("self-merge did not create the class: changed %v", changed)
	}
	if again := e.MergeAt(h, h, nil); len(again) != 0 {
		t.Errorf("second self-merge reported %v", again)
	}
	d := e.TakeDelta()
	if len(d) != 1 {
		t.Fatalf("self-merge logged %d ops, want 1", len(d))
	}
	peer := New()
	peer.Apply(d)
	if !peer.Has(tm(3, "A")) {
		t.Error("the created class did not reach a peer")
	}
}

// A merge reports every class it brought into existence, the surviving side
// included: a match waiting for that term to exist is filed under it.
func TestMergeReportsCreatedClasses(t *testing.T) {
	for _, preexisting := range []bool{false, true} {
		e := New()
		if preexisting {
			e.create(e.handleOfTerm(tm(1, "B")))
		}
		changed := e.Merge(tm(0, "A"), tm(1, "B"))
		got := map[Term]bool{}
		for _, c := range changed {
			got[c] = true
		}
		if !got[tm(0, "A")] || (!preexisting && !got[tm(1, "B")]) {
			t.Errorf("preexisting=%v: changed = %v misses a created class", preexisting, changed)
		}
	}
}

func TestStopLoggingAndLogView(t *testing.T) {
	e := New()
	e.AssignConst(tm(0, "A"), "1")
	if len(e.Logged()) != 1 {
		t.Fatalf("Logged = %v", e.Logged())
	}
	e.ResetLog()
	e.Merge(tm(0, "A"), tm(1, "B"))
	if d := e.Logged(); len(d) != 1 || d[0].Kind != OpMerge {
		t.Fatalf("after ResetLog, Logged = %v", d)
	}
	c := e.Clone()
	e.StopLogging()
	e.AssignConst(tm(2, "C"), "2")
	if len(e.TakeDelta()) != 0 {
		t.Error("a quiet relation logged")
	}
	if c.AssignConst(tm(2, "C"), "2"); len(c.TakeDelta()) != 2 {
		t.Error("a clone taken before StopLogging must keep logging")
	}
}

// Clones speak their original's IDs: literals resolved against one relation
// serve every replica cloned from it.
func TestCloneKeepsIDs(t *testing.T) {
	e := New()
	a, k := e.AttrIDOf("A"), e.ConstIDOf("k")
	h := e.HandleOf(4, a)
	e.AssignAt(h, k, nil)
	c := e.Clone()
	if c.AttrIDOf("A") != a || c.ConstIDOf("k") != k || c.Lookup(4, a) != h || c.ConstAt(h) != k || c.ConstName(k) != "k" {
		t.Fatal("clone renumbered")
	}
	c.AssignAt(c.HandleOf(5, c.AttrIDOf("B")), k, nil)
	if e.NumHandles() != 1 || e.Has(tm(5, "B")) {
		t.Fatal("clone mutation leaked into the original")
	}
}
