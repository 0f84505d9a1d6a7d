package pattern_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/pattern"
)

// rebuild returns a structurally identical pattern value with fresh
// (different) variable names: the shape PlanCache and Set.Groups must unify.
func rebuild(p *pattern.Pattern) *pattern.Pattern {
	q := pattern.New()
	for v := 0; v < p.NumVars(); v++ {
		q.AddVar(fmt.Sprintf("rb%d", v), p.Label(pattern.Var(v)))
	}
	for _, e := range p.Edges() {
		q.AddEdge(e.From, e.To, e.Label)
	}
	q.Freeze()
	return q
}

// TestFingerprintStructuralEquality pins the contract the sharing layers
// rely on: a rebuilt copy (new value, new names) has the same fingerprint
// and is StructuralEqual, while any single-label or single-edge mutation
// breaks StructuralEqual.
func TestFingerprintStructuralEquality(t *testing.T) {
	p := pattern.New()
	x := p.AddVar("x", "person")
	y := p.AddVar("y", "city")
	z := p.AddVar("z", "person")
	p.AddEdge(x, y, "lives_in")
	p.AddEdge(z, y, "lives_in")
	p.AddEdge(x, z, "knows")
	p.AddEdge(x, x, "self")

	q := rebuild(p)
	if q == p {
		t.Fatal("rebuild returned the same value")
	}
	if !pattern.StructuralEqual(p, q) {
		t.Fatal("rebuilt copy not StructuralEqual")
	}
	if p.Fingerprint() != q.Fingerprint() {
		t.Fatalf("structurally equal patterns fingerprint differently: %x vs %x",
			p.Fingerprint(), q.Fingerprint())
	}

	mutations := map[string]func(*pattern.Pattern){
		"label":      func(m *pattern.Pattern) { m.AddVar("extra", "person") },
		"edge label": func(m *pattern.Pattern) { m.AddEdge(0, 1, "works_in") },
		"edge":       func(m *pattern.Pattern) { m.AddEdge(1, 0, "lives_in") },
	}
	for name, mutate := range mutations {
		m := pattern.New()
		for v := 0; v < p.NumVars(); v++ {
			m.AddVar(fmt.Sprintf("m%d", v), p.Label(pattern.Var(v)))
		}
		for _, e := range p.Edges() {
			m.AddEdge(e.From, e.To, e.Label)
		}
		mutate(m)
		if pattern.StructuralEqual(p, m) {
			t.Errorf("%s mutation still StructuralEqual", name)
		}
	}
}

// TestFingerprintRenumberedCopyIsAnotherStructure pins the positional
// contract: the same path declared in another variable order is isomorphic
// but not StructuralEqual, so Set.Groups puts it in another group.
func TestFingerprintRenumberedCopyIsAnotherStructure(t *testing.T) {
	a := pattern.New()
	a1 := a.AddVar("a1", "s")
	a2 := a.AddVar("a2", "t")
	a3 := a.AddVar("a3", "u")
	a.AddEdge(a1, a2, "e")
	a.AddEdge(a2, a3, "f")

	b := pattern.New()
	b3 := b.AddVar("b3", "u")
	b1 := b.AddVar("b1", "s")
	b2 := b.AddVar("b2", "t")
	b.AddEdge(b1, b2, "e")
	b.AddEdge(b2, b3, "f")

	if pattern.StructuralEqual(a, b) {
		t.Fatal("renumbered patterns should not be positionally equal")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Errorf("renumbered copy shares the fingerprint %x: the hash is not positional", a.Fingerprint())
	}
	set := gfd.NewSet(
		gfd.MustNew("a", a, nil, []gfd.Literal{gfd.Const(0, "k", "v")}),
		gfd.MustNew("b", b, nil, []gfd.Literal{gfd.Const(0, "k", "v")}),
	)
	if groups := set.Groups(); len(groups) != 2 {
		t.Fatalf("renumbered copy grouped with the original: %+v", groups)
	}
}

// TestFingerprintAllocatesNothing pins that hashing a pattern reads its
// variables and edges in place. Every call takes a pattern never hashed
// before, so a fingerprint cached on the first call cannot hide its cost.
func TestFingerprintAllocatesNothing(t *testing.T) {
	gr := gen.New(gen.Config{N: 20, K: 6, L: 4, WildcardRate: 0.3, Seed: 7})
	const runs = 100
	fresh := make([]*pattern.Pattern, runs+1) // AllocsPerRun warms up once
	for i := range fresh {
		fresh[i] = gr.Pattern()
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() { fresh[next].Fingerprint(); next++ }); n != 0 {
		t.Fatalf("Fingerprint allocates %v times, want 0", n)
	}
}

// TestFingerprintNoCollisions exercises the structural-equality guard on a
// randomized corpus: the fingerprint is positional, so across many
// generated patterns any two that share one must be StructuralEqual — a
// pair that is not is a 64-bit collision, which the guard would catch but
// which a 360-pattern corpus should never produce.
func TestFingerprintNoCollisions(t *testing.T) {
	type entry struct {
		p  *pattern.Pattern
		fp uint64
	}
	var corpus []entry
	for seed := int64(1); seed <= 30; seed++ {
		gr := gen.New(gen.Config{N: 20, K: 5, L: 3, WildcardRate: 0.2, Seed: seed})
		for i := 0; i < 12; i++ {
			p := gr.Pattern()
			corpus = append(corpus, entry{p: p, fp: p.Fingerprint()})
		}
	}
	byFP := make(map[uint64][]*pattern.Pattern)
	for _, e := range corpus {
		byFP[e.fp] = append(byFP[e.fp], e.p)
	}
	distinctShapes := 0
	for fp, ps := range byFP {
		for i := 1; i < len(ps); i++ {
			if !pattern.StructuralEqual(ps[0], ps[i]) {
				t.Fatalf("fingerprint %x collides across different structures:\n  %s\n  %s",
					fp, ps[0], ps[i])
			}
		}
	}
	// The corpus must actually contain diversity for the test to mean much.
	for _, e := range corpus {
		if e.p.NumVars() != corpus[0].p.NumVars() || len(e.p.Edges()) != len(corpus[0].p.Edges()) {
			distinctShapes++
		}
	}
	if len(byFP) < 10 || distinctShapes == 0 {
		t.Fatalf("corpus too uniform to exercise collisions: %d buckets, %d off-shape patterns",
			len(byFP), distinctShapes)
	}
}

// TestFingerprintUnderRenaming pins the invariance G_Σ's consumers lean on
// when they bucket GFDs by pattern (gfd.Set.Groups) and then scope each
// bucket to its host copies: fresh variable names and another edge order
// never change the fingerprint nor StructuralEqual.
func TestFingerprintUnderRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for seed := int64(1); seed <= 10; seed++ {
		gr := gen.New(gen.Config{N: 20, K: 5, L: 4, WildcardRate: 0.3, Seed: seed})
		for i := 0; i < 20; i++ {
			p := gr.Pattern()
			edges := p.Edges()
			q := pattern.New()
			for v := 0; v < p.NumVars(); v++ {
				q.AddVar(fmt.Sprintf("renamed%d", v), p.Label(pattern.Var(v)))
			}
			for _, j := range rng.Perm(len(edges)) {
				q.AddEdge(edges[j].From, edges[j].To, edges[j].Label)
			}
			if !pattern.StructuralEqual(p, q) || p.Fingerprint() != q.Fingerprint() {
				t.Fatalf("renaming changed the pattern: %s → %s (fingerprint %x → %x)", p, q, p.Fingerprint(), q.Fingerprint())
			}
		}
	}
}
