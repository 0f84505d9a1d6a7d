package core

// Additional coverage: metamorphic properties of the analyses, witness
// model validation, ablation agreement, and stats sanity.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/eq"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/gfdio"
	"repro/internal/graph"
	"repro/internal/pattern"
)

func TestMonotonicityOfUnsatisfiability(t *testing.T) {
	// Adding GFDs never makes an unsatisfiable set satisfiable.
	rng := rand.New(rand.NewSource(99))
	checked := 0
	for trial := 0; trial < 30 && checked < 8; trial++ {
		set := randomSet(rng, 3)
		if SeqSat(set).Satisfiable {
			continue
		}
		checked++
		bigger := gfd.NewSet(append(append([]*gfd.GFD{}, set.GFDs...), randomSet(rng, 2).GFDs...)...)
		if SeqSat(bigger).Satisfiable {
			t.Fatalf("superset of unsatisfiable set reported satisfiable:\n%s", bigger)
		}
	}
	if checked == 0 {
		t.Skip("no unsatisfiable seeds found")
	}
}

func TestImplicationReflexivityAndWeakening(t *testing.T) {
	// Σ implies each of its members, and any weakening of a member.
	g := gen.New(gen.Config{N: 10, K: 4, L: 3, Seed: 5})
	set := g.Set()
	for i, phi := range set.GFDs[:4] {
		if !SeqImp(set, phi).Implied {
			t.Errorf("member %d not implied by its own set", i)
		}
		// Weakening: subset of Y with the same X.
		weak := gfd.MustNew(phi.Name+"-w", phi.Pattern, phi.X, phi.Y[:1])
		if !SeqImp(set, weak).Implied {
			t.Errorf("weakened member %d not implied", i)
		}
	}
}

func TestImplicationMonotoneInSigma(t *testing.T) {
	// If Σ ⊨ φ then Σ ∪ Σ' ⊨ φ.
	g := gen.New(gen.Config{N: 8, K: 3, L: 2, Seed: 6})
	set := g.Set()
	phi := g.ImpliedGFD(set)
	if !SeqImp(set, phi).Implied {
		t.Fatal("setup: not implied")
	}
	extra := gen.New(gen.Config{N: 4, K: 3, L: 2, Seed: 7}).Set()
	union := gfd.NewSet(append(append([]*gfd.GFD{}, set.GFDs...), extra.GFDs...)...)
	if !SeqImp(union, phi).Implied {
		t.Fatal("implication lost under Σ-extension")
	}
}

func TestWitnessModelIsSigmaBounded(t *testing.T) {
	// Theorem 1: the witness is a population of G_Σ, so |model| is bounded
	// by a small multiple of |Σ| (nodes+edges equal G_Σ's; attributes are
	// bounded by the enforcement).
	g := gen.New(gen.Config{N: 25, K: 4, L: 3, Seed: 8})
	set := g.Set()
	res := SeqSat(set)
	if !res.Satisfiable {
		t.Fatal("setup: unsat")
	}
	size := res.Model().NumNodes() + res.Model().NumEdges()
	for v := 0; v < res.Model().NumNodes(); v++ {
		size += len(res.Model().Attrs(graph.NodeID(v)))
	}
	if size > 20*set.Size() {
		t.Errorf("witness size %d not Σ-bounded (|Σ| = %d)", size, set.Size())
	}
	if !IsModel(res.Model(), set) {
		t.Fatal("witness is not a model")
	}
}

func TestAblationAgreement(t *testing.T) {
	// With one worker and with several, ParSat returns SeqSat's answer on
	// mixed workloads (satisfiable and not).
	for seed := int64(0); seed < 3; seed++ {
		for _, conflicts := range []int{0, 1} {
			g := gen.New(gen.Config{N: 25, K: 4, L: 3, Seed: seed, Conflicts: conflicts})
			set := g.Set()
			want := SeqSat(set).Satisfiable
			for _, workers := range []int{1, 3} {
				got := ParSat(set, DefaultParOptions(workers))
				if got.Err != nil || got.Satisfiable != want {
					t.Fatalf("seed=%d conflicts=%d p=%d: ParSat=%v (err %v) want %v",
						seed, conflicts, workers, got.Satisfiable, got.Err, want)
				}
			}
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	g := gen.New(gen.Config{N: 20, K: 4, L: 3, Seed: 4})
	set := g.Set()
	seq := SeqSat(set)
	if seq.Stats.Matches == 0 || seq.Stats.Enforcements == 0 {
		t.Errorf("sequential stats empty: %+v", seq.Stats)
	}
	par := ParSat(set, DefaultParOptions(3))
	if par.Stats.UnitsRun == 0 {
		t.Errorf("no units recorded: %+v", par.Stats)
	}
	// The parallel run discovers exactly the same matches (units partition
	// the match space).
	if par.Stats.Matches != seq.Stats.Matches {
		t.Errorf("parallel matches %d != sequential %d", par.Stats.Matches, seq.Stats.Matches)
	}
	// No worker reads another's relation: nothing is broadcast.
	if par.Stats.DeltaOps != 0 || par.Stats.Broadcasts != 0 {
		t.Errorf("communication recorded: %+v; want 0 broadcasts, 0 ops", par.Stats)
	}
}

func TestViolationsCountsAllMatches(t *testing.T) {
	// Two independent violations of a functional-property GFD.
	p := pattern.New()
	x := p.AddVar("x", "car")
	y := p.AddVar("y", "speed")
	z := p.AddVar("z", "speed")
	p.AddEdge(x, y, "s")
	p.AddEdge(x, z, "s")
	phi := gfd.MustNew("f", p, nil, []gfd.Literal{gfd.Vars(y, "v", z, "v")})
	g := graph.New()
	for i := 0; i < 2; i++ {
		c := g.AddNode("car")
		a := g.AddNodeWithAttrs("speed", map[string]string{"v": "1"})
		b := g.AddNodeWithAttrs("speed", map[string]string{"v": "2"})
		g.AddEdge(c, a, "s")
		g.AddEdge(c, b, "s")
	}
	vs := Violations(g, gfd.NewSet(phi))
	// Each car yields two violating matches (y,z and z,y).
	if len(vs) != 4 {
		t.Errorf("violations = %d, want 4", len(vs))
	}
}

func TestSatisfiesMissingAttributeSemantics(t *testing.T) {
	// A match whose X-attribute is missing trivially satisfies X→Y; a
	// match whose Y-attribute is missing violates it when X holds.
	p := pattern.New()
	p.AddVar("x", "n")
	phi := gfd.MustNew("g", p,
		[]gfd.Literal{gfd.Const(0, "a", "1")},
		[]gfd.Literal{gfd.Const(0, "b", "2")})
	g := graph.New()
	g.AddNode("n") // no attributes at all: X missing → satisfied
	if ok, _ := Satisfies(g, gfd.NewSet(phi)); !ok {
		t.Fatal("missing antecedent attribute should satisfy trivially")
	}
	g2 := graph.New()
	n := g2.AddNode("n")
	g2.SetAttr(n, "a", "1") // X holds, b missing → violated
	if ok, _ := Satisfies(g2, gfd.NewSet(phi)); ok {
		t.Fatal("missing consequent attribute should violate")
	}
}

func TestParSatDeterministicAnswerUnderRepeats(t *testing.T) {
	g := gen.New(gen.Config{N: 30, K: 4, L: 3, Seed: 12, Conflicts: 1})
	set := g.Set()
	opt := DefaultParOptions(4)
	for i := 0; i < 5; i++ {
		if ParSat(set, opt).Satisfiable {
			t.Fatalf("run %d: nondeterministic satisfiability answer", i)
		}
	}
}

// TestImplicationOnTheParseFilteredSet is the engine side of deciding Σ′
// while Σ is parsed (gfdio.ReadGFDsWhere with canon.Phi.Admits, as
// gfdreason imp reads Σ): on gen implication instances with chain, implied,
// non-implied and trivially implied targets, SeqImp and ParImp at p ∈ {1, 2,
// 4} answer the filtered set as they answer the whole one — the same verdict
// and reason, and the same Stats: ParImp's chase takes the units in order at
// every p.
func TestImplicationOnTheParseFilteredSet(t *testing.T) {
	dropped := false
	for _, rate := range []float64{0, 0.4, 1.0} {
		gr := gen.New(gen.Config{N: 150, K: 5, L: 3, WildcardRate: rate, Seed: 17})
		sigma, chain := gr.ImpInstance(4)
		var text strings.Builder
		if err := gfdio.WriteGFDs(&text, sigma); err != nil {
			t.Fatal(err)
		}
		full, err := gfdio.ReadGFDs(strings.NewReader(text.String()))
		if err != nil {
			t.Fatal(err)
		}
		trivial := gfd.MustNew("trivial", chain.Pattern, chain.Y, chain.Y)
		for _, phi := range []*gfd.GFD{chain, gr.ImpliedGFD(sigma), gr.NonImpliedGFD(), trivial} {
			filtered, err := gfdio.ReadGFDsWhere(strings.NewReader(text.String()), canon.BuildPhi(phi).Admits, 1)
			if err != nil {
				t.Fatal(err)
			}
			dropped = dropped || filtered.Len() < full.Len()
			engines := map[string]func(*gfd.Set) *ImpResult{"SeqImp": func(s *gfd.Set) *ImpResult { return SeqImp(s, phi) }}
			for _, p := range []int{1, 2, 4} {
				opt := DefaultParOptions(p)
				engines[fmt.Sprintf("ParImp p=%d", p)] = func(s *gfd.Set) *ImpResult { return ParImp(s, phi, opt) }
			}
			for name, run := range engines {
				a, b := run(full), run(filtered)
				if a.Err != nil || b.Err != nil || a.Implied != b.Implied || a.Reason != b.Reason {
					t.Errorf("rate %v, %s, %s: %v/%v (err %v) on Σ, %v/%v (err %v) on the filtered Σ",
						rate, phi.Name, name, a.Implied, a.Reason, a.Err, b.Implied, b.Reason, b.Err)
					continue
				}
				if a.Stats != b.Stats {
					t.Errorf("rate %v, %s, %s: stats %+v on Σ, %+v on the filtered Σ", rate, phi.Name, name, a.Stats, b.Stats)
				}
			}
		}
	}
	if !dropped {
		t.Error("the filter dropped no GFD of any instance: the comparison tests nothing")
	}
}

// TestImplicationIgnoresGFDsThatCannotMatch is the metamorphic side of
// running implication on Σ′ (canon.Phi.Applicable): GFDs over labels G^X_Q
// does not have, spread through Σ, change neither the verdict nor — on
// non-implied targets, whose runs reach the fixpoint — the matches found and
// the enforcements fired, on SeqImp and on ParImp at every worker count. And
// a Σ of nothing but such GFDs is answered without a unit run.
func TestImplicationIgnoresGFDsThatCannotMatch(t *testing.T) {
	absent := func(i int) *gfd.GFD {
		p := pattern.New()
		x, y := p.AddVar("x", fmt.Sprintf("absent%d", i%3)), p.AddVar("y", graph.Wildcard)
		p.AddEdge(x, y, graph.Wildcard)
		return gfd.MustNew(fmt.Sprintf("pad%d", i), p, nil, []gfd.Literal{gfd.Const(y, "a", fmt.Sprint(i))})
	}
	for _, rate := range []float64{0, 0.4, 1.0} {
		gr := gen.New(gen.Config{N: 150, K: 5, L: 3, WildcardRate: rate, Seed: 11})
		set, chain := gr.ImpInstance(4)
		padded := gfd.NewSet()
		for i, psi := range set.GFDs {
			if i%5 == 0 {
				padded.Add(absent(i))
			}
			padded.Add(psi)
		}
		padded.Add(absent(set.Len()))
		for _, phi := range []*gfd.GFD{chain, gr.ImpliedGFD(set), gr.NonImpliedGFD()} {
			engines := map[string]func(*gfd.Set) *ImpResult{"SeqImp": func(s *gfd.Set) *ImpResult { return SeqImp(s, phi) }}
			for _, p := range []int{1, 2, 4} {
				opt := DefaultParOptions(p)
				engines[fmt.Sprintf("ParImp p=%d", p)] = func(s *gfd.Set) *ImpResult { return ParImp(s, phi, opt) }
			}
			for name, run := range engines {
				a, b := run(set), run(padded)
				if a.Err != nil || b.Err != nil || a.Implied != b.Implied {
					t.Errorf("rate %v, %s, %s: implied %v (err %v) → %v (err %v) after padding", rate, phi.Name, name, a.Implied, a.Err, b.Implied, b.Err)
				}
				if !a.Implied && (a.Stats.Matches != b.Stats.Matches || a.Stats.Enforcements != b.Stats.Enforcements) {
					t.Errorf("rate %v, %s, %s: matches/enforcements %d/%d → %d/%d after padding", rate, phi.Name, name,
						a.Stats.Matches, a.Stats.Enforcements, b.Stats.Matches, b.Stats.Enforcements)
				}
			}
		}
		only := gfd.NewSet(absent(0), absent(1), absent(2))
		for name, r := range map[string]*ImpResult{"SeqImp": SeqImp(only, chain), "ParImp": ParImp(only, chain, DefaultParOptions(2))} {
			if r.Err != nil || r.Implied || r.Stats != (Stats{}) {
				t.Errorf("rate %v, %s on an empty Σ′: implied %v, err %v, stats %+v; want not implied and no work", rate, name, r.Implied, r.Err, r.Stats)
			}
		}
	}
}

// TestVerdictUnderPermutationAndRenaming is what the chase being
// Church–Rosser gives for free: the verdict depends on Σ as a set of GFDs,
// not on the order of its list — which also renumbers G_Σ, built GFD by GFD
// — nor on the names and numbering of pattern variables. Only Satisfiable
// and Implied are compared: which of a conflict and a deduction ends an
// implication run first may change with the order, and so may its Reason.
func TestVerdictUnderPermutationAndRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sat := map[string]func(*gfd.Set) *SatResult{"SeqSat": SeqSat}
	imp := map[string]func(*gfd.Set, *gfd.GFD) *ImpResult{"SeqImp": SeqImp}
	opts := map[string]ParOptions{}
	for _, p := range []int{1, 2, 4} {
		opts[fmt.Sprintf("p=%d", p)] = DefaultParOptions(p)
	}
	for name, opt := range opts {
		sat["ParSat "+name] = func(s *gfd.Set) *SatResult { return ParSat(s, opt) }
		imp["ParImp "+name] = func(s *gfd.Set, phi *gfd.GFD) *ImpResult { return ParImp(s, phi, opt) }
	}
	variants := func(set *gfd.Set) map[string]*gfd.Set {
		return map[string]*gfd.Set{
			"permuted":             permuteSet(rng, set),
			"renamed":              renameSet(rng, set),
			"permuted and renamed": renameSet(rng, permuteSet(rng, set)),
		}
	}

	for seed := int64(1); seed <= 2; seed++ {
		for _, conflicts := range []int{0, 1, 3} {
			set := gen.New(gen.Config{N: 60, K: 4, L: 3, Conflicts: conflicts, Seed: seed}).Set()
			vs := variants(set)
			for name, run := range sat {
				want := run(set)
				if want.Err != nil || want.Satisfiable != (conflicts == 0) {
					t.Fatalf("seed %d, conflicts=%d, %s: satisfiable %v (err %v) on gen's Σ",
						seed, conflicts, name, want.Satisfiable, want.Err)
				}
				for vname, v := range vs {
					if got := run(v); got.Err != nil || got.Satisfiable != want.Satisfiable {
						t.Errorf("seed %d, conflicts=%d, %s, %s Σ: satisfiable %v (err %v), want %v",
							seed, conflicts, name, vname, got.Satisfiable, got.Err, want.Satisfiable)
					}
				}
			}
		}

		gr := gen.New(gen.Config{N: 80, K: 4, L: 3, Seed: seed})
		sigma, chain := gr.ImpInstance(4)
		vs := variants(sigma)
		for _, tc := range []struct {
			phi     *gfd.GFD
			implied bool
		}{{chain, false}, {gr.ImpliedGFD(sigma), true}, {gr.NonImpliedGFD(), false}} {
			renamed := renameGFD(rng, tc.phi)
			for name, run := range imp {
				if want := run(sigma, tc.phi); want.Err != nil || want.Implied != tc.implied {
					t.Fatalf("seed %d, %s, %s: implied %v (err %v) on gen's instance, want %v",
						seed, tc.phi.Name, name, want.Implied, want.Err, tc.implied)
				}
				for vname, v := range vs {
					if got := run(v, renamed); got.Err != nil || got.Implied != tc.implied {
						t.Errorf("seed %d, %s, %s, %s Σ and renamed φ: implied %v (err %v), want %v",
							seed, tc.phi.Name, name, vname, got.Implied, got.Err, tc.implied)
					}
				}
			}
		}
	}
}

// TestFinalEqUnderPermutationAndRenaming is the Church–Rosser property at
// the fixpoint itself, not only the verdict: on a satisfiable Σ, the final Eq
// of SeqSat and of ParSat holds the same terms in the same classes with the
// same constants after Σ's list is permuted and every pattern's variables
// renumbered, when the terms are read back through Sigma.NodeOf. Both change
// G_Σ's numbering, and with it every pattern's host copies.
func TestFinalEqUnderPermutationAndRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	engines := map[string]func(*gfd.Set) *SatResult{
		"SeqSat":     SeqSat,
		"ParSat p=1": func(s *gfd.Set) *SatResult { return ParSat(s, DefaultParOptions(1)) },
		"ParSat p=2": func(s *gfd.Set) *SatResult { return ParSat(s, DefaultParOptions(2)) },
	}
	for seed := int64(1); seed <= 2; seed++ {
		set := gen.New(gen.Config{N: 60, K: 4, L: 3, WildcardRate: 0.3, Seed: seed}).Set()
		order := rng.Perm(set.Len())
		variant := gfd.NewSet()
		perms := make([][]int, set.Len())
		for _, i := range order {
			phi, perm := renumberGFD(rng, set.GFDs[i])
			variant.Add(phi)
			perms[i] = perm
		}
		// node maps G_Σ of set onto G_Σ of variant.
		cs, cv := canon.BuildSigma(set), canon.BuildSigma(variant)
		node := make([]graph.NodeID, cs.Graph.NumNodes())
		for at, i := range order {
			for v, w := range perms[i] {
				node[cs.NodeOf(i, pattern.Var(v))] = cv.NodeOf(at, pattern.Var(w))
			}
		}
		moved := func(t eq.Term) eq.Term { return eq.Term{Node: node[t.Node], Attr: t.Attr} }
		for name, run := range engines {
			a, b := run(set), run(variant)
			if a.Err != nil || b.Err != nil || !a.Satisfiable || !b.Satisfiable {
				t.Fatalf("seed %d, %s: satisfiable %v/%v (err %v/%v), want a satisfiable Σ", seed, name, a.Satisfiable, b.Satisfiable, a.Err, b.Err)
			}
			terms := a.witness.eq.AllTerms()
			if len(terms) == 0 {
				t.Fatalf("seed %d, %s: the final relation has no term", seed, name)
			}
			joined, err := sameEq(a.witness.eq, b.witness.eq, moved)
			if err != nil {
				t.Fatalf("seed %d, %s: %v after permuting and renaming", seed, name, err)
			}
			if joined == 0 {
				t.Fatalf("seed %d, %s: no two of %d terms share a class: the partition is not tested", seed, name, len(terms))
			}
			t.Logf("seed %d, %s: %d terms, %d in an earlier term's class", seed, name, len(terms), joined)
		}
	}
}

// sameEq compares two final relations through moved, which maps a's terms
// to b's: b has exactly a's terms, each with the same constant, and two terms
// share a class in a iff they do in b. It returns how many of a's terms
// share the class of an earlier term, or the first difference.
func sameEq(a, b *eq.Eq, moved func(eq.Term) eq.Term) (joined int, err error) {
	terms := a.AllTerms()
	if n := len(b.AllTerms()); n != len(terms) {
		return 0, fmt.Errorf("%d terms against %d", len(terms), n)
	}
	for i, u := range terms {
		mu := moved(u)
		ca, oka := a.Const(u)
		cb, okb := b.Const(mu)
		if !b.Has(mu) || ca != cb || oka != okb {
			return 0, fmt.Errorf("term %v (const %q %v) is %v (present %v, const %q %v)", u, ca, oka, mu, b.Has(mu), cb, okb)
		}
		same := false
		for _, w := range terms[:i] {
			if a.Same(u, w) != b.Same(mu, moved(w)) {
				return 0, fmt.Errorf("%v ~ %v is %v, but %v", u, w, a.Same(u, w), !a.Same(u, w))
			}
			same = same || a.Same(u, w)
		}
		if same {
			joined++
		}
	}
	return joined, nil
}

// permuteSet lists Σ's GFDs in a random order.
func permuteSet(rng *rand.Rand, set *gfd.Set) *gfd.Set {
	out := gfd.NewSet()
	for _, i := range rng.Perm(set.Len()) {
		out.Add(set.GFDs[i])
	}
	return out
}

func renameSet(rng *rand.Rand, set *gfd.Set) *gfd.Set {
	out := gfd.NewSet()
	for _, phi := range set.GFDs {
		out.Add(renameGFD(rng, phi))
	}
	return out
}

// renameGFD renames every variable of φ: variable v becomes variable
// perm[v] under a fresh name, and the pattern lists its edges in a random
// order.
func renameGFD(rng *rand.Rand, phi *gfd.GFD) *gfd.GFD {
	renamed, _ := renumberGFD(rng, phi)
	return renamed
}

// renumberGFD is renameGFD, also returning perm.
func renumberGFD(rng *rand.Rand, phi *gfd.GFD) (*gfd.GFD, []int) {
	p := phi.Pattern
	perm := rng.Perm(p.NumVars())
	old := make([]pattern.Var, len(perm))
	for v, w := range perm {
		old[w] = pattern.Var(v)
	}
	q := pattern.New()
	for w, v := range old {
		q.AddVar(fmt.Sprintf("r%d", w), p.Label(v))
	}
	edges := p.Edges()
	for _, i := range rng.Perm(len(edges)) {
		q.AddEdge(pattern.Var(perm[edges[i].From]), pattern.Var(perm[edges[i].To]), edges[i].Label)
	}
	rename := func(ls []gfd.Literal) []gfd.Literal {
		out := make([]gfd.Literal, len(ls))
		for i, l := range ls {
			l.X = pattern.Var(perm[l.X])
			if l.Kind == gfd.VarLiteral {
				l.Y = pattern.Var(perm[l.Y])
			}
			out[i] = l
		}
		return out
	}
	return gfd.MustNew(phi.Name, q, rename(phi.X), rename(phi.Y)), perm
}
