package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/eq"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/gfdio"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// TestParSatZeroVariablePattern is the regression test for the rule file
// "gfd g / end": it used to parse, and ParSat and ParImp then died with an
// index out of range at pivots[0] in buildUnits. A pattern without variables
// is now refused at construction, so no Σ that reaches the engines lacks a
// pivot; the smallest rule they do accept — one wildcard variable, no
// literals — runs at every p.
func TestParSatZeroVariablePattern(t *testing.T) {
	if _, err := gfdio.ReadGFDs(strings.NewReader("gfd g\nend\n")); err == nil {
		t.Fatal("a GFD without variables parsed; buildUnits has no pivot for it")
	}
	set, err := gfdio.ReadGFDs(strings.NewReader("gfd g\nvar x _\nend\n"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 4} {
		if res := ParSat(set, DefaultParOptions(p)); res.Err != nil || !res.Satisfiable {
			t.Errorf("p=%d: ParSat = %v (err %v), want satisfiable", p, res.Satisfiable, res.Err)
		}
		if res := ParImp(set, set.GFDs[0], DefaultParOptions(p)); res.Err != nil || !res.Implied {
			t.Errorf("p=%d: ParImp = %v (err %v), want implied", p, res.Implied, res.Err)
		}
	}
}

func TestParSatAgreesOnPaperExamples(t *testing.T) {
	phi5 := gfd.MustNew("phi5", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "0")})
	phi6 := gfd.MustNew("phi6", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "1")})
	phi7 := gfd.MustNew("phi7", q6(), nil, []gfd.Literal{gfd.Const(0, "A", "0"), gfd.Const(1, "B", "1")})
	phi8 := gfd.MustNew("phi8", q7(), []gfd.Literal{gfd.Const(1, "B", "1")}, []gfd.Literal{gfd.Const(0, "A", "1")})
	phi9 := gfd.MustNew("phi9", q6(), []gfd.Literal{gfd.Const(1, "B", "1")}, []gfd.Literal{gfd.Const(3, "C", "1")})
	phi10 := gfd.MustNew("phi10", q7(), []gfd.Literal{gfd.Const(3, "C", "1")}, []gfd.Literal{gfd.Const(0, "A", "1")})

	sets := map[string]*gfd.Set{
		"ex2-same-pattern":  gfd.NewSet(phi5, phi6),
		"ex2-distinct":      gfd.NewSet(phi7, phi8),
		"ex4-chain":         gfd.NewSet(phi7, phi9, phi10),
		"sat-single":        gfd.NewSet(phi7),
		"sat-chain-no-seed": gfd.NewSet(phi9, phi10),
	}
	for name, set := range sets {
		want := SeqSat(set).Satisfiable
		for p := 1; p <= 4; p += 3 {
			got := ParSat(set, DefaultParOptions(p))
			if got.Satisfiable != want {
				t.Errorf("%s/p=%d: ParSat=%v, SeqSat=%v", name, p, got.Satisfiable, want)
			}
			if got.Satisfiable && got.Model() != nil && !IsModel(got.Model(), set) {
				t.Errorf("%s/p=%d: ParSat witness is not a model", name, p)
			}
		}
	}
}

func TestParImpAgreesOnPaperExamples(t *testing.T) {
	sigma := impExample8Sigma()
	phi13 := gfd.MustNew("phi13", q7(), []gfd.Literal{gfd.Const(2, "B", "2")}, []gfd.Literal{gfd.Const(2, "C", "2")})
	phi14 := gfd.MustNew("phi14", q7(), []gfd.Literal{gfd.Const(0, "A", "0")}, []gfd.Literal{gfd.Const(2, "C", "2")})
	notImp := gfd.MustNew("ni", q8(), nil, []gfd.Literal{gfd.Const(0, "A", "2")})

	cases := []struct {
		name string
		phi  *gfd.GFD
	}{
		{"phi13-deduction", phi13},
		{"phi14-conflict", phi14},
		{"not-implied", notImp},
	}
	for _, c := range cases {
		want := SeqImp(sigma, c.phi).Implied
		for p := 1; p <= 4; p += 3 {
			got := ParImp(sigma, c.phi, DefaultParOptions(p))
			if got.Implied != want {
				t.Errorf("%s/p=%d: ParImp=%v, SeqImp=%v", c.name, p, got.Implied, want)
			}
		}
	}
}

// randomSet builds a random GFD set over a small label/attribute universe,
// biased to produce both satisfiable and unsatisfiable instances.
func randomSet(rng *rand.Rand, n int) *gfd.Set {
	labels := []string{"a", "b", "c"}
	attrs := []string{"A", "B"}
	consts := []string{"0", "1"}
	set := gfd.NewSet()
	for i := 0; i < n; i++ {
		p := pattern.New()
		nv := 1 + rng.Intn(3)
		for v := 0; v < nv; v++ {
			p.AddVar(fmt.Sprintf("x%d", v), labels[rng.Intn(len(labels))])
		}
		for e := 0; e < nv; e++ {
			from := pattern.Var(rng.Intn(nv))
			to := pattern.Var(rng.Intn(nv))
			p.AddEdge(from, to, "e")
		}
		mkLit := func() gfd.Literal {
			x := pattern.Var(rng.Intn(nv))
			if rng.Intn(3) == 0 && nv > 1 {
				y := pattern.Var(rng.Intn(nv))
				return gfd.Vars(x, attrs[rng.Intn(2)], y, attrs[rng.Intn(2)])
			}
			return gfd.Const(x, attrs[rng.Intn(2)], consts[rng.Intn(2)])
		}
		var xs, ys []gfd.Literal
		for j := 0; j < rng.Intn(2); j++ {
			xs = append(xs, mkLit())
		}
		for j := 0; j < 1+rng.Intn(2); j++ {
			ys = append(ys, mkLit())
		}
		set.Add(gfd.MustNew(fmt.Sprintf("g%d", i), p, xs, ys))
	}
	return set
}

// TestParSatAgreesOnRandomSets runs ParSat at p ∈ {1, 3}: the verdict must
// be SeqSat's, and on a satisfiable Σ so must the final Eq (sameEq), which
// the workers' views wrote.
func TestParSatAgreesOnRandomSets(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	satSeen, unsatSeen := 0, 0
	same := func(t eq.Term) eq.Term { return t }
	for trial := 0; trial < 40; trial++ {
		set := randomSet(rng, 2+rng.Intn(4))
		want := SeqSat(set)
		wantEq := want.witness.eq // Model hands the relation over to the model
		if want.Satisfiable {
			satSeen++
			if want.Model() == nil || !IsModel(want.Model(), set) {
				t.Fatalf("trial %d: SeqSat model invalid", trial)
			}
		} else {
			unsatSeen++
		}
		for _, p := range []int{1, 3} {
			got := ParSat(set, DefaultParOptions(p))
			if got.Err != nil || got.Satisfiable != want.Satisfiable {
				t.Errorf("trial %d, p=%d: ParSat=%v (err %v) SeqSat=%v\n%s", trial, p, got.Satisfiable, got.Err, want.Satisfiable, set)
				continue
			}
			if !want.Satisfiable {
				continue
			}
			if _, err := sameEq(wantEq, got.witness.eq, same); err != nil {
				t.Errorf("trial %d, p=%d: ParSat's final Eq differs from SeqSat's: %v\n%s", trial, p, err, set)
			}
		}
	}
	if satSeen == 0 || unsatSeen == 0 {
		t.Fatalf("random generator degenerate: sat=%d unsat=%d", satSeen, unsatSeen)
	}
}

func TestParImpAgreesOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	impSeen, notSeen := 0, 0
	for trial := 0; trial < 40; trial++ {
		set := randomSet(rng, 1+rng.Intn(3))
		phiSet := randomSet(rng, 1)
		phi := phiSet.GFDs[0]
		want := SeqImp(set, phi)
		if want.Implied {
			impSeen++
		} else {
			notSeen++
		}
		got := ParImp(set, phi, DefaultParOptions(3))
		if got.Implied != want.Implied {
			t.Errorf("trial %d: ParImp=%v SeqImp=%v\nΣ:\n%sφ: %s", trial, got.Implied, want.Implied, set, phi)
		}
	}
	if impSeen == 0 || notSeen == 0 {
		t.Fatalf("random generator degenerate: implied=%d not=%d", impSeen, notSeen)
	}
}

// TestParSatManyWorkersSmallWork exercises the degenerate case of more
// workers than units.
func TestParSatManyWorkersSmallWork(t *testing.T) {
	phi := gfd.MustNew("phi", q8(), nil, []gfd.Literal{gfd.Const(0, "A", "1")})
	set := gfd.NewSet(phi)
	opt := DefaultParOptions(16)
	res := ParSat(set, opt)
	if !res.Satisfiable {
		t.Fatal("single satisfiable GFD reported unsat with 16 workers")
	}
}

// TestParSatZeroWorkersClamped: Workers<1 is clamped to 1.
func TestParSatZeroWorkersClamped(t *testing.T) {
	phi := gfd.MustNew("phi", q8(), nil, []gfd.Literal{gfd.Const(0, "A", "1")})
	opt := DefaultParOptions(0)
	if !ParSat(gfd.NewSet(phi), opt).Satisfiable {
		t.Fatal("clamped worker count broke ParSat")
	}
}

// TestStealingMatchesCentralStats sanity-checks the executor's bookkeeping
// on a quiescent run against SeqSat: both enforce the same matches
// (Church–Rosser: identical converged relation), and the per-unit steal
// accounting is self-consistent.
func TestStealingMatchesCentralStats(t *testing.T) {
	phi5 := gfd.MustNew("phi5", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "0")})
	phi7 := gfd.MustNew("phi7", q6(), nil, []gfd.Literal{gfd.Const(0, "A", "0"), gfd.Const(1, "B", "1")})
	set := gfd.NewSet(phi5, phi7)
	seq := SeqSat(set)
	par := ParSat(set, DefaultParOptions(4))
	if par.Err != nil {
		t.Fatalf("ParSat: %v", par.Err)
	}
	if seq.Satisfiable != par.Satisfiable {
		t.Fatalf("engines disagree: SeqSat=%v ParSat=%v", seq.Satisfiable, par.Satisfiable)
	}
	if seq.Stats.Enforcements != par.Stats.Enforcements {
		t.Fatalf("enforcement counts diverge on a quiescent run: SeqSat=%d ParSat=%d",
			seq.Stats.Enforcements, par.Stats.Enforcements)
	}
}

// TestUnitsPartitionGroupRoots pins ParSat's work shapes on gen's Σ of
// TestEngineCountsPinned. For every pattern group, its parts of the chunks —
// at one copy a chunk, seven and ⌈n/2⌉ — are ascending and put each of the
// group's pivot candidates in exactly one part, and running their searches
// one after another enumerates the sequence that one search over the whole
// list does, which holds every match of the pattern in G_Σ.
func TestUnitsPartitionGroupRoots(t *testing.T) {
	set := gen.New(gen.Config{N: 200, K: 6, L: 5, Profile: dataset.DBpedia(), WildcardRate: 0.3, Seed: 1}).Set()
	e := newSatEngine(DefaultParOptions(1), set)
	if err := e.planGroups(); err != nil {
		t.Fatal(err)
	}
	matches := func(u unit) []match.Assignment {
		var out []match.Assignment
		s := e.search(u)
		for h, ok := s.Next(); ok; h, ok = s.Next() {
			out = append(out, h.Clone())
		}
		return out
	}
	// check runs the parts of group grp, in order, against its whole list.
	check := func(cut string, grp int, parts []unit, want []match.Assignment) {
		t.Helper()
		var joined []graph.NodeID
		var got []match.Assignment
		for _, u := range parts {
			if u.grp != grp || len(u.roots) == 0 || !slices.IsSorted(u.roots) {
				t.Fatalf("group %d, %s: a part of group %d with roots %v", grp, cut, u.grp, u.roots)
			}
			joined = append(joined, u.roots...)
			got = append(got, matches(u)...)
		}
		if !slices.Equal(joined, e.roots[grp]) {
			t.Fatalf("group %d, %s: parts join to %v, want %v", grp, cut, joined, e.roots[grp])
		}
		if !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("group %d, %s: the parts enumerate %v, the whole list %v", grp, cut, got, want)
		}
	}
	byGroup := func(tasks [][]unit) [][]unit {
		parts := make([][]unit, len(e.groups))
		for _, task := range tasks {
			for _, u := range task {
				parts[u.grp] = append(parts[u.grp], u)
			}
		}
		return parts
	}
	chunked := map[int][][]unit{}
	for _, size := range []int{1, 7, (set.Len() + 1) / 2} {
		tasks, _ := e.chunks(size)
		chunked[size] = byGroup(tasks)
	}
	found := 0
	for grp, all := range e.roots {
		if len(all) == 0 {
			continue
		}
		if !slices.IsSorted(all) || len(slices.Compact(slices.Clone(all))) != len(all) {
			t.Fatalf("group %d: candidates %v are not strictly ascending", grp, all)
		}
		want := matches(unit{grp: grp, roots: all})
		if n := len(match.FindAll(e.groups[grp].Pattern, e.g)); len(want) != n {
			t.Fatalf("group %d: %d matches rooted in the candidates, %d in G_Σ", grp, len(want), n)
		}
		for size, parts := range chunked {
			check(fmt.Sprintf("chunks of %d copies", size), grp, parts[grp], want)
		}
		found += len(want)
	}
	if found == 0 {
		t.Fatal("no group has a match: the partition is not tested")
	}
}

// TestUnitsPartitionParImpGroups pins ParImp's cut: one unit per pattern
// group of Σ′ that has pivot candidates on G^X_Q, at every p; a target that
// is not implied has every unit chased.
func TestUnitsPartitionParImpGroups(t *testing.T) {
	gr := gen.New(gen.Config{N: 200, K: 6, L: 5, Profile: dataset.DBpedia(), WildcardRate: 0.3, Seed: 1})
	set, phi := gr.Set(), gr.NonImpliedGFD()
	cp, sub, res := startImp(set, phi)
	if res != nil {
		t.Fatalf("answered without a chase: %v", res.Reason)
	}
	e := newParEngine(DefaultParOptions(1), sub, cp.Graph)
	if err := e.planGroups(); err != nil {
		t.Fatal(err)
	}
	want := map[int]int{} // a group's first member → its units
	for gi, roots := range e.roots {
		if len(roots) > 0 {
			want[e.groups[gi].Members[0]] = 1
		}
	}
	if len(want) < 2 {
		t.Fatalf("%d groups have candidates: the cut is not tested", len(want))
	}
	for _, p := range []int{1, 2, 4} {
		var mu sync.Mutex
		got := map[int]int{}
		opt := DefaultParOptions(p)
		opt.testHookUnitStart = func(first int) {
			mu.Lock()
			got[first]++
			mu.Unlock()
		}
		r := ParImp(set, phi, opt)
		if r.Err != nil || r.Implied {
			t.Fatalf("p=%d: implied %v, err %v", p, r.Implied, r.Err)
		}
		if !maps.Equal(got, want) || r.Stats.UnitsRun != len(want) {
			t.Errorf("p=%d: units by group %v, %d chased; want one for each of %v", p, got, r.Stats.UnitsRun, want)
		}
	}
}

// TestOneWorkerChasesOneChunk pins how ParSat sizes its chunks: ⌈|Σ|/p⌉
// copies, so on an uncoupled Σ p workers take exactly min(p, |Σ|) tasks —
// one at p = 1 — and SeqSat is the one-worker run, stat for stat.
func TestOneWorkerChasesOneChunk(t *testing.T) {
	for _, n := range []int{3, 401} {
		set := gen.New(gen.Config{N: n, K: 6, L: 5, Profile: dataset.DBpedia(), WildcardRate: 0.3, Seed: 1}).Set()
		e := newSatEngine(DefaultParOptions(1), set)
		if err := e.planGroups(); err != nil {
			t.Fatal(err)
		}
		uf := e.coupling()
		for c := range uf {
			if uf.find(int32(c)) != int32(c) {
				t.Fatalf("|Σ| = %d: copy %d is coupled; the test needs an uncoupled Σ", n, c)
			}
		}
		var one Stats
		for _, p := range []int{1, 2, 4} {
			var tasks atomic.Int32
			opt := DefaultParOptions(p)
			opt.testHookTask = func(int, []unit) { tasks.Add(1) }
			res := ParSat(set, opt)
			if res.Err != nil || !res.Satisfiable {
				t.Fatalf("|Σ| = %d, p=%d: satisfiable %v, err %v", n, p, res.Satisfiable, res.Err)
			}
			if got := int(tasks.Load()); got != min(p, n) {
				t.Errorf("|Σ| = %d, p=%d: %d tasks, want %d", n, p, got, min(p, n))
			}
			if p == 1 {
				one = res.Stats
			}
		}
		if seq := SeqSat(set).Stats; seq != one {
			t.Errorf("|Σ| = %d: SeqSat's stats %+v, ParSat p=1's %+v", n, seq, one)
		}
	}
}
