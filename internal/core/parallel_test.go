package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/dataset"
	"repro/internal/eq"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/gfdio"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// variantOptions enumerates the unit-splitting regimes: none (TTL 0, the
// paper's ParSat_nb / ParImp_nb) and a TTL so small that every unit is
// split at every match it enumerates, so split seeds, the deque pushes and
// the re-run of carved-off branches are all on the tested path.
func variantOptions(workers int) map[string]ParOptions {
	return map[string]ParOptions{
		"nb":    {Workers: workers},
		"split": {Workers: workers, TTL: time.Nanosecond},
	}
}

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
			for vname, opt := range variantOptions(p) {
				got := ParSat(set, opt)
				if got.Satisfiable != want {
					t.Errorf("%s/%s/p=%d: ParSat=%v, SeqSat=%v", name, vname, p, got.Satisfiable, want)
				}
				if got.Satisfiable && got.Model() != nil && !IsModel(got.Model(), set) {
					t.Errorf("%s/%s/p=%d: ParSat witness is not a model", name, vname, p)
				}
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
			for vname, opt := range variantOptions(p) {
				got := ParImp(sigma, c.phi, opt)
				if got.Implied != want {
					t.Errorf("%s/%s/p=%d: ParImp=%v, SeqImp=%v", c.name, vname, p, got.Implied, want)
				}
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

// TestParSatAgreesOnRandomSets runs ParSat at p ∈ {1, 3} with the default
// TTL and with one so small that every unit splits: the verdict must be
// SeqSat's, and on a satisfiable Σ so must the final Eq (sameEq).
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
			for _, ttl := range []time.Duration{DefaultParOptions(p).TTL, time.Nanosecond} {
				opt := DefaultParOptions(p)
				opt.TTL = ttl
				got := ParSat(set, opt)
				if got.Err != nil || got.Satisfiable != want.Satisfiable {
					t.Errorf("trial %d, p=%d, TTL %v: ParSat=%v (err %v) SeqSat=%v\n%s", trial, p, ttl, got.Satisfiable, got.Err, want.Satisfiable, set)
					continue
				}
				if !want.Satisfiable {
					continue
				}
				if _, err := sameEq(wantEq, got.witness.eq, same); err != nil {
					t.Errorf("trial %d, p=%d, TTL %v: ParSat's final Eq differs from SeqSat's: %v\n%s", trial, p, ttl, err, set)
				}
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
		opt := DefaultParOptions(3)
		opt.TTL = 2 * time.Millisecond
		got := ParImp(set, phi, opt)
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

// TestSplittingProducesSubUnits forces tiny TTL on a workload with a large
// fan-out pattern so unit splitting actually triggers, then checks the
// answer is still right.
func TestSplittingProducesSubUnits(t *testing.T) {
	// Pattern: hub(a) -p-> s1..s3 (all wildcard), over a set with several
	// wide patterns; matching fans out combinatorially.
	mkWide := func(name string, val string) *gfd.GFD {
		p := pattern.New()
		h := p.AddVar("h", "a")
		for i := 0; i < 3; i++ {
			s := p.AddVar(fmt.Sprintf("s%d", i), "b")
			p.AddEdge(h, s, "p")
		}
		return gfd.MustNew(name, p, nil, []gfd.Literal{gfd.Const(h, "A", val)})
	}
	set := gfd.NewSet()
	for i := 0; i < 6; i++ {
		set.Add(mkWide(fmt.Sprintf("w%d", i), "1"))
	}
	opt := DefaultParOptions(4)
	opt.TTL = 1 * time.Nanosecond // split at every opportunity
	res := ParSat(set, opt)
	if !res.Satisfiable {
		t.Fatal("wide satisfiable set reported unsat under aggressive splitting")
	}
	if res.Stats.UnitsSplit == 0 {
		t.Error("TTL=1ns produced no splits; splitting path untested")
	}
	// And an unsatisfiable variant still conflicts.
	set.Add(mkWide("conflict", "2"))
	res = ParSat(set, opt)
	if res.Satisfiable {
		t.Fatal("conflicting wide set reported satisfiable under splitting")
	}
}

// TestStragglerSplitBranchesRequeued is the TTL straggler-splitting
// contract: with a tiny TTL every unit splits, the carved-off branches must
// be pushed back to the pool and run (a quiescent run executes the original
// units plus every split branch, so UnitsRun exceeds UnitsSplit), and the
// verdict must equal SeqSat's with a witness that is still a model.
func TestStragglerSplitBranchesRequeued(t *testing.T) {
	mkWide := func(name string, val string) *gfd.GFD {
		p := pattern.New()
		h := p.AddVar("h", "a")
		for i := 0; i < 3; i++ {
			s := p.AddVar(fmt.Sprintf("s%d", i), "b")
			p.AddEdge(h, s, "p")
		}
		return gfd.MustNew(name, p, nil, []gfd.Literal{gfd.Const(h, "A", val)})
	}
	set := gfd.NewSet()
	for i := 0; i < 6; i++ {
		set.Add(mkWide(fmt.Sprintf("w%d", i), "1"))
	}
	want := SeqSat(set)
	for _, workers := range []int{1, 4} {
		opt := DefaultParOptions(workers)
		opt.TTL = 1 * time.Nanosecond // force a split at every check
		res := ParSat(set, opt)
		ctx := fmt.Sprintf("p=%d", workers)
		if res.Satisfiable != want.Satisfiable {
			t.Fatalf("%s: ParSat=%v, SeqSat=%v", ctx, res.Satisfiable, want.Satisfiable)
		}
		if res.Model() == nil || !IsModel(res.Model(), set) {
			t.Fatalf("%s: witness under aggressive splitting is not a model", ctx)
		}
		if res.Stats.UnitsSplit == 0 {
			t.Fatalf("%s: TTL=1ns produced no splits; the splitting path went untested", ctx)
		}
		// Quiescence means every re-enqueued branch ran: total executions
		// are the original units plus each split branch exactly once.
		if res.Stats.UnitsRun <= res.Stats.UnitsSplit {
			t.Fatalf("%s: UnitsRun=%d not above UnitsSplit=%d; split branches were dropped",
				ctx, res.Stats.UnitsRun, res.Stats.UnitsSplit)
		}
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
	if par.Stats.UnitsStolen < 0 || par.Stats.UnitsStolen > par.Stats.UnitsRun {
		t.Fatalf("stolen units %d out of range (run %d)", par.Stats.UnitsStolen, par.Stats.UnitsRun)
	}
}

// TestUnitsPartitionGroupRoots pins the unit shape on gen's Σ of
// TestEngineCountsPinned. For every pattern group and every cut — one
// candidate, three, unitRoots and the whole list — the ranges are ascending
// and put each of the group's pivot candidates in exactly one range, and
// running their searches one after another enumerates the sequence that one
// search over the whole list does, which holds every match of the pattern
// in G_Σ.
func TestUnitsPartitionGroupRoots(t *testing.T) {
	set := gen.New(gen.Config{N: 200, K: 6, L: 5, Profile: dataset.DBpedia(), WildcardRate: 0.3, Seed: 1}).Set()
	cs := canon.BuildSigma(set)
	e := newParEngine(DefaultParOptions(1), set, cs.Graph.Frozen(), eq.New())
	e.sigma = cs
	if err := e.buildUnits(); err != nil {
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
	// The units buildUnits cut, joined per group, are the group's candidates.
	roots := make([][]graph.NodeID, len(e.groups))
	for _, u := range e.units {
		if len(u.roots) == 0 || len(u.roots) > unitRoots || u.seed != nil {
			t.Fatalf("group %d: a unit of %d roots (seed %v), want 1 to %d and no seed", u.grp, len(u.roots), u.seed, unitRoots)
		}
		roots[u.grp] = append(roots[u.grp], u.roots...)
	}
	found := 0
	for grp, all := range roots {
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
		for _, size := range []int{1, 3, unitRoots, len(all)} {
			var joined []graph.NodeID
			var got []match.Assignment
			for _, u := range appendRanges(nil, grp, all, size) {
				if u.grp != grp || len(u.roots) == 0 || len(u.roots) > size {
					t.Fatalf("group %d, cut %d: a unit of group %d with %d roots", grp, size, u.grp, len(u.roots))
				}
				joined = append(joined, u.roots...)
				got = append(got, matches(u)...)
			}
			if !slices.Equal(joined, all) {
				t.Fatalf("group %d, cut %d: ranges join to %v, want %v", grp, size, joined, all)
			}
			if !slices.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("group %d, cut %d: the ranges enumerate %v, the whole list %v", grp, size, got, want)
			}
		}
		found += len(want)
	}
	if found == 0 {
		t.Fatal("no group has a match: the partition is not tested")
	}
}
