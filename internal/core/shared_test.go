package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/oracle"
	"repro/internal/pattern"
)

// violationsOneByOne is the order reference for the grouped evaluation: Σ
// walked GFD by GFD, each pattern enumerated by a search of its own, the
// literals read straight off the graph by the oracle's string walk — no
// groups, no compiled literal program.
func violationsOneByOne(g graph.Reader, set *gfd.Set) []Violation {
	var out []Violation
	for _, phi := range set.GFDs {
		s := match.NewSearch(phi.Pattern, g, match.Options{})
		for h, ok := s.Next(); ok; h, ok = s.Next() {
			if oracle.Violates(g, phi, h) {
				out = append(out, Violation{GFD: phi, Match: h.Clone()})
			}
		}
	}
	return out
}

// violationKeys renders a violation list as sorted "GFD index, match" keys,
// so two lists can be compared as sets.
func violationKeys(set *gfd.Set, vs []Violation) []string {
	index := make(map[*gfd.GFD]int, set.Len())
	for i, phi := range set.GFDs {
		index[phi] = i
	}
	keys := make([]string, len(vs))
	for i, v := range vs {
		keys[i] = fmt.Sprint(index[v.GFD], v.Match)
	}
	sort.Strings(keys)
	return keys
}

// violationsOnRows is violations on one worker with groups that never arm,
// so their scratches search attribute rows instead of reading the
// snapshot's value columns and no guard prunes.
func violationsOnRows(r graph.Reader, set *gfd.Set) []Violation {
	vs, _, err := violations(r, set, ParOptions{testArmAt: func(int) int { return math.MaxInt }})
	if err != nil {
		panic(err)
	}
	return vs
}

// sameAsOracle reports whether got is, as a set, exactly what the
// brute-force oracle finds on g.
func sameAsOracle(g graph.Reader, set *gfd.Set, got []Violation) bool {
	var want []Violation
	for _, v := range oracle.Violations(g, set) {
		want = append(want, Violation{GFD: v.GFD, Match: v.Match})
	}
	return slices.Equal(violationKeys(set, got), violationKeys(set, want))
}

// mutableCopy replays f into an editable graph.Graph, tombstones included:
// the Graph tier of the reader-equivalence tests.
func mutableCopy(f *graph.Frozen) *graph.Graph {
	g := graph.New()
	for v := range graph.NodeID(f.NumNodes()) {
		g.AddNodeWithAttrs(f.Label(v), f.Attrs(v))
	}
	for v := range graph.NodeID(f.NumNodes()) {
		for _, e := range f.Out(v) {
			g.AddEdge(e.From, e.To, e.Label)
		}
		if !f.Alive(v) {
			g.RemoveNode(v)
		}
	}
	return g
}

// TestGroupedViolationsMatchPerGFD is the shared-evaluation equivalence
// property for validation: on generated sets with duplicated and
// prefix-overlapping patterns, grouped evaluation must reproduce checking
// each GFD on its own (violationsOneByOne) violation for violation, in
// order, and the brute-force oracle as a set, on every storage tier and at
// every worker count, with the same stats at each; and the list must be
// the one scratches that search rows instead of reading value columns give.
// It also pins that sharing actually happened — a grouping that
// degenerates to singletons would pass equivalence vacuously — and that
// some run read value columns.
func TestGroupedViolationsMatchPerGFD(t *testing.T) {
	ctx := context.Background()
	sharedGFDs, reused, total, columnTiers := 0, 0, 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed * 7))
		gr := gen.New(gen.Config{N: 15, K: 5, L: 2, Profile: dataset.DBpedia(), WildcardRate: 0.2, Seed: seed})
		set := gr.SharedValidationSet(4, 6)
		if set.Len() == 0 {
			continue
		}
		frozen := perturb(rng, gr.DenseFrozen(900, 6), 20)
		d := gr.DenseDelta(frozen, 30)
		tiers := []struct {
			name string
			data graph.Reader
		}{
			{"mutable", mutableCopy(frozen)},
			{"frozen", frozen},
			{"sharded", frozen.Sharded(3)},
			{"overlay", d.Overlay()},
		}
		groups := len(set.Groups())
		for _, tier := range tiers {
			per := violationsOneByOne(tier.data, set)
			if !sameAsOracle(tier.data, set, per) {
				t.Fatalf("seed=%d %s: one-by-one violations differ from the oracle's", seed, tier.name)
			}
			if !violationsEqual(violationsOnRows(tier.data, set), per) {
				t.Fatalf("seed=%d %s: violations on rows differ from one-by-one", seed, tier.name)
			}
			var first VerifyStats
			for _, w := range []int{1, 2, 4, 2 * groups} {
				grouped, gst, err := violations(tier.data, set, ParOptions{Workers: w, Ctx: ctx})
				if err != nil {
					t.Fatalf("seed=%d %s w=%d: grouped: %v", seed, tier.name, w, err)
				}
				if !violationsEqual(grouped, per) {
					t.Fatalf("seed=%d %s w=%d: grouped %d violations != one-by-one %d", seed, tier.name, w, len(grouped), len(per))
				}
				if w == 1 {
					first = gst
				} else if gst != first {
					t.Fatalf("seed=%d %s w=%d: stats %+v, at w=1 %+v", seed, tier.name, w, gst, first)
				}
			}
			if tier.data.Snapshot().NumAttrColumns() > 0 {
				columnTiers++
			}
			if first.Groups >= set.Len() {
				t.Fatalf("seed=%d %s: %d groups for %d GFDs; no sharing", seed, tier.name, first.Groups, set.Len())
			}
			sharedGFDs += first.SharedGFDs
			reused += first.MatchesReused
			total += len(per)
		}
	}
	if total == 0 {
		t.Fatal("no violations in any instance; equivalence test is vacuous")
	}
	if sharedGFDs == 0 || reused == 0 {
		t.Fatalf("sharing never fired: sharedGFDs=%d matchesReused=%d", sharedGFDs, reused)
	}
	if columnTiers == 0 {
		t.Fatal("no grouped run read a value column; the rows ≡ columns check is vacuous")
	}
}

// armFixture is the fixture of the arming tests: n nodes alternately
// labelled a and b, where pair k = (2k, 2k+1) carries equal values of A when
// k is even, and a two-member group on x:a -e-> y:b whose members both read
// Y x.A = y.A. Adding pair k's e-edge makes it match k.
func armFixture(n int) (*graph.Builder, *gfd.Set) {
	p := pattern.New()
	x, y := p.AddVar("x", "a"), p.AddVar("y", "b")
	p.AddEdge(x, y, "e")
	eq := func(name string) *gfd.GFD { return gfd.MustNew(name, p, nil, []gfd.Literal{gfd.Vars(x, "A", y, "A")}) }
	b := graph.NewBuilder(0)
	for i := 0; i < n; i++ {
		v := b.AddNode([]string{"a", "b"}[i%2])
		a := i % 3
		if (i/2)%2 == 0 {
			a = (i / 2) % 3
		}
		b.SetAttr(v, "A", fmt.Sprint(a))
	}
	return b, gfd.NewSet(eq("eq"), eq("eq2"))
}

// armDelivered is the number of armFixture's first matches pairs a search
// delivers on n nodes: every pair up to the n/16th, after which the group
// arms and its guard drops the pairs where both members hold.
func armDelivered(n, matches int) int {
	delivered := min(n/16, matches)
	for k := n / 16; k < matches; k++ {
		delivered += k % 2
	}
	return delivered
}

// TestViolationsAttrColumnThreshold pins when a validation group arms: it
// switches from rows to value columns, and turns its literal guard on,
// after n/16 matches on a snapshot of n nodes, so a group with exactly that
// many matches makes no column and one more match makes one per name it
// reads. The group's two members hold at every other match, which the
// armed guard drops, so the matches delivered (MatchesReused, for a group
// of two) show the guard arming at the same count. The violation lists are
// the oracle's either way.
func TestViolationsAttrColumnThreshold(t *testing.T) {
	const n = 320
	for _, extra := range []int{0, 1, 8} {
		b, set := armFixture(n)
		matches := n/16 + extra
		for i := 0; i < matches; i++ {
			b.AddEdge(graph.NodeID(2*i), graph.NodeID(2*i+1), "e")
		}
		f := b.Freeze()
		got, st, err := ViolationsOpts(context.Background(), f, set, VerifyOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameAsOracle(f, set, got) || len(got) == 0 {
			t.Fatalf("%d matches: %d violations, not the oracle's", matches, len(got))
		}
		if cols, want := f.NumAttrColumns(), min(extra, 1); cols != want {
			t.Fatalf("%d matches on %d nodes: %d value columns, want %d", matches, n, cols, want)
		}
		if want := armDelivered(n, matches); st.MatchesReused != want {
			t.Fatalf("%d matches on %d nodes: %d delivered, want %d", matches, n, st.MatchesReused, want)
		}
	}
}

// TestSatisfiesIsFirstViolation pins Satisfies to the per-GFD reference:
// its violation is the first of violationsOneByOne — Σ's first failing GFD
// at its first failing match — on generated graphs with and without
// violations, and on a group of two whose second member fails at an
// earlier match than the first.
func TestSatisfiesIsFirstViolation(t *testing.T) {
	check := func(name string, g graph.Reader, set *gfd.Set) bool {
		t.Helper()
		ok, v := Satisfies(g, set)
		want := violationsOneByOne(g, set)
		if ok != (len(want) == 0) {
			t.Fatalf("%s: Satisfies=%v with %d violations", name, ok, len(want))
		}
		if !ok && !violationsEqual([]Violation{*v}, want[:1]) {
			t.Fatalf("%s: Satisfies gave %s at %v, the first violation is %s at %v", name, v.GFD.Name, v.Match, want[0].GFD.Name, want[0].Match)
		}
		return ok
	}
	held, failed := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		gr := gen.New(gen.Config{N: 15, K: 5, L: 2, Profile: dataset.DBpedia(), WildcardRate: 0.2, Seed: seed})
		dense := perturb(rand.New(rand.NewSource(seed)), gr.DenseFrozen(400, 6), 20)
		cons := gen.New(gen.Config{N: 20, K: 3, L: 3, Seed: seed})
		consSet := cons.Set()
		for name, c := range map[string]struct {
			g   graph.Reader
			set *gfd.Set
		}{
			"consistent": {cons.ConsistentGraph(60), consSet},
			"dense":      {dense, gr.SharedValidationSet(4, 6)},
		} {
			if check(fmt.Sprintf("seed=%d %s", seed, name), c.g, c.set) {
				held++
			} else {
				failed++
			}
		}
	}
	if held == 0 || failed == 0 {
		t.Fatalf("Σ held %d times and failed %d times: one side is untested", held, failed)
	}

	// x:a with two members: "first" fails at node 1 only, "second" at node
	// 0, which the search delivers first.
	p := pattern.New()
	x := p.AddVar("x", "a")
	set := gfd.NewSet(
		gfd.MustNew("first", p, nil, []gfd.Literal{gfd.Const(x, "A", "1")}),
		gfd.MustNew("second", p, nil, []gfd.Literal{gfd.Const(x, "B", "1")}),
	)
	b := graph.NewBuilder(0)
	for _, ab := range [][2]string{{"1", "0"}, {"0", "1"}} {
		v := b.AddNode("a")
		b.SetAttr(v, "A", ab[0])
		b.SetAttr(v, "B", ab[1])
	}
	f := b.Freeze()
	if len(set.Groups()) != 1 {
		t.Fatal("fixture: the two members do not share a group")
	}
	check("group of two", f, set)
	if _, v := Satisfies(f, set); v.GFD.Name != "first" || v.Match[x] != 1 {
		t.Fatalf("Satisfies gave %s at %v, want first at [1]", v.GFD.Name, v.Match)
	}
}

// TestGroupedSatImpMatchPerGFD pins that ParSat and ParImp, which enumerate
// once per pattern group, return the answers of SeqSat and SeqImp, which
// walk Σ GFD by GFD, on sets where every pattern shape carries several GFDs.
func TestGroupedSatImpMatchPerGFD(t *testing.T) {
	groupsShared := 0
	for seed := int64(0); seed < 3; seed++ {
		for _, conflicts := range []int{0, 1} {
			gr := gen.New(gen.Config{N: 10, K: 4, L: 3, Seed: seed, Conflicts: conflicts})
			set := gr.SharedSet(2)
			wantSat := SeqSat(set).Satisfiable
			phi := gr.ImpliedGFD(set)
			wantImp := SeqImp(set, phi).Implied
			opt := DefaultParOptions(4)
			name := fmt.Sprintf("seed=%d conflicts=%d", seed, conflicts)
			sr := ParSat(set, opt)
			if sr.Err != nil {
				t.Fatalf("%s: ParSat: %v", name, sr.Err)
			}
			if sr.Satisfiable != wantSat {
				t.Fatalf("%s: ParSat=%v, SeqSat=%v", name, sr.Satisfiable, wantSat)
			}
			groupsShared += sr.Stats.GroupsShared
			ir := ParImp(set, phi, opt)
			if ir.Err != nil {
				t.Fatalf("%s: ParImp: %v", name, ir.Err)
			}
			if ir.Implied != wantImp {
				t.Fatalf("%s: ParImp=%v, SeqImp=%v", name, ir.Implied, wantImp)
			}
		}
	}
	if groupsShared == 0 {
		t.Fatal("no grouped ParSat run ever shared a pattern group; test is vacuous")
	}
}

// TestGroupedRevalidateMatchesPerGFD pins incremental revalidation: after a
// random update stream over a perturbed graph, grouped revalidation (one
// set of touched-rooted searches per pattern group, carry-over scattered per
// member) must equal Violations(updated, Σ), the full recomputation,
// exactly — sequentially and in parallel (on a copy of prev, so it does not
// continue the sequential call's chain) — and that recomputation must be
// the oracle's violation set.
func TestGroupedRevalidateMatchesPerGFD(t *testing.T) {
	reused, total := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed * 13))
		gr := gen.New(gen.Config{N: 20, K: 6, L: 2, Profile: dataset.DBpedia(), Seed: seed})
		set := gr.SharedValidationSet(4, 5)
		if set.Len() == 0 {
			continue
		}
		base := perturb(rng, gr.DenseFrozen(1000, 8), 25)
		prev := Violations(base, set)
		d := gr.DenseDelta(base, 40)
		want := Violations(d.Overlay(), set)
		if !sameAsOracle(d.Overlay(), set, want) {
			t.Fatalf("seed=%d: full recompute differs from the oracle's violation set", seed)
		}
		grouped, gst, err := RevalidateDelta(set, d, prev, RevalidateOptions{})
		if err != nil {
			t.Fatalf("seed=%d: grouped revalidate: %v", seed, err)
		}
		if !violationsEqual(grouped, want) {
			t.Fatalf("seed=%d: grouped %d violations != full recompute %d", seed, len(grouped), len(want))
		}
		if gst.Groups >= set.Len() {
			t.Fatalf("seed=%d: %d groups for %d GFDs; no sharing", seed, gst.Groups, set.Len())
		}
		groupedPar, _, err := RevalidateDelta(set, d, slices.Clone(prev), RevalidateOptions{Workers: 4})
		if err != nil {
			t.Fatalf("seed=%d: grouped parallel revalidate: %v", seed, err)
		}
		if !violationsEqual(groupedPar, want) {
			t.Fatalf("seed=%d: grouped parallel revalidate diverges", seed)
		}
		reused += gst.MatchesReused
		total += len(want) + len(prev)
	}
	if total == 0 {
		t.Fatal("no violations in any instance; equivalence test is vacuous")
	}
	if reused == 0 {
		t.Fatal("grouped revalidation never reused a match; test is vacuous")
	}
}

// TestPerturbedSchedulesValidationAgree runs validation and revalidation at
// p ∈ {2, 4} under perturbed schedules: Violations paused as each group's
// task starts, Revalidate as each group's unit starts (perturbed). Every list
// must be the unpaused one-worker run's, violation for violation, in order.
func TestPerturbedSchedulesValidationAgree(t *testing.T) {
	ctx := context.Background()
	gr := gen.New(gen.Config{N: 20, K: 6, L: 2, Profile: dataset.DBpedia(), Seed: 1})
	set := gr.SharedValidationSet(4, 5)
	base := perturb(rand.New(rand.NewSource(13)), gr.DenseFrozen(1000, 8), 25)
	prev, _, err := violations(base, set, ParOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	d := gr.DenseDelta(base, 40)
	overlay, touched := d.Overlay(), d.TouchedSince(0)
	want, _, err := violations(overlay, set, ParOptions{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	wantReval, _, err := Revalidate(set, overlay, touched, prev, RevalidateOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Groups()) < 2 || len(prev) == 0 || len(want) == 0 {
		t.Fatalf("%d groups, %d violations before the delta and %d after: the schedules test nothing", len(set.Groups()), len(prev), len(want))
	}
	for _, p := range []int{2, 4} {
		for seed := int64(1); seed <= perturbedSeeds; seed++ {
			pause := seededPauses(seed)
			got, _, err := violations(overlay, set, ParOptions{Workers: p, Ctx: ctx, testHookUnitStart: func(int) { pause() }})
			if err != nil || !violationsEqual(got, want) {
				t.Errorf("Violations, p=%d, seed %d: %d violations (err %v), unpaused %d", p, seed, len(got), err, len(want))
			}
			got, _, err = Revalidate(set, overlay, touched, prev, perturbed(RevalidateOptions{Workers: p}, seed))
			if err != nil || !violationsEqual(got, wantReval) {
				t.Errorf("Revalidate, p=%d, seed %d: %d violations (err %v), unpaused %d", p, seed, len(got), err, len(wantReval))
			}
		}
	}
}

// TestViolationsAllocsIndependentOfMatches: validation is handed views and
// copies a match only when some rule fails at it, so a ViolationsOpts call
// allocates in proportion to what it reports and to |Σ| — not to the
// matches it enumerates, which on a dense graph outnumber both by far.
func TestViolationsAllocsIndependentOfMatches(t *testing.T) {
	gr := gen.New(gen.Config{N: 40, K: 4, L: 2, Seed: 3})
	set := gr.Set()
	f := gr.DenseFrozen(1500, 8)
	rng := rand.New(rand.NewSource(3))
	d := graph.NewDelta(f)
	for i := 0; i < 4; i++ {
		v := graph.NodeID(rng.Intn(f.NumNodes()))
		for a := range f.Attrs(v) {
			d.SetAttr(v, a, "perturbed")
		}
	}
	f = f.Refreeze(d)

	groups := set.Groups()
	pgs := make([]match.PatternGroup, len(groups))
	for i, grp := range groups {
		pgs[i] = match.PatternGroup{Pattern: grp.Pattern}
	}
	matches := 0
	_, err := match.EnumerateGrouped(context.Background(), f, pgs, func(int, match.Assignment) bool {
		matches++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	vs, _, err := ViolationsOpts(context.Background(), f, set, VerifyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Per violation at most the copy; per GFD and group the searches,
	// literal programs, scratch and the doubling of the violation lists.
	bound := len(vs) + 64*(set.Len()+len(groups))
	if matches < 10*bound || len(vs) == 0 {
		t.Fatalf("setup: %d matches, %d violations — want violations and matches far above the bound %d",
			matches, len(vs), bound)
	}
	got := testing.AllocsPerRun(3, func() {
		if _, _, err := ViolationsOpts(context.Background(), f, set, VerifyOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d matches, %d violations, %d GFDs in %d groups: %.0f allocs/call (bound %d)",
		matches, len(vs), set.Len(), len(groups), got, bound)
	if int(got) > bound {
		t.Errorf("ViolationsOpts: %.0f allocs/call over %d matches, want at most %d (violations + 64·(GFDs + groups))", got, matches, bound)
	}
}

// TestParSatAllocsIndependentOfMatches: the chase is handed views and parks
// matches in an arena, so a lone-worker ParSat or a SeqSat call allocates in
// proportion to |Σ| and its pattern groups — G_Σ, simulation, plans,
// searches, the enforcer's tables — not to the matches it enumerates, which
// on this Σ outnumber the bound. Both engines make 27–32 allocations per
// GFD and group, so a bound of 48 leaves room for a toolchain that
// allocates more and none for a per-match copy: even a match Clone the
// compiler keeps on the stack for most matches (ParSat p=1 at 85 k) does
// not fit.
func TestParSatAllocsIndependentOfMatches(t *testing.T) {
	set := gen.New(gen.Config{N: 800, K: 6, L: 5, Profile: dataset.DBpedia(), WildcardRate: 0.9, Seed: 1}).Set()
	groups := len(set.Groups())
	bound := 48 * (set.Len() + groups)
	opt := DefaultParOptions(1)
	r := ParSat(set, opt)
	if r.Err != nil || !r.Satisfiable {
		t.Fatalf("setup: ParSat = %v, err %v; want a satisfiable Σ chased to quiescence", r.Satisfiable, r.Err)
	}
	if r.Stats.Matches < 100_000 || r.Stats.Matches < bound {
		t.Fatalf("setup: %d matches — want at least 10⁵ and more than the bound %d", r.Stats.Matches, bound)
	}
	for _, run := range []struct {
		name string
		fn   func()
	}{
		{"ParSat p=1", func() { ParSat(set, opt) }},
		{"SeqSat", func() { SeqSat(set) }},
	} {
		got := testing.AllocsPerRun(2, run.fn)
		t.Logf("%s: %d matches, %d GFDs in %d groups: %.0f allocs/call (bound %d)",
			run.name, r.Stats.Matches, set.Len(), groups, got, bound)
		if int(got) > bound {
			t.Errorf("%s: %.0f allocs/call over %d matches, want at most %d (48·(GFDs + groups))",
				run.name, got, r.Stats.Matches, bound)
		}
	}
}
