package core

// Tests of the enforcement loop's ID path: the handle/class distinction of
// the pending index, the watched literal, the workers' silence, and the
// steady-state allocation ceiling.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/eq"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// needsA builds Q5[x](x.A = x.A → x.attr = val): "if x has an A attribute".
// The antecedent holds exactly where the class [x.A] exists.
func needsA(name, attr, val string) *gfd.GFD {
	return gfd.MustNew(name, q5(), []gfd.Literal{gfd.Vars(0, "A", 0, "A")}, []gfd.Literal{gfd.Const(0, attr, val)})
}

// satEngines runs Σ through SeqSat and ParSat at p ∈ {1, 2, 4}.
func satEngines(t *testing.T, set *gfd.Set) map[string]*SatResult {
	t.Helper()
	out := map[string]*SatResult{"SeqSat": SeqSat(set)}
	for _, p := range []int{1, 2, 4} {
		res := ParSat(set, DefaultParOptions(p))
		if res.Err != nil {
			t.Fatalf("ParSat(p=%d): %v", p, res.Err)
		}
		out[fmt.Sprintf("ParSat(p=%d)", p)] = res
	}
	return out
}

// TestParkingDoesNotCreateTheClass pins the handle/class distinction. Two
// rules over the same one-node pattern share the antecedent term x.A.
// Parking the first rule's match files it under x.A's handle; the second
// rule's check at the same node must still find x.A absent. A handle table
// that created the class on lookup would fire the second rule everywhere.
func TestParkingDoesNotCreateTheClass(t *testing.T) {
	b, c := needsA("b", "B", "1"), needsA("c", "C", "2")

	for name, res := range satEngines(t, gfd.NewSet(b, c)) {
		if !res.Satisfiable {
			t.Fatalf("%s: unsatisfiable", name)
		}
		if res.Stats.Enforcements != 0 || res.Stats.Pending != res.Stats.Matches || res.Stats.Matches == 0 {
			t.Errorf("%s: nothing creates x.A, so every match must stay parked: %+v", name, res.Stats)
		}
		m := res.Model()
		for v := 0; v < m.NumNodes(); v++ {
			if attrs := m.Attrs(graph.NodeID(v)); len(attrs) != 0 {
				t.Errorf("%s: model node %d carries %v, want no attribute", name, v, attrs)
			}
		}
	}

	// With a rule that creates x.A at every node, both fire at every node.
	a := gfd.MustNew("a", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "0")})
	for name, res := range satEngines(t, gfd.NewSet(a, b, c)) {
		if !res.Satisfiable {
			t.Fatalf("%s: unsatisfiable", name)
		}
		if res.Stats.Enforcements != res.Stats.Matches {
			t.Errorf("%s: every match must fire once x.A exists: %+v", name, res.Stats)
		}
		m := res.Model()
		for v := 0; v < m.NumNodes(); v++ {
			bv, _ := m.Attr(graph.NodeID(v), "B")
			cv, _ := m.Attr(graph.NodeID(v), "C")
			if bv != "1" || cv != "2" {
				t.Errorf("%s: model node %d has B=%q C=%q, want 1 and 2", name, v, bv, cv)
			}
		}
	}
}

// TestCreatedClassWakesPendingMatch: a match waiting for x.A to exist is
// woken by whatever creates the class — also a merge in which x.A is the
// surviving side, whose members a merge does not otherwise report.
func TestCreatedClassWakesPendingMatch(t *testing.T) {
	waits := needsA("waits", "B", "1")
	for _, creator := range []*gfd.GFD{
		gfd.MustNew("assign", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "0")}),
		gfd.MustNew("merge", q5(), nil, []gfd.Literal{gfd.Vars(0, "A", 0, "D")}),
		gfd.MustNew("merge-flipped", q5(), nil, []gfd.Literal{gfd.Vars(0, "D", 0, "A")}),
		gfd.MustNew("self", q5(), nil, []gfd.Literal{gfd.Vars(0, "A", 0, "A")}),
	} {
		enf := newEnforcer(eq.New(), gfd.NewSet(waits, creator))
		h := match.Assignment{0}
		if !enf.offer(0, h) || !enf.drain() || enf.stats.Pending != 1 || enf.stats.Enforcements != 0 {
			t.Fatalf("%s: the waiting match must park: %+v", creator.Name, enf.stats)
		}
		if !enf.offer(1, h) || !enf.drain() {
			t.Fatalf("%s: spurious conflict", creator.Name)
		}
		if enf.stats.Enforcements != 2 {
			t.Errorf("%s: creating x.A must fire the parked match: %+v", creator.Name, enf.stats)
		}
		if c, _ := enf.eq.Const(eq.Term{Node: 0, Attr: "B"}); c != "1" {
			t.Errorf("%s: x.B = %q, want 1", creator.Name, c)
		}
	}
}

// TestLoneWorkerIsSeqSatPlusUnits: the chase is Church–Rosser, so every
// engine fires the same matches; and no worker reads another's relation, so
// none records or broadcasts a delta, alone or not.
func TestLoneWorkerIsSeqSatPlusUnits(t *testing.T) {
	set := gen.New(gen.Config{N: 150, K: 6, L: 4, WildcardRate: 0.3, Seed: 11}).Set()
	results := satEngines(t, set)
	seq := results["SeqSat"]
	if !seq.Satisfiable || seq.Stats.Pending == 0 {
		t.Fatalf("setup: want a satisfiable set that parks matches, got %+v", seq.Stats)
	}
	for name, res := range results {
		if res.Satisfiable != seq.Satisfiable || res.Stats.Matches != seq.Stats.Matches || res.Stats.Enforcements != seq.Stats.Enforcements {
			t.Errorf("%s: %+v, want SeqSat's matches and enforcements %+v", name, res.Stats, seq.Stats)
		}
	}
	for name, res := range results {
		if res.Stats.Broadcasts != 0 || res.Stats.DeltaOps != 0 {
			t.Errorf("%s: %d broadcasts, %d ops; want 0 broadcasts, 0 ops", name, res.Stats.Broadcasts, res.Stats.DeltaOps)
		}
	}
}

// TestParkedMatchIsACopy: offer is handed the search's view, so a match that
// parks must be copied before the search moves on. The chain rule below
// propagates A = 1 down the e-edges of a small tree whose deeper nodes have
// the smaller IDs: the search meets (b, c) before b.A is known, parks it,
// moves on to (a, b) — the same unit's next match in SeqSat, the re-armed
// search's next unit in ParSat — and only then is the parked match woken. A
// parked view would by then read as some other match, and c would never
// get its A.
func TestParkedMatchIsACopy(t *testing.T) {
	tree := pattern.New()
	c := tree.AddVar("c", "n")
	b := tree.AddVar("b", "n")
	b2 := tree.AddVar("b2", "n")
	a := tree.AddVar("a", "n")
	r := tree.AddVar("r", "root")
	tree.AddEdge(r, a, "e")
	tree.AddEdge(a, b, "e")
	tree.AddEdge(a, b2, "e")
	tree.AddEdge(b, c, "e")
	edge := func(from, to string) *pattern.Pattern {
		p := pattern.New()
		p.AddEdge(p.AddVar("x", from), p.AddVar("y", to), "e")
		return p
	}
	set := gfd.NewSet(
		gfd.MustNew("shape", tree, nil, []gfd.Literal{gfd.Const(r, "R", "0")}),
		gfd.MustNew("seed", edge("root", "n"), nil, []gfd.Literal{gfd.Const(1, "A", "1")}),
		gfd.MustNew("chain", edge("n", "n"), []gfd.Literal{gfd.Const(0, "A", "1")}, []gfd.Literal{gfd.Const(1, "A", "1")}),
	)

	results := satEngines(t, set)
	seq := results["SeqSat"]
	if !seq.Satisfiable || seq.Stats.Pending == 0 {
		t.Fatalf("setup: want a satisfiable set that parks matches, got %+v", seq.Stats)
	}
	for name, res := range results {
		if !res.Satisfiable || res.Stats.Matches != seq.Stats.Matches || res.Stats.Enforcements != seq.Stats.Enforcements {
			t.Errorf("%s: %+v, want SeqSat's matches and enforcements %+v", name, res.Stats, seq.Stats)
		}
		// A = 1 is exactly what flows from a root's child down n-to-n edges.
		m := res.Model()
		want := make(map[graph.NodeID]bool)
		var flow func(v graph.NodeID)
		flow = func(v graph.NodeID) {
			if m.Label(v) != "n" || want[v] {
				return
			}
			want[v] = true
			for _, e := range m.Out(v) {
				flow(e.To)
			}
		}
		for v := 0; v < m.NumNodes(); v++ {
			if m.Label(graph.NodeID(v)) == "root" {
				for _, e := range m.Out(graph.NodeID(v)) {
					flow(e.To)
				}
			}
		}
		if len(want) != 5 {
			t.Fatalf("setup: A should reach 5 nodes of G_Σ, the walk found %d", len(want))
		}
		for v := 0; v < m.NumNodes(); v++ {
			if got, _ := m.Attr(graph.NodeID(v), "A"); (got == "1") != want[graph.NodeID(v)] {
				t.Errorf("%s: model node %d has A=%q, reached by the chain: %v", name, v, got, want[graph.NodeID(v)])
			}
		}
	}
}

// TestModelOnDemand: the witness is built by the first Model call, once, and
// only a satisfiable answer has one.
func TestModelOnDemand(t *testing.T) {
	sat := gfd.NewSet(gfd.MustNew("a", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "0")}))
	unsat := gfd.NewSet(sat.GFDs[0], gfd.MustNew("b", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "1")}))
	for name, run := range map[string]func(*gfd.Set) *SatResult{
		"SeqSat": SeqSat,
		"ParSat": func(s *gfd.Set) *SatResult { return ParSat(s, DefaultParOptions(2)) },
	} {
		res := run(sat)
		m := res.Model()
		if m == nil || !IsModel(m, sat) {
			t.Fatalf("%s: no verified witness for a satisfiable set", name)
		}
		if res.Model() != m {
			t.Errorf("%s: a second Model call rebuilt the witness", name)
		}
		if res := run(unsat); res.Satisfiable || res.Model() != nil {
			t.Errorf("%s: unsatisfiable set: Satisfiable=%v, Model nil=%v", name, res.Satisfiable, res.Model() == nil)
		}
	}
}

// TestEnforceSteadyStateAllocs: on a warm relation, a match whose
// antecedent holds and whose consequent is already in Eq costs no allocation
// — literals arrive resolved, terms are found by handle, and nothing
// changed, so nothing is queued. A match that parks is copied into the
// enforcer's arena (offer is handed a view) and filed in the index's
// run-long slices, and so is a watch that moves: both amortised below one
// allocation.
func TestEnforceSteadyStateAllocs(t *testing.T) {
	set := gfd.NewSet(
		gfd.MustNew("a", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "0")}),
		gfd.MustNew("ab", q5(), []gfd.Literal{gfd.Const(0, "A", "0")}, []gfd.Literal{gfd.Const(0, "B", "1"), gfd.Vars(0, "B", 0, "C")}),
		gfd.MustNew("zb", q5(), []gfd.Literal{gfd.Vars(0, "Z", 0, "B")}, []gfd.Literal{gfd.Const(0, "Y", "9")}),
		gfd.MustNew("az", q5(), []gfd.Literal{gfd.Const(0, "A", "0"), gfd.Vars(0, "Z", 0, "B")}, []gfd.Literal{gfd.Const(0, "Y", "9")}),
	)
	enf := newEnforcer(eq.New(), set)
	h := match.Assignment{0}
	// The warm-up also resolves the rules, which happens on first offer.
	if !enf.offer(0, h) || !enf.offer(1, h) || !enf.offer(2, h) || !enf.drain() {
		t.Fatal("warm-up conflicted")
	}
	if !enf.offer(3, match.Assignment{1}) || !enf.offer(0, match.Assignment{1}) || !enf.drain() {
		t.Fatal("warm-up conflicted")
	}
	if got := testing.AllocsPerRun(200, func() {
		if !enf.offer(1, h) || !enf.drain() {
			t.Fatal("conflict")
		}
	}); got != 0 {
		t.Errorf("firing into an Eq that already holds the consequent: %v allocs/op, want 0", got)
	}
	if got := testing.AllocsPerRun(2000, func() {
		if !enf.offer(2, h) || !enf.drain() {
			t.Fatal("conflict")
		}
	}); got >= 1 {
		t.Errorf("parking a blocked match: %v allocs/op, want amortised below 1", got)
	}
	if enf.stats.Enforcements != 3+201 || enf.stats.Pending != 2+2001 {
		t.Errorf("the timed matches did not take the paths under test: %+v", enf.stats)
	}
	// Each round parks az at a fresh node, watching x.A, and then creates
	// x.A there: the match wakes, and its watch moves on to x.Z = x.B.
	node, rechecks := graph.NodeID(1), enf.stats.Rechecks
	if got := testing.AllocsPerRun(2000, func() {
		node++
		if !enf.offer(3, match.Assignment{node}) || !enf.offer(0, match.Assignment{node}) || !enf.drain() {
			t.Fatal("conflict")
		}
		if w := enf.parked[len(enf.parked)-1].w; w != 1 {
			t.Fatalf("node %d: the watch is on literal %d, want 1", node, w)
		}
	}); got >= 1 {
		t.Errorf("moving a watch: %v allocs/op, want amortised below 1", got)
	}
	if moved := enf.stats.Rechecks - rechecks; moved != 2001 {
		t.Errorf("%d wakes for 2001 moved watches", moved)
	}
}

// offerAt0 offers rule gi's match at node 0, then drains.
func offerAt0(t *testing.T, enf *enforcer, gi int) {
	t.Helper()
	if !enf.offer(gi, match.Assignment{0}) || !enf.drain() {
		t.Fatalf("rule %s: spurious conflict", enf.set.GFDs[gi].Name)
	}
}

// handleAt0 returns the handle of the term (0, attr).
func handleAt0(enf *enforcer, attr string) eq.Handle {
	return enf.eq.HandleOf(0, enf.eq.AttrIDOf(attr))
}

// watchers lists the parked matches that watch the term (0, attr), in the
// order its list holds them, stale entries skipped.
func watchers(enf *enforcer, attr string) []int32 {
	t := handleAt0(enf, attr)
	if int(t) >= len(enf.pending) {
		return nil
	}
	var out []int32
	for at := enf.pending[t].head; at != 0; at = enf.refs[at-1].next {
		if ref := enf.refs[at-1]; ref.w == enf.parked[ref.pm].w {
			out = append(out, ref.pm)
		}
	}
	return out
}

// listEmpty reports whether the list of the term (0, attr) holds no entry,
// stale or live: a list that was never filed into, or one a walk emptied.
func listEmpty(enf *enforcer, attr string) bool {
	t := handleAt0(enf, attr)
	return int(t) >= len(enf.pending) || enf.pending[t].head == 0
}

// constAt0 returns the constant of (0, attr), or "" when it has none.
func constAt0(enf *enforcer, attr string) string {
	c, _ := enf.eq.Const(eq.Term{Node: 0, Attr: attr})
	return c
}

// TestWatchMovesForward: a parked match watches its first blocked literal
// only. When the three literals of its antecedent become true first to
// last, each wake finds the watch true and moves it to the next literal,
// twice, and the third fires the match; last to first, nothing wakes it
// until its first literal holds, and then it fires. Either way it fires
// once.
func TestWatchMovesForward(t *testing.T) {
	set := gfd.NewSet(
		gfd.MustNew("m", q5(), []gfd.Literal{gfd.Const(0, "A", "1"), gfd.Const(0, "B", "1"), gfd.Const(0, "C", "1")}, []gfd.Literal{gfd.Const(0, "D", "1")}),
		gfd.MustNew("a", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "1")}),
		gfd.MustNew("b", q5(), nil, []gfd.Literal{gfd.Const(0, "B", "1")}),
		gfd.MustNew("c", q5(), nil, []gfd.Literal{gfd.Const(0, "C", "1")}),
	)
	for _, tc := range []struct {
		name  string
		order []int
		watch []int32 // the watch after each rule fires; done once m fired
		wakes []int
	}{
		{"first to last", []int{1, 2, 3}, []int32{1, 2, done}, []int{1, 2, 3}},
		{"last to first", []int{3, 2, 1}, []int32{0, 0, done}, []int{0, 0, 1}},
	} {
		enf := newEnforcer(eq.New(), set)
		offerAt0(t, enf, 0)
		if w := enf.parked[0].w; w != 0 {
			t.Fatalf("%s: m parked watching literal %d, want 0", tc.name, w)
		}
		for i, gi := range tc.order {
			offerAt0(t, enf, gi)
			if w := enf.parked[0].w; w != tc.watch[i] || enf.stats.Rechecks != tc.wakes[i] {
				t.Errorf("%s, after %s: watch %d after %d wakes, want %d after %d", tc.name, set.GFDs[gi].Name, w, enf.stats.Rechecks, tc.watch[i], tc.wakes[i])
			}
			if fired := constAt0(enf, "D") == "1"; fired != (i == 2) {
				t.Errorf("%s, after %s: m fired %v", tc.name, set.GFDs[gi].Name, fired)
			}
		}
		if enf.stats.Enforcements != 4 {
			t.Errorf("%s: %d enforcements, want the three setters and m once", tc.name, enf.stats.Enforcements)
		}
	}
}

// TestWatchMovesOntoDrainedTerm: a match woken from x.A whose next blocked
// literal mentions x.A again is filed under x.A while x.A's list is being
// walked. That filing must survive the walk: below, the match is woken the
// second time from x.A alone, and fires only if it did.
func TestWatchMovesOntoDrainedTerm(t *testing.T) {
	set := gfd.NewSet(
		gfd.MustNew("m", q5(), []gfd.Literal{gfd.Vars(0, "A", 0, "C"), gfd.Vars(0, "A", 0, "B")}, []gfd.Literal{gfd.Const(0, "D", "1")}),
		// [x.B, x.E] gets rank 1, so it survives the last merge.
		gfd.MustNew("be", q5(), nil, []gfd.Literal{gfd.Vars(0, "B", 0, "E")}),
		gfd.MustNew("c", q5(), nil, []gfd.Literal{gfd.Vars(0, "C", 0, "C")}),
		// Creates x.A inside [x.C]: x.A is the absorbed side, the one reported.
		gfd.MustNew("ca", q5(), nil, []gfd.Literal{gfd.Vars(0, "C", 0, "A")}),
		// Two rank-1 classes: [x.C, x.A] is absorbed, so x.A is reported
		// and x.B is not.
		gfd.MustNew("ba", q5(), nil, []gfd.Literal{gfd.Vars(0, "B", 0, "A")}),
	)
	enf := newEnforcer(eq.New(), set)
	for gi := 0; gi < 4; gi++ {
		offerAt0(t, enf, gi)
	}
	if w := enf.parked[0].w; w != 1 {
		t.Fatalf("after ca: the watch is on literal %d, want 1", w)
	}
	for attr, want := range map[string][]int32{"A": {0}, "B": {0}, "C": nil} {
		if got := watchers(enf, attr); !slices.Equal(got, want) {
			t.Errorf("after ca: x.%s is watched by %v, want %v", attr, got, want)
		}
	}
	offerAt0(t, enf, 4)
	if constAt0(enf, "D") != "1" || enf.stats.Enforcements != 5 {
		t.Errorf("merging x.A into x.B did not fire m: %+v", enf.stats)
	}
	if listEmpty(enf, "B") {
		t.Error("setup: x.B's list was walked, so m may have been woken from x.B")
	}
}

// TestWatchVariableLiteralWokenFromEitherSide: a watched x.A = x.B is filed
// under both terms, because a merge reports only the class it absorbs. The
// merge is made in both directions, so the match is woken once from x.B and
// once from x.A.
func TestWatchVariableLiteralWokenFromEitherSide(t *testing.T) {
	set := gfd.NewSet(
		gfd.MustNew("m", q5(), []gfd.Literal{gfd.Vars(0, "A", 0, "B")}, []gfd.Literal{gfd.Const(0, "D", "1")}),
		gfd.MustNew("a", q5(), nil, []gfd.Literal{gfd.Vars(0, "A", 0, "A")}),
		gfd.MustNew("b", q5(), nil, []gfd.Literal{gfd.Vars(0, "B", 0, "B")}),
		gfd.MustNew("ab", q5(), nil, []gfd.Literal{gfd.Vars(0, "A", 0, "B")}),
		gfd.MustNew("ba", q5(), nil, []gfd.Literal{gfd.Vars(0, "B", 0, "A")}),
	)
	for _, tc := range []struct {
		merge    int
		absorbed string // the side the merge reports
		other    string
	}{{3, "B", "A"}, {4, "A", "B"}} {
		name := set.GFDs[tc.merge].Name
		enf := newEnforcer(eq.New(), set)
		for _, gi := range []int{0, 1, 2} {
			offerAt0(t, enf, gi)
		}
		// Creating x.A and then x.B woke m twice; both times x.A = x.B stayed
		// blocked.
		if enf.stats.Rechecks != 2 || enf.parked[0].w != 0 {
			t.Fatalf("%s: setup: %+v, watch %d", name, enf.stats, enf.parked[0].w)
		}
		offerAt0(t, enf, tc.merge)
		if constAt0(enf, "D") != "1" || enf.stats.Rechecks != 3 {
			t.Errorf("%s: merging did not fire m from x.%s: %+v", name, tc.absorbed, enf.stats)
		}
		if listEmpty(enf, tc.other) {
			t.Errorf("%s: setup: x.%s's list was walked too", name, tc.other)
		}
	}
}

// TestWatchImpossibleLiteralBehindIt: a literal behind the watch that
// becomes impossible is not looked at while the watch stays blocked, and
// Stats.Dropped does not count the match then; once the watch holds, the
// wake finds the impossible literal and drops the match. It never fires.
func TestWatchImpossibleLiteralBehindIt(t *testing.T) {
	for name, behind := range map[string]gfd.Literal{
		"constant": gfd.Const(0, "B", "2"),
		"variable": gfd.Vars(0, "B", 0, "C"),
	} {
		set := gfd.NewSet(
			gfd.MustNew("m", q5(), []gfd.Literal{gfd.Const(0, "A", "1"), behind}, []gfd.Literal{gfd.Const(0, "D", "1")}),
			gfd.MustNew("bc", q5(), nil, []gfd.Literal{gfd.Const(0, "B", "3"), gfd.Const(0, "C", "4")}),
			gfd.MustNew("a", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "1")}),
		)
		enf := newEnforcer(eq.New(), set)
		offerAt0(t, enf, 0)
		offerAt0(t, enf, 1)
		if enf.stats.Rechecks != 0 || enf.stats.Dropped != 0 || enf.parked[0].w != 0 {
			t.Errorf("%s: x.B and x.C are not watched, yet: %+v, watch %d", name, enf.stats, enf.parked[0].w)
		}
		offerAt0(t, enf, 2)
		if enf.stats.Dropped != 1 || enf.parked[0].w != done {
			t.Errorf("%s: the wake on x.A did not drop m: %+v, watch %d", name, enf.stats, enf.parked[0].w)
		}
		if constAt0(enf, "D") != "" || enf.stats.Enforcements != 2 {
			t.Errorf("%s: m fired: %+v", name, enf.stats)
		}
	}
}

// TestWatchRecordsHoldNoPointers: the index's records are integers only, so
// the collector never scans the run-long slices that hold them.
func TestWatchRecordsHoldNoPointers(t *testing.T) {
	for _, rec := range []any{pendingMatch{}, pendingRef{}, pendingList{}} {
		typ := reflect.TypeOf(rec)
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
				reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			default:
				t.Errorf("%s.%s is a %s", typ.Name(), f.Name, f.Type.Kind())
			}
		}
	}
}
