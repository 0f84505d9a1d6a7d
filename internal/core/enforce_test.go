package core

// Tests of the enforcement loop's ID path: the handle/class distinction of
// the pending index, the lone worker's silence, and the steady-state
// allocation ceiling.

import (
	"fmt"
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
		enf := newSeqEnforcer(eq.New(), gfd.NewSet(waits, creator))
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
// engine fires the same matches; and a single worker has no peer, so it
// neither records nor broadcasts a delta.
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
	if one := results["ParSat(p=1)"].Stats; one.Broadcasts != 0 || one.DeltaOps != 0 {
		t.Errorf("a lone worker talked to itself: %d broadcasts, %d ops", one.Broadcasts, one.DeltaOps)
	}
	if two := results["ParSat(p=2)"].Stats; two.Broadcasts == 0 {
		t.Errorf("two workers exchanged nothing: %+v", two)
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

// TestEnforceSteadyStateAllocs: on a warm replica, a match whose antecedent
// holds and whose consequent is already in Eq costs no allocation — literals
// arrive resolved, terms are found by handle, and nothing changed, so nothing
// is queued or logged. A match that parks is copied into the enforcer's
// arena (offer is handed a view) and filed in the index's run-long slices,
// both amortised below one allocation.
func TestEnforceSteadyStateAllocs(t *testing.T) {
	set := gfd.NewSet(
		gfd.MustNew("a", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "0")}),
		gfd.MustNew("ab", q5(), []gfd.Literal{gfd.Const(0, "A", "0")}, []gfd.Literal{gfd.Const(0, "B", "1"), gfd.Vars(0, "B", 0, "C")}),
		gfd.MustNew("zb", q5(), []gfd.Literal{gfd.Vars(0, "Z", 0, "B")}, []gfd.Literal{gfd.Const(0, "Y", "9")}),
	)
	for _, logging := range []bool{false, true} {
		e := eq.New()
		if !logging {
			e.StopLogging()
		}
		enf := newEnforcer(e, set)
		h := match.Assignment{0}
		// The warm-up also resolves the rules, which happens on first offer.
		if !enf.offer(0, h) || !enf.offer(1, h) || !enf.offer(2, h) || !enf.drain() {
			t.Fatal("warm-up conflicted")
		}
		e.ResetLog()
		if got := testing.AllocsPerRun(200, func() {
			if !enf.offer(1, h) || !enf.drain() {
				t.Fatal("conflict")
			}
		}); got != 0 {
			t.Errorf("logging=%v: firing into an Eq that already holds the consequent: %v allocs/op, want 0", logging, got)
		}
		if got := testing.AllocsPerRun(2000, func() {
			if !enf.offer(2, h) || !enf.drain() {
				t.Fatal("conflict")
			}
		}); got >= 1 {
			t.Errorf("logging=%v: parking a blocked match: %v allocs/op, want amortised below 1", logging, got)
		}
		if enf.stats.Enforcements != 2+201 || enf.stats.Pending != 1+2001 {
			t.Errorf("logging=%v: the timed matches did not take the paths under test: %+v", logging, enf.stats)
		}
	}
}
