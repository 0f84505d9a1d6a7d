package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// violationsEqual compares two violation lists exactly: same GFD identity,
// same match, same order.
func violationsEqual(a, b []Violation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].GFD != b[i].GFD || len(a[i].Match) != len(b[i].Match) {
			return false
		}
		for j := range a[i].Match {
			if a[i].Match[j] != b[i].Match[j] {
				return false
			}
		}
	}
	return true
}

// checkRevalidate asserts that every incremental path — sequential,
// parallel, and against the refrozen snapshot — reproduces the full
// recomputation exactly, and returns the full violation count plus the
// sequential stats for non-vacuity accounting.
func checkRevalidate(t *testing.T, ctx string, set *gfd.Set, base *graph.Frozen, d *graph.Delta, prev []Violation) (int, RevalidateStats) {
	t.Helper()
	overlay := d.Overlay()
	want := Violations(overlay, set)
	got, stats, err := RevalidateDelta(set, d, prev, RevalidateOptions{})
	if err != nil {
		t.Fatalf("%s: sequential revalidate: %v", ctx, err)
	}
	if !violationsEqual(got, want) {
		t.Fatalf("%s: sequential revalidate diverges: got %d violations, want %d", ctx, len(got), len(want))
	}
	gotPar, _, err := RevalidateDelta(set, d, prev, RevalidateOptions{Workers: 4})
	if err != nil {
		t.Fatalf("%s: parallel revalidate: %v", ctx, err)
	}
	if !violationsEqual(gotPar, want) {
		t.Fatalf("%s: parallel revalidate diverges: got %d violations, want %d", ctx, len(gotPar), len(want))
	}
	refrozen := base.Refreeze(d)
	wantF := Violations(refrozen, set)
	if !violationsEqual(wantF, want) {
		t.Fatalf("%s: refrozen full recompute diverges from overlay recompute", ctx)
	}
	gotF, _, err := Revalidate(set, base, refrozen, d.TouchedNodes(), prev, RevalidateOptions{})
	if err != nil {
		t.Fatalf("%s: revalidate against refrozen snapshot: %v", ctx, err)
	}
	if !violationsEqual(gotF, wantF) {
		t.Fatalf("%s: revalidate against refrozen snapshot diverges", ctx)
	}
	return len(want), stats
}

// perturb flips one attribute on a few random nodes so the pre-delta graph
// already carries violations (the carried-over half of the algorithm).
func perturb(rng *rand.Rand, g *graph.Graph, n int) {
	for i := 0; i < n; i++ {
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		for a := range g.Attrs(v) {
			g.SetAttr(v, a, "perturbed")
			break
		}
	}
}

// TestRevalidateEquivalenceGen is the incremental-revalidation equivalence
// property on generated GFD sets: after a random update stream, Revalidate
// must equal the full Violations recomputation, violation for violation, in
// order — sequentially, in parallel, and on the refrozen snapshot.
func TestRevalidateEquivalenceGen(t *testing.T) {
	totalViolations := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gr := gen.New(gen.Config{N: 10, K: 4, L: 2, WildcardRate: 0.2, Seed: seed})
		set := gr.Set()
		g := gr.ConsistentGraph(80)
		perturb(rng, g, 6)
		base := g.Frozen()
		prev := Violations(base, set)
		d := gr.DenseDelta(base, 25)
		ctx := fmt.Sprintf("seed=%d delta=%v", seed, d)
		nv, _ := checkRevalidate(t, ctx, set, base, d, prev)
		totalViolations += nv + len(prev)
	}
	if totalViolations == 0 {
		t.Fatal("no violations in any instance; equivalence test is vacuous")
	}
}

// TestRevalidateTriangles runs the property on the radius-1 validation
// workload the benchmarks use, where the hood genuinely localizes: it also
// pins that the scoped path fires and carries prior violations over
// unexamined (the paths a full recompute never takes).
func TestRevalidateTriangles(t *testing.T) {
	totalKept, totalViolations, totalScoped := 0, 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed * 11))
		gr := gen.New(gen.Config{N: 20, K: 6, L: 2, Profile: dataset.DBpedia(), Seed: seed})
		set := gr.ValidationSet(12)
		if set.Len() == 0 {
			continue
		}
		g := gr.DenseGraph(1200, 8)
		perturb(rng, g, 25)
		base := g.Frozen()
		prev := Violations(base, set)
		d := gr.DenseDelta(base, 40)
		ctx := fmt.Sprintf("seed=%d delta=%v", seed, d)
		nv, stats := checkRevalidate(t, ctx, set, base, d, prev)
		totalKept += stats.Kept
		totalViolations += nv
		totalScoped += stats.Scoped
	}
	if totalScoped == 0 {
		t.Fatal("no pattern took the scoped path; workload is vacuous")
	}
	if totalViolations == 0 {
		t.Fatal("no violations after any delta; workload is vacuous")
	}
	if totalKept == 0 {
		t.Fatal("no prior violation was carried over; the scoping never localized")
	}
}

// TestRevalidateDisconnected pins the fallback: a disconnected pattern
// re-enumerates in full (a component change invalidates cross products
// rooted arbitrarily far away) and still matches the full recomputation.
func TestRevalidateDisconnected(t *testing.T) {
	p := pattern.New()
	x := p.AddVar("x", "a")
	y := p.AddVar("y", "b")
	p.AddEdge(x, y, "e")
	z := p.AddVar("z", "c") // second component
	phi := gfd.MustNew("dis", p, nil, []gfd.Literal{gfd.Const(z, "k", "v")})
	set := gfd.NewSet()
	set.Add(phi)

	g := graph.New()
	var as, bs, cs []graph.NodeID
	for i := 0; i < 4; i++ {
		as = append(as, g.AddNode("a"))
		bs = append(bs, g.AddNode("b"))
		cs = append(cs, g.AddNode("c"))
	}
	g.AddEdge(as[0], bs[0], "e")
	g.AddEdge(as[1], bs[1], "e")
	g.SetAttr(cs[0], "k", "v")
	base := g.Frozen()
	prev := Violations(base, set)
	if len(prev) == 0 {
		t.Fatal("fixture has no violations; test is vacuous")
	}

	// The delta touches only the x-y component; the violated cross products
	// involve far-away c nodes, which only the full fallback re-examines.
	d := graph.NewDelta(base)
	d.AddEdge(as[2], bs[2], "e")
	d.RemoveEdge(as[0], bs[0], "e")
	d.SetAttr(cs[1], "k", "v")

	want := Violations(d.Overlay(), set)
	got, stats, err := RevalidateDelta(set, d, prev, RevalidateOptions{})
	if err != nil {
		t.Fatalf("disconnected revalidate: %v", err)
	}
	if !violationsEqual(got, want) {
		t.Fatalf("disconnected revalidate diverges: got %d, want %d", len(got), len(want))
	}
	if stats.Full != 1 || stats.Scoped != 0 {
		t.Fatalf("expected the full fallback, got stats %+v", stats)
	}
}

// TestRevalidateStolenUnits exercises the work-stealing wiring: with more
// workers than evenly divided tasks, idle workers must steal, and the
// result must stay identical.
func TestRevalidateStolenUnits(t *testing.T) {
	gr := gen.New(gen.Config{N: 30, K: 5, L: 2, WildcardRate: 0.2, Seed: 5})
	set := gr.Set()
	g := gr.ConsistentGraph(120)
	perturb(rand.New(rand.NewSource(5)), g, 8)
	base := g.Frozen()
	prev := Violations(base, set)
	d := gr.DenseDelta(base, 30)
	want := Violations(d.Overlay(), set)
	stolen := 0
	for try := 0; try < 8; try++ {
		got, stats, err := RevalidateDelta(set, d, prev, RevalidateOptions{Workers: 8})
		if err != nil {
			t.Fatalf("try %d: parallel revalidate: %v", try, err)
		}
		if !violationsEqual(got, want) {
			t.Fatalf("try %d: parallel revalidate diverges", try)
		}
		stolen += stats.UnitsStolen
	}
	// How much gets stolen is timing-dependent (on a single-core runner every
	// worker may drain its own stripe before idling), so the count is
	// reported rather than asserted; the equality checks above are the
	// contract.
	t.Logf("units stolen across 8 contended runs: %d", stolen)
}
