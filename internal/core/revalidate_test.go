package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
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
// parallel (on a copy of prev, which starts its own chain), and against the
// refrozen snapshot — reproduces the full recomputation exactly, and returns
// the full violation count plus the sequential stats for non-vacuity
// accounting.
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
	gotPar, _, err := RevalidateDelta(set, d, slices.Clone(prev), RevalidateOptions{Workers: 4})
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
	gotF, _, err := Revalidate(set, refrozen, d.TouchedSince(0), prev, RevalidateOptions{})
	if err != nil {
		t.Fatalf("%s: revalidate against refrozen snapshot: %v", ctx, err)
	}
	if !violationsEqual(gotF, wantF) {
		t.Fatalf("%s: revalidate against refrozen snapshot diverges", ctx)
	}
	return len(want), stats
}

// perturb flips one attribute on a few random nodes of f, through a Delta
// over it, so the refrozen pre-delta graph already carries violations (the
// carried-over half of the algorithm). The attribute is drawn from the
// node's sorted names, not taken from a map range, so that a seed always
// builds the same graph.
func perturb(rng *rand.Rand, f *graph.Frozen, n int) *graph.Frozen {
	d := graph.NewDelta(f)
	for i := 0; i < n; i++ {
		v := graph.NodeID(rng.Intn(f.NumNodes()))
		var names []string
		for a := range f.Attrs(v) {
			names = append(names, a)
		}
		if len(names) > 0 {
			slices.Sort(names)
			d.SetAttr(v, names[rng.Intn(len(names))], "perturbed")
		}
	}
	return f.Refreeze(d)
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
		base := perturb(rng, gr.ConsistentGraph(80), 6)
		prev := Violations(base, set)
		d := gr.DenseDelta(base, 25)
		ctx := fmt.Sprintf("seed=%d delta=%v", seed, d)
		nv, _ := checkRevalidate(t, ctx, set, base, d, prev)
		totalViolations += nv + len(prev)
	}
	if totalViolations == 0 {
		t.Fatal("no violations in any instance; equivalence test is vacuous")
	}

	// Σ may list one GFD twice: each position carries over its own prior
	// violations, not those of both.
	p := pattern.New()
	x := p.AddVar("x", "a")
	phi := gfd.MustNew("twice", p, nil, []gfd.Literal{gfd.Const(x, "k", "1")})
	b := graph.NewBuilder(0)
	for range 4 {
		b.AddNode("a")
	}
	base := b.Freeze()
	set := gfd.NewSet(phi, phi)
	d := graph.NewDelta(base)
	d.SetAttr(0, "k", "1")
	if nv, _ := checkRevalidate(t, "Σ = {φ, φ}", set, base, d, Violations(base, set)); nv != 6 {
		t.Fatalf("Σ = {φ, φ}: %d violations after the delta, want 6", nv)
	}
}

// TestRevalidateArmsLikeViolations pins that a revalidation group arms by
// validation's rule (TestViolationsAttrColumnThreshold). The delta sets an
// attribute on the b-node of each of armFixture's matches, so the search
// rooted at y re-enumerates them all, in the order validation enumerates
// them; after n/16 of them on the overlay's n nodes the group reads value
// columns and its guard drops the matches where both members hold. At
// exactly n/16 matches no column is made and every match is delivered; one
// more arms the group. The result equals Violations either way.
func TestRevalidateArmsLikeViolations(t *testing.T) {
	const n = 320
	for _, extra := range []int{0, 1, 8} {
		b, set := armFixture(n)
		matches := n/16 + extra
		for i := 0; i < matches; i++ {
			b.AddEdge(graph.NodeID(2*i), graph.NodeID(2*i+1), "e")
		}
		base := b.Freeze()
		prev := Violations(base, set)
		d := graph.NewDelta(base)
		for i := 0; i < matches; i++ {
			d.SetAttr(graph.NodeID(2*i+1), "T", "1")
		}
		got, st, err := RevalidateDelta(set, d, prev, RevalidateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		overlay := d.Overlay()
		if cols, want := overlay.NumAttrColumns(), min(extra, 1); cols != want {
			t.Fatalf("%d matches on %d nodes: %d value columns, want %d", matches, n, cols, want)
		}
		if want := armDelivered(n, matches); st.Reenumerated != want || st.MatchesReused != want {
			t.Fatalf("%d matches on %d nodes: %d re-enumerated and %d reused, want %d", matches, n, st.Reenumerated, st.MatchesReused, want)
		}
		if want := Violations(overlay, set); len(want) == 0 || !violationsEqual(got, want) {
			t.Fatalf("%d matches: revalidate gave %d violations, Violations %d", matches, len(got), len(want))
		}
	}
}

// TestRevalidateTriangles runs the property on the triangle validation
// workload the benchmarks use, where the touched set genuinely localizes:
// it also pins that matches meeting it are re-enumerated and prior
// violations avoiding it carried over unexamined (the paths a full
// recompute never takes).
func TestRevalidateTriangles(t *testing.T) {
	totalKept, totalViolations, totalReenumerated := 0, 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed * 11))
		gr := gen.New(gen.Config{N: 20, K: 6, L: 2, Profile: dataset.DBpedia(), Seed: seed})
		set := gr.ValidationSet(12)
		if set.Len() == 0 {
			continue
		}
		base := perturb(rng, gr.DenseFrozen(1200, 8), 25)
		prev := Violations(base, set)
		d := gr.DenseDelta(base, 40)
		ctx := fmt.Sprintf("seed=%d delta=%v", seed, d)
		nv, stats := checkRevalidate(t, ctx, set, base, d, prev)
		totalKept += stats.Kept
		totalViolations += nv
		totalReenumerated += stats.Reenumerated
	}
	if totalReenumerated == 0 {
		t.Fatal("no match met a touched node; workload is vacuous")
	}
	if totalViolations == 0 {
		t.Fatal("no violations after any delta; workload is vacuous")
	}
	if totalKept == 0 {
		t.Fatal("no prior violation was carried over; the scoping never localized")
	}
}

// TestRevalidateDisconnected pins disconnected patterns: a match is a cross
// product of component matches, and only the products with a component at a
// touched node are re-enumerated — not the pattern's whole match set — while
// the result still equals the full recomputation.
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

	// The delta touches both components: the x-y edges and one c node.
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
	if all := len(match.FindAll(p, d.Overlay())); stats.Reenumerated == 0 || stats.Reenumerated >= all {
		t.Fatalf("re-enumerated %d of the pattern's %d matches; want the ones at touched nodes only", stats.Reenumerated, all)
	}
}

// TestRevalidateContended runs Revalidate with more workers than evenly
// divided group tasks, so workers race for the last ones: the result must
// stay identical in every run. The base must carry violations, so that the
// carried-over half runs too; 8 perturbed nodes hit no attribute a rule
// reads, 32 do.
func TestRevalidateContended(t *testing.T) {
	gr := gen.New(gen.Config{N: 30, K: 5, L: 2, WildcardRate: 0.2, Seed: 5})
	set := gr.Set()
	base := perturb(rand.New(rand.NewSource(5)), gr.ConsistentGraph(120), 32)
	prev := Violations(base, set)
	if len(prev) == 0 {
		t.Fatal("the perturbed base has no violations: nothing is carried over")
	}
	d := gr.DenseDelta(base, 30)
	want := Violations(d.Overlay(), set)
	for try := 0; try < 8; try++ {
		got, _, err := Revalidate(set, d.Overlay(), d.TouchedSince(0), prev, RevalidateOptions{Workers: 8})
		if err != nil {
			t.Fatalf("try %d: parallel revalidate: %v", try, err)
		}
		if !violationsEqual(got, want) {
			t.Fatalf("try %d: parallel revalidate diverges", try)
		}
	}
}

// TestRevalidateDeltaChains is the chained form's equivalence property: a
// delta grows batch by batch, as a writer's does, and after every batch
// RevalidateDelta against the base's violations must equal a full
// Violations of the overlay, violation for violation. Calls that cannot
// continue the chain are interleaved — a copy of prev, a copy of Σ, a
// canceled call — and each must still be exact. Every chained call must
// re-enumerate no more than a call from the base at the same version, and
// the chained calls together strictly less.
func TestRevalidateDeltaChains(t *testing.T) {
	type fixture struct {
		name string
		set  *gfd.Set
		g    *graph.Frozen
		gr   *gen.Generator
	}
	var fixtures []fixture
	for seed := int64(1); seed <= 2; seed++ {
		tri := gen.New(gen.Config{N: 20, K: 6, L: 2, Profile: dataset.DBpedia(), Seed: seed})
		mixed := gen.New(gen.Config{N: 10, K: 4, L: 2, WildcardRate: 0.2, Seed: seed})
		fixtures = append(fixtures,
			fixture{fmt.Sprintf("triangles seed=%d", seed), tri.ValidationSet(12), tri.DenseFrozen(600, 8), tri},
			fixture{fmt.Sprintf("gen seed=%d", seed), mixed.Set(), mixed.ConsistentGraph(80), mixed})
	}
	chained, fromBase, violations := 0, 0, 0
	for _, fx := range fixtures {
		base := perturb(rand.New(rand.NewSource(7)), fx.g, 10)
		prev := Violations(base, fx.set)
		d := graph.NewDelta(base)
		for b := 0; b < 16; b++ {
			ctx := fmt.Sprintf("%s batch %d", fx.name, b)
			fx.gr.MutateDelta(d, 8)
			want := Violations(d.Overlay(), fx.set)
			violations += len(want)
			switch b % 4 {
			case 1: // a canceled call leaves the chain where it was
				pre, cancel := context.WithCancel(context.Background())
				cancel()
				if _, _, err := RevalidateDelta(fx.set, d, prev, RevalidateOptions{Ctx: pre}); !errors.Is(err, ErrCanceled) {
					t.Fatalf("%s: canceled call returned %v", ctx, err)
				}
			case 2: // a copy of prev starts its own chain
				got, _, err := RevalidateDelta(fx.set, d, slices.Clone(prev), RevalidateOptions{})
				if err != nil || !violationsEqual(got, want) {
					t.Fatalf("%s: call on a copy of prev: err %v, %d violations, want %d", ctx, err, len(got), len(want))
				}
			case 3: // so does a copy of Σ
				got, _, err := RevalidateDelta(gfd.NewSet(fx.set.GFDs...), d, prev, RevalidateOptions{})
				if err != nil || !violationsEqual(got, want) {
					t.Fatalf("%s: call on a copy of Σ: err %v, %d violations, want %d", ctx, err, len(got), len(want))
				}
			}
			got, st, err := RevalidateDelta(fx.set, d, prev, RevalidateOptions{Workers: b % 3})
			if err != nil || !violationsEqual(got, want) {
				t.Fatalf("%s: err %v, %d violations, want %d", ctx, err, len(got), len(want))
			}
			_, full, err := Revalidate(fx.set, d.Overlay(), d.TouchedSince(0), prev, RevalidateOptions{})
			if err != nil {
				t.Fatalf("%s: from the base: %v", ctx, err)
			}
			if st.Reenumerated > full.Reenumerated {
				t.Fatalf("%s: chained call re-enumerated %d matches, the base's call %d", ctx, st.Reenumerated, full.Reenumerated)
			}
			chained += st.Reenumerated
			fromBase += full.Reenumerated
		}
	}
	if violations == 0 {
		t.Fatal("no violations after any batch; the property is vacuous")
	}
	if chained >= fromBase {
		t.Fatalf("chained calls re-enumerated %d matches, calls from the base %d: the chain never shortened a call", chained, fromBase)
	}
	t.Logf("re-enumerated: chained %d, from the base %d", chained, fromBase)
}

// TestRevalidateDeltaMemoKey pins what continues a chain: only the same Σ at
// the same length and the same prev slice. A call that continues the chain
// at an unchanged version re-enumerates nothing, and any other call
// re-enumerates every match meeting the whole delta's touched set again.
func TestRevalidateDeltaMemoKey(t *testing.T) {
	gr := gen.New(gen.Config{N: 20, K: 6, L: 2, Profile: dataset.DBpedia(), Seed: 1})
	set := gr.ValidationSet(12)
	base := perturb(rand.New(rand.NewSource(3)), gr.DenseFrozen(600, 8), 10)
	prev := Violations(base, set)
	d := gr.DenseDelta(base, 30)
	want := Violations(d.Overlay(), set)
	if len(want) == 0 {
		t.Fatal("the overlay has no violations; overwriting a result would prove nothing")
	}

	call := func(name string, set *gfd.Set, prev []Violation) int {
		t.Helper()
		got, st, err := RevalidateDelta(set, d, prev, RevalidateOptions{})
		if err != nil || !violationsEqual(got, want) {
			t.Fatalf("%s: err %v, %d violations, want %d", name, err, len(got), len(want))
		}
		return st.Reenumerated
	}
	full := call("first call", set, prev)
	if full == 0 {
		t.Fatal("the first call re-enumerated nothing; the fixture is vacuous")
	}
	if n := call("same key", set, prev); n != 0 {
		t.Fatalf("a call continuing the chain at the same version re-enumerated %d matches", n)
	}
	misses := []struct {
		name string
		set  *gfd.Set
		prev []Violation
	}{
		{"copy of prev", set, slices.Clone(prev)},
		{"original prev after the copy", set, prev},
		{"copy of Σ", gfd.NewSet(set.GFDs...), prev},
	}
	for _, m := range misses {
		if n := call(m.name, m.set, m.prev); n != full {
			t.Fatalf("%s: re-enumerated %d matches, want the base's %d", m.name, n, full)
		}
	}
	// The result a caller gets is its own: overwriting it does not reach the
	// chain.
	got, _, _ := RevalidateDelta(set, d, prev, RevalidateOptions{})
	clear(got)
	if n := call("after the caller overwrote its result", set, prev); n != 0 {
		t.Fatalf("re-enumerated %d", n)
	}
	// A Σ that shrank in place is another Σ: the call starts over.
	shrunk := gfd.NewSet(set.GFDs...)
	if n := call("fresh Σ", shrunk, prev); n != full {
		t.Fatalf("a fresh Σ re-enumerated %d matches, want %d", n, full)
	}
	shrunk.GFDs = shrunk.GFDs[:shrunk.Len()-1]
	got, st, err := RevalidateDelta(shrunk, d, prev, RevalidateOptions{})
	if err != nil || !violationsEqual(got, Violations(d.Overlay(), shrunk)) || st.Reenumerated == 0 {
		t.Fatalf("Σ shrunk in place: err %v, %d violations, %d re-enumerated; want the full recomputation, from the base",
			err, len(got), st.Reenumerated)
	}
}

// deltaEdits decodes the bytes left in r into one or two batches of edits
// to a delta over a graph of n nodes. A batch has up to 8 edits, each
// adding or removing an edge labelled e or f, setting A or B to "0", "1"
// or "2" (a value no violationsInput graph holds), removing a node or
// adding one labelled a or b. An edit names a node below n+2, so the first
// two added nodes too, and is skipped where the delta would refuse it: at
// a node that is not alive.
func deltaEdits(r *fuzzBytes, n int) [][]func(*graph.Delta) {
	node := func() graph.NodeID { return graph.NodeID(r.next(n + 2)) }
	labels, attrs, vals := []string{"e", "f"}, []string{"A", "B"}, []string{"0", "1", "2"}
	batches := make([][]func(*graph.Delta), 1+r.next(2))
	for b := range batches {
		for k := r.next(9); k > 0; k-- {
			var e func(*graph.Delta)
			switch r.next(5) {
			case 0, 1:
				add, from, to, l := r.next(2) == 0, node(), node(), labels[r.next(2)]
				e = func(d *graph.Delta) {
					if d.Alive(from) && d.Alive(to) {
						if add {
							d.AddEdge(from, to, l)
						} else {
							d.RemoveEdge(from, to, l)
						}
					}
				}
			case 2:
				v, a, c := node(), attrs[r.next(2)], vals[r.next(3)]
				e = func(d *graph.Delta) {
					if d.Alive(v) {
						d.SetAttr(v, a, c)
					}
				}
			case 3:
				v := node()
				e = func(d *graph.Delta) {
					if d.Alive(v) {
						d.RemoveNode(v)
					}
				}
			case 4:
				l := []string{"a", "b"}[r.next(2)]
				e = func(d *graph.Delta) { d.AddNode(l) }
			}
			batches[b] = append(batches[b], e)
		}
	}
	return batches
}

// FuzzRevalidate holds incremental revalidation to the brute-force oracle
// on a violationsInput graph and Σ edited by deltaEdits' batches: after
// each batch, RevalidateDelta from the graph's violations, chained over
// the batches, gives the oracle's violation set on the overlay, in the
// order of checking each GFD on its own. It runs at 1 and 2 workers, with
// every group armed (value columns and the literal guard) before its first
// search starts and never armed.
func FuzzRevalidate(f *testing.F) {
	f.Add([]byte{})
	// On the star: two batches. Node 1 gets A = "1", an f-edge 0 -> 4
	// comes and the e-edge 0 -> 2 goes; then a b-node 5 comes with an
	// e-edge from 0 and B = "2", and node 3 goes.
	f.Add(append(slices.Clone(violationsSeeds[0]),
		1, 3, 2, 1, 0, 1, 0, 0, 0, 4, 1, 1, 1, 0, 2, 0,
		4, 4, 1, 0, 0, 0, 5, 0, 2, 5, 1, 2, 3, 3))
	// On the triangles: one batch. Node 3 gets A = "1", node 4 goes, and
	// an e-edge 5 -> 0 comes.
	f.Add(append(slices.Clone(violationsSeeds[1]),
		0, 3, 2, 3, 0, 1, 3, 4, 0, 0, 5, 0, 0))
	// One a-node and x:a, then false: the batch adds an e-loop at node 0, so
	// its prior violation meets the touched set and is found again, not
	// carried over as well.
	f.Add(append(violationsSeed([]byte{0, 0, 0}, nil, []byte{0, 0, 0, 0, 0}), 0, 1, 0, 0, 0, 0, 0))
	// Five a-nodes, an e-loop on node 3, and two rules on two disconnected
	// a-variables: v0 with three e-loops, then false; and Y v0.A = "0".
	// One batch adds an a-node, so the search from v1 roots there, and its
	// guard must decide v0's literals at v0's frame, which comes second.
	f.Add(append(violationsSeed(
		[]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		[]byte{3, 3, 0},
		[]byte{1, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		[]byte{0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0},
	), 0, 1, 4, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzBytes(data)
		g, set := violationsInput(&r)
		batches := deltaEdits(&r, g.NumNodes())
		prev := Violations(g, set)
		never := func(int) int { return math.MaxInt }
		for _, w := range []int{1, 2} {
			for armed, at := range map[bool]func(int) int{false: never, true: func(int) int { return 0 }} {
				d := graph.NewDelta(g)
				for b, batch := range batches {
					for _, e := range batch {
						e(d)
					}
					got, _, err := RevalidateDelta(set, d, prev, RevalidateOptions{Workers: w, testArmAt: at})
					if err != nil {
						t.Fatal(err)
					}
					overlay := d.Overlay()
					if !sameAsOracle(overlay, set, got) {
						t.Fatalf("w=%d armed=%v batch %d: %d violations, not the oracle's\nΣ:\n%s\ndelta: %v", w, armed, b, len(got), set, d)
					}
					if want := violationsOneByOne(overlay, set); !violationsEqual(got, want) {
						t.Fatalf("w=%d armed=%v batch %d: violations out of order\nΣ:\n%s\ndelta: %v", w, armed, b, set, d)
					}
				}
			}
		}
	})
}
