package gen

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gfd"
	"repro/internal/graph"
)

func TestSetSatisfiableByConstruction(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := New(Config{N: 30, K: 4, L: 3, Seed: seed})
		set := g.Set()
		if set.Len() != 30 {
			t.Fatalf("|Σ| = %d, want 30", set.Len())
		}
		res := core.SeqSat(set)
		if !res.Satisfiable {
			t.Fatalf("seed %d: consistent set reported unsatisfiable: %v", seed, res.Conflict)
		}
	}
}

func TestSetUnsatisfiableWithConflicts(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := New(Config{N: 20, K: 4, L: 3, Seed: seed, Conflicts: 2})
		set := g.Set()
		if set.Len() != 20+2 { // N includes the anchor; conflicts are extra
			t.Fatalf("|Σ| = %d, want 22", set.Len())
		}
		res := core.SeqSat(set)
		if res.Satisfiable {
			t.Fatalf("seed %d: conflict-injected set reported satisfiable", seed)
		}
	}
}

func TestImpliedGFDIsImplied(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := New(Config{N: 15, K: 4, L: 3, Seed: seed})
		set := g.Set()
		phi := g.ImpliedGFD(set)
		if !core.SeqImp(set, phi).Implied {
			t.Fatalf("seed %d: weakened member not implied:\nφ: %s", seed, phi)
		}
	}
}

func TestNonImpliedGFDIsNotImplied(t *testing.T) {
	notImplied := 0
	for seed := int64(0); seed < 5; seed++ {
		g := New(Config{N: 15, K: 4, L: 3, Seed: seed})
		set := g.Set()
		phi := g.NonImpliedGFD()
		if !core.SeqImp(set, phi).Implied {
			notImplied++
		}
	}
	// "never" constants can in principle collide with an inconsistent-X
	// deduction, but for consistent sets that cannot happen: all seeds must
	// be non-implied.
	if notImplied != 5 {
		t.Fatalf("non-implied targets implied in %d/5 seeds", 5-notImplied)
	}
}

func TestPatternSizesRespectK(t *testing.T) {
	for _, k := range []int{1, 2, 4, 6, 10} {
		g := New(Config{N: 40, K: k, L: 2, Seed: 9})
		set := g.Set()
		for _, phi := range set.GFDs {
			if n := phi.Pattern.NumVars(); n > k || n < 1 {
				t.Fatalf("k=%d: pattern with %d vars", k, n)
			}
			if len(phi.Pattern.Components()) > 1 {
				t.Fatalf("k=%d: disconnected generated pattern", k)
			}
		}
	}
}

func TestLiteralCountsRespectL(t *testing.T) {
	for _, l := range []int{1, 3, 5} {
		g := New(Config{N: 40, K: 4, L: l, Seed: 3})
		set := g.Set()
		for _, phi := range set.GFDs {
			if len(phi.X) > l || len(phi.Y) > l || len(phi.Y) == 0 {
				t.Fatalf("l=%d: |X|=%d |Y|=%d", l, len(phi.X), len(phi.Y))
			}
		}
	}
}

func TestProfilesDiffer(t *testing.T) {
	for _, p := range dataset.All() {
		g := New(Config{N: 10, K: 3, L: 2, Seed: 1, Profile: p})
		set := g.Set()
		if set.Len() != 10 {
			t.Fatalf("%s: |Σ| = %d", p.Name, set.Len())
		}
		if !core.SeqSat(set).Satisfiable {
			t.Fatalf("%s: consistent set unsatisfiable", p.Name)
		}
	}
}

func TestConsistentGraphSatisfiesSet(t *testing.T) {
	g := New(Config{N: 20, K: 3, L: 3, Seed: 11})
	set := g.Set()
	gr := g.ConsistentGraph(60)
	if gr.NumNodes() == 0 {
		t.Fatal("empty consistent graph")
	}
	if ok, v := core.Satisfies(gr, set); !ok {
		t.Fatalf("W-population violates a consistent GFD: %v at %v", v.GFD, v.Match)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := New(Config{N: 25, K: 4, L: 3, Seed: 77}).Set()
	b := New(Config{N: 25, K: 4, L: 3, Seed: 77}).Set()
	if a.String() != b.String() {
		t.Fatal("same seed produced different sets")
	}
	c := New(Config{N: 25, K: 4, L: 3, Seed: 78}).Set()
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical sets")
	}
}

func TestGeneratedSetsInteract(t *testing.T) {
	// The frequent-edge pool must make patterns overlap enough that the
	// canonical graph has cross-pattern matches — otherwise the reasoning
	// workload is trivial. Detect interaction via enforcement stats: with
	// shared labels, enforcements exceed the per-GFD identity matches.
	g := New(Config{N: 30, K: 4, L: 3, Seed: 5})
	set := g.Set()
	res := core.SeqSat(set)
	if !res.Satisfiable {
		t.Fatal("unexpected unsat")
	}
	if res.Stats.Matches < set.Len()*2 {
		t.Errorf("only %d matches for %d GFDs; patterns do not interact", res.Stats.Matches, set.Len())
	}
}

var _ = gfd.ConstLiteral // keep import stable if assertions above change

// assertSameGraph structurally compares a mutable graph with a frozen
// snapshot built by an independent replay of the same
// synthesis: node labels and attributes, wildcard adjacency (ascending on
// both sides), and per-edge membership.
func assertSameGraph(t *testing.T, ctx string, g *graph.Graph, f graph.Reader) {
	t.Helper()
	if g.NumNodes() != f.NumNodes() || g.NumEdges() != f.NumEdges() {
		t.Fatalf("%s: cardinalities diverge: mutable (%d,%d) frozen (%d,%d)",
			ctx, g.NumNodes(), g.NumEdges(), f.NumNodes(), f.NumEdges())
	}
	for v := 0; v < g.NumNodes(); v++ {
		id := graph.NodeID(v)
		if g.Label(id) != f.Label(id) {
			t.Fatalf("%s: label of %d diverges: %q vs %q", ctx, v, g.Label(id), f.Label(id))
		}
		if fmt.Sprint(g.Attrs(id)) != fmt.Sprint(f.Attrs(id)) {
			t.Fatalf("%s: attrs of %d diverge: %v vs %v", ctx, v, g.Attrs(id), f.Attrs(id))
		}
		mo, fo := g.OutByLabelID(id, graph.AnyLabel), f.OutByLabelID(id, graph.AnyLabel)
		if fmt.Sprint(mo) != fmt.Sprint(fo) {
			t.Fatalf("%s: adjacency of %d diverges: %v vs %v", ctx, v, mo, fo)
		}
		for _, e := range g.Out(id) {
			if !graph.HasEdge(f, e.From, e.To, e.Label) {
				t.Fatalf("%s: frozen misses edge %v", ctx, e)
			}
		}
	}
}

// TestFrozenMaterializationsEquivalence pins the Builder wiring: for the
// same generator configuration, DenseFrozen carries exactly the graph its
// editable counterpart produces.
func TestFrozenMaterializationsEquivalence(t *testing.T) {
	cfg := Config{N: 12, K: 4, L: 2, Seed: 9}
	assertSameGraph(t, "dense",
		New(cfg).DenseGraph(150, 6), New(cfg).DenseFrozen(150, 6))
}

// TestMutateDeltaDeterminism pins the update-stream generator: the same
// configuration draws the same delta, ops actually land, and the composed
// graph stays schema-consistent (every edge label comes from the profile).
func TestMutateDeltaDeterminism(t *testing.T) {
	cfg := Config{N: 12, K: 4, L: 2, Seed: 21}
	build := func() (*graph.Frozen, *graph.Delta) {
		g := New(cfg)
		base := g.DenseFrozen(300, 6)
		return base, g.DenseDelta(base, 60)
	}
	base1, d1 := build()
	_, d2 := build()
	if d1.String() != d2.String() {
		t.Fatalf("same seed drew different deltas: %v vs %v", d1, d2)
	}
	if fmt.Sprint(d1.TouchedSince(0)) != fmt.Sprint(d2.TouchedSince(0)) {
		t.Fatal("same seed touched different nodes")
	}
	if d1.Len() == 0 {
		t.Fatal("60 ops recorded nothing")
	}
	o := d1.Overlay()
	if o.NumEdges() == base1.NumEdges() && o.NumNodes() == base1.NumNodes() {
		t.Fatal("delta changed neither nodes nor edges")
	}
	labels := make(map[string]bool)
	for _, l := range cfg.withDefaults().Profile.EdgeLabels {
		labels[l] = true
	}
	for v := 0; v < o.NumNodes(); v++ {
		for _, e := range o.Out(graph.NodeID(v)) {
			if !labels[e.Label] {
				t.Fatalf("edge label %q not in the profile schema", e.Label)
			}
		}
	}
	// Refreeze of the generated stream agrees with the overlay, which the
	// merge leaves as it was.
	nf := base1.Refreeze(d1)
	if nf.NumEdges() != o.NumEdges() || nf.NumNodes() != o.NumNodes() || nf.LiveNodes() != o.LiveNodes() {
		t.Fatalf("refreeze disagrees with overlay: (%d,%d,%d) vs (%d,%d,%d)",
			nf.NumNodes(), nf.NumEdges(), nf.LiveNodes(), o.NumNodes(), o.NumEdges(), o.LiveNodes())
	}
}

// TestValidationSet pins the triangle validation workload: a clean
// materialization satisfies it wherever literals are defined, because the
// set is drawn before the graph so the W rows exist.
func TestValidationSet(t *testing.T) {
	g := New(Config{N: 16, K: 6, L: 2, Seed: 3})
	set := g.ValidationSet(12)
	if set.Len() == 0 {
		t.Skip("seed 3 schema closes no triangles")
	}
	for _, phi := range set.GFDs {
		if len(phi.Y) != 1 || phi.Y[0].Kind != gfd.ConstLiteral {
			t.Fatalf("GFD %s is not a single constant assertion", phi.Name)
		}
	}
}
