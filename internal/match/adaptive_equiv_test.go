package match_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// TestAdaptiveMergeEquivalenceGen asserts, property-style, that the
// adaptive kernels (gallop + bitset + picker) enumerate exactly the
// brute-force oracle's homomorphism set on random gen workloads, across
// every reader representation: mutable, Frozen, Sharded, Overlay (with
// added edges and a removed node).
func TestAdaptiveMergeEquivalenceGen(t *testing.T) {
	profiles := dataset.All()
	total, nonEmpty := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		prof := profiles[int(seed)%len(profiles)]
		gr := gen.New(gen.Config{N: 10, K: 4, L: 2, Profile: prof, WildcardRate: 0.3, Seed: seed})
		g := gr.ConsistentGraph(40)
		f := g.Frozen()
		d := graph.NewDelta(f)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 8; i++ {
			from := graph.NodeID(rng.Intn(f.NumNodes()))
			to := graph.NodeID(rng.Intn(f.NumNodes()))
			d.AddEdge(from, to, f.Label(from))
		}
		d.RemoveNode(graph.NodeID(rng.Intn(f.NumNodes())))
		readers := map[string]graph.Reader{
			"mutable": g,
			"frozen":  f,
			"sharded": f.Sharded(3),
			"overlay": d.Overlay(),
		}
		for i := 0; i < 10; i++ {
			p := gr.Pattern()
			for name, r := range readers {
				ctx := fmt.Sprintf("seed=%d pattern#%d %s on %s", seed, i, p, name)
				adaptive := matchSet(p, r, match.Options{})
				diffSets(t, ctx, adaptive, oracleSet(p, r, nil))
				total++
				if len(adaptive) > 0 {
					nonEmpty++
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatalf("all %d random instances had empty match sets; workload too sparse to be meaningful", total)
	}
}

// skewedGraph builds the workload shape the adaptive kernels exist for: a
// center node whose single adjacency run mixes a rare label (forcing the
// gallop candidate path: freq·8 « |run|) with a very frequent one (forcing
// the snapshot bitset path: freq ≥ 256, dense enough for a bitset). It
// returns the graph plus the two labels' frequencies so callers can assert
// the fast-path preconditions actually hold.
func skewedGraph(seed int64) (*graph.Graph, int, int) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	c := g.AddNode("c")
	var rare, common []graph.NodeID
	for i := 0; i < 20; i++ {
		rare = append(rare, g.AddNode("r"))
	}
	for i := 0; i < 600; i++ {
		common = append(common, g.AddNode("t"))
	}
	// One long mixed run out of the center; back-edges from a sample of
	// both populations give the triangle patterns below something to close.
	for _, v := range rare {
		g.AddEdge(c, v, "e")
	}
	for _, v := range common {
		g.AddEdge(c, v, "e")
	}
	for i := 0; i < 40; i++ {
		g.AddEdge(common[rng.Intn(len(common))], c, "back")
		g.AddEdge(common[rng.Intn(len(common))], rare[rng.Intn(len(rare))], "link")
	}
	return g, len(rare), len(common)
}

// TestAdaptiveMergeEquivalenceSkewed repeats the oracle-equality property
// on a graph engineered to actually take the gallop and bitset branches —
// preconditions asserted, not assumed — so a divergence in either fast
// path cannot hide behind workloads that never leave the merge.
func TestAdaptiveMergeEquivalenceSkewed(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g, rareFreq, commonFreq := skewedGraph(seed)
		f := g.Frozen()
		run := len(f.Out(0)) // center's full out-run
		if rareFreq*8 >= run {
			t.Fatalf("workload broken: rare freq %d does not trigger gallop against run %d", rareFreq, run)
		}
		if commonFreq < 256 || commonFreq < f.NumNodes()/64 {
			t.Fatalf("workload broken: common freq %d does not qualify for a bitset (n=%d)", commonFreq, f.NumNodes())
		}
		if f.CandidateBitset("t") == nil {
			t.Fatal("workload broken: no candidate bitset built for the frequent label")
		}

		d := graph.NewDelta(f)
		rng := rand.New(rand.NewSource(seed + 100))
		for i := 0; i < 10; i++ {
			d.AddEdge(graph.NodeID(1+rng.Intn(f.NumNodes()-1)), 0, "back")
		}
		nv := d.AddNode("t")
		d.AddEdge(0, nv, "e")
		readers := map[string]graph.Reader{
			"frozen":  f,
			"sharded": f.Sharded(3),
			"overlay": d.Overlay(),
		}

		// Gallop shape: y's rare label is pulled and galloped through the
		// center's run. Bitset shape: y's frequent label is probed per run
		// element. The triangle variants exercise the same kernels under
		// bound-edge verification too.
		pats := make([]*pattern.Pattern, 0, 4)
		for _, lab := range []string{"r", "t"} {
			p := pattern.New()
			x := p.AddVar("x", "c")
			y := p.AddVar("y", lab)
			p.AddEdge(x, y, "e")
			pats = append(pats, p)

			tri := pattern.New()
			a := tri.AddVar("x", "c")
			b := tri.AddVar("y", "t")
			z := tri.AddVar("z", lab)
			tri.AddEdge(a, b, "e")
			tri.AddEdge(b, z, "link")
			tri.AddEdge(b, a, "back")
			pats = append(pats, tri)
		}
		nonEmpty := 0
		for i, p := range pats {
			for name, r := range readers {
				ctx := fmt.Sprintf("seed=%d pattern#%d %s on %s", seed, i, p, name)
				adaptive := matchSet(p, r, match.Options{})
				diffSets(t, ctx, adaptive, oracleSet(p, r, nil))
				if len(adaptive) > 0 {
					nonEmpty++
				}
			}
		}
		if nonEmpty == 0 {
			t.Fatal("all skewed instances had empty match sets; property is vacuous")
		}
	}
}

// TestScopedRootCandidatesBitsetEquivalence pins the scoped-revalidation
// fast path: when the scope is much smaller than the variable's label
// frequency the bitset probe must select exactly the nodes the full
// candidate-pull-and-intersect path selects, in the same ascending order.
// The reference is that filter, computed here: the label index ∩ scope.
func TestScopedRootCandidatesBitsetEquivalence(t *testing.T) {
	g, _, commonFreq := skewedGraph(7)
	f := g.Frozen()
	p := pattern.New()
	y := p.AddVar("y", "t")
	x := p.AddVar("x", "c")
	p.AddEdge(x, y, "e")

	rng := rand.New(rand.NewSource(7))
	var scope []graph.NodeID
	for i := 0; i < 12; i++ {
		scope = append(scope, graph.NodeID(rng.Intn(f.NumNodes())))
	}
	slices.Sort(scope)
	scope = slices.Compact(scope)
	if len(scope)*4 >= commonFreq {
		t.Fatalf("scope of %d does not trigger the bitset probe against freq %d", len(scope), commonFreq)
	}
	if f.CandidateBitset("t") == nil {
		t.Fatal("fixture: label t serves no bitset, so the probe is not taken")
	}
	got := match.ScopedRootCandidates(p, f, y, scope)
	var want []graph.NodeID
	for _, u := range graph.CandidateNodes(f, "t") {
		if _, in := slices.BinarySearch(scope, u); in {
			want = append(want, u)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("scoped root candidates diverge:\nbitset %v\nfilter %v", got, want)
	}
	if len(got) == 0 {
		t.Fatal("scoped bitset probe selected nothing; property is vacuous")
	}
}
