package dataset

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/graph"
)

func TestProfileStatisticsMatchPaper(t *testing.T) {
	cases := []struct {
		p         *Profile
		nodeTypes int
		edgeTypes int
		gfdCount  int
	}{
		{DBpedia(), 200, 160, 8000},
		{YAGO2(), 13, 36, 6000},
		{Pokec(), 269, 11, 10000},
	}
	for _, c := range cases {
		if len(c.p.NodeLabels) != c.nodeTypes {
			t.Errorf("%s node types = %d, want %d", c.p.Name, len(c.p.NodeLabels), c.nodeTypes)
		}
		if len(c.p.EdgeLabels) != c.edgeTypes {
			t.Errorf("%s edge types = %d, want %d", c.p.Name, len(c.p.EdgeLabels), c.edgeTypes)
		}
		if c.p.GFDCount != c.gfdCount {
			t.Errorf("%s GFD count = %d, want %d", c.p.Name, c.p.GFDCount, c.gfdCount)
		}
	}
	if len(All()) != 3 {
		t.Error("All() should return the three paper datasets")
	}
}

func TestSampleGraphShape(t *testing.T) {
	p := YAGO2()
	g := p.SampleGraph(GraphConfig{Nodes: 500, EdgesPerNode: 3, Seed: 1})
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if g.NumEdges() < 1000 {
		t.Fatalf("edges = %d, want ≈1500 (some dedup expected)", g.NumEdges())
	}
	// Labels are skewed: the most frequent label covers a disproportionate
	// share.
	max := 0
	for _, l := range g.Labels() {
		if n := g.LabelFrequency(l); n > max {
			max = n
		}
	}
	if max < 500/len(p.NodeLabels)*2 {
		t.Errorf("label distribution looks uniform: max frequency %d", max)
	}
}

func TestSampleGraphDeterministic(t *testing.T) {
	p := DBpedia()
	a := p.SampleGraph(GraphConfig{Nodes: 100, Seed: 5})
	b := p.SampleGraph(GraphConfig{Nodes: 100, Seed: 5})
	if a.String() != b.String() {
		t.Fatal("same seed produced different graphs")
	}
	c := p.SampleGraph(GraphConfig{Nodes: 100, Seed: 6})
	if a.String() == c.String() {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestSampleGraphHasMineableFDs(t *testing.T) {
	// Even offsets are label-determined: every node of one label must agree
	// on the first attribute of its slice.
	p := Pokec()
	g := p.SampleGraph(GraphConfig{Nodes: 300, AttrsPerNode: 2, Seed: 2})
	byLabel := make(map[string]map[string]string) // label → attr → value
	for i := 0; i < g.NumNodes(); i++ {
		id := graph.NodeID(i)
		label := g.Label(id)
		for a, v := range g.Attrs(id) {
			if byLabel[label] == nil {
				byLabel[label] = map[string]string{}
			}
			if prev, ok := byLabel[label][a]; ok && prev != v && v[:1] != "v" && prev[:1] != "v" {
				t.Fatalf("label-determined attr %s of %s has two values %q %q", a, label, prev, v)
			}
			if _, ok := byLabel[label][a]; !ok {
				byLabel[label][a] = v
			}
		}
	}
}

func TestZipfIndexBounds(t *testing.T) {
	p := YAGO2()
	g := p.SampleGraph(GraphConfig{Nodes: 50, Seed: 3})
	for _, l := range g.Labels() {
		found := false
		for _, known := range p.NodeLabels {
			if l == known {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("unknown label %q in sampled graph", l)
		}
	}
}

// TestSampleFrozenEquivalence pins the Builder wiring: for the same
// profile, config and seed, SampleFrozen carries exactly the graph
// SampleGraph produces — including under the zero-value defaults, which
// exercise the capacity-hint normalization.
func TestSampleFrozenEquivalence(t *testing.T) {
	p := DBpedia()
	for _, cfg := range []GraphConfig{
		{Nodes: 60, EdgesPerNode: 4, Seed: 3},
		{Seed: 5}, // defaults: 1000 nodes x 3 edges
	} {
		g := p.SampleGraph(cfg)
		f := p.SampleFrozen(cfg)
		if g.NumNodes() != f.NumNodes() || g.NumEdges() != f.NumEdges() {
			t.Fatalf("cfg %+v: cardinalities diverge: mutable (%d,%d) frozen (%d,%d)",
				cfg, g.NumNodes(), g.NumEdges(), f.NumNodes(), f.NumEdges())
		}
		for v := 0; v < g.NumNodes(); v++ {
			id := graph.NodeID(v)
			if g.Label(id) != f.Label(id) {
				t.Fatalf("cfg %+v: label of %d diverges", cfg, v)
			}
			if fmt.Sprint(g.Attrs(id)) != fmt.Sprint(f.Attrs(id)) {
				t.Fatalf("cfg %+v: attrs of %d diverge", cfg, v)
			}
			mo, fo := g.OutByLabelID(id, graph.AnyLabel), f.OutByLabelID(id, graph.AnyLabel)
			if fmt.Sprint(mo) != fmt.Sprint(fo) {
				t.Fatalf("cfg %+v: adjacency of %d diverges: %v vs %v", cfg, v, mo, fo)
			}
		}
	}
}

// TestSampleShardedEquivalence pins the sharded emitter: the same synthesis
// as SampleFrozen, pre-partitioned, with shards<=0 resolving to the default
// shard count.
func TestSampleShardedEquivalence(t *testing.T) {
	p := YAGO2()
	cfg := GraphConfig{Nodes: 60, EdgesPerNode: 4, Seed: 3}
	f := p.SampleFrozen(cfg)
	s := p.SampleSharded(cfg, 4)
	if s.ShardCount() != 4 {
		t.Fatalf("ShardCount = %d, want 4", s.ShardCount())
	}
	if s.NumNodes() != f.NumNodes() || s.NumEdges() != f.NumEdges() {
		t.Fatalf("cardinalities diverge: sharded (%d,%d) frozen (%d,%d)",
			s.NumNodes(), s.NumEdges(), f.NumNodes(), f.NumEdges())
	}
	for v := 0; v < f.NumNodes(); v++ {
		id := graph.NodeID(v)
		mo, so := f.OutByLabelID(id, graph.AnyLabel), s.OutByLabelID(id, graph.AnyLabel)
		if fmt.Sprint(mo) != fmt.Sprint(so) {
			t.Fatalf("adjacency of %d diverges: %v vs %v", v, mo, so)
		}
	}
	if p.SampleSharded(cfg, 0).ShardCount() < 1 {
		t.Fatal("default shard count not positive")
	}
}

// TestSampleDelta pins the profile update-stream generator: deterministic
// per seed, actually mutating, and composable with Overlay/Refreeze.
func TestSampleDelta(t *testing.T) {
	p := DBpedia()
	cfg := GraphConfig{Nodes: 300, EdgesPerNode: 3, Seed: 5}
	base := p.SampleFrozen(cfg)
	d1 := p.SampleDelta(base, 50, 9)
	d2 := p.SampleDelta(base, 50, 9)
	if d1.String() != d2.String() {
		t.Fatalf("same seed drew different deltas: %v vs %v", d1, d2)
	}
	if d1.Len() == 0 {
		t.Fatal("50 ops recorded nothing")
	}
	nf := base.Refreeze(d1)
	// Derived after the Refreeze: snapshot readers die at the epoch
	// boundary, and the delta itself is untouched by the merge.
	o := d1.Overlay()
	if nf.NumEdges() != o.NumEdges() || nf.NumNodes() != o.NumNodes() {
		t.Fatalf("refreeze disagrees with overlay: (%d,%d) vs (%d,%d)",
			nf.NumNodes(), nf.NumEdges(), o.NumNodes(), o.NumEdges())
	}
	edgeLabels := make(map[string]bool)
	for _, l := range p.EdgeLabels {
		edgeLabels[l] = true
	}
	for v := 0; v < o.NumNodes(); v++ {
		for _, e := range o.Out(graph.NodeID(v)) {
			if !edgeLabels[e.Label] {
				t.Fatalf("edge label %q not in the profile", e.Label)
			}
		}
	}
}

// TestSampleDeltaIntoWAL pins the persisted-fixture path: streaming the
// sampled ops through a WAL produces the same delta as the bare in-memory
// one, and recovering the log reproduces it exactly.
func TestSampleDeltaIntoWAL(t *testing.T) {
	p := YAGO2()
	base := p.SampleFrozen(GraphConfig{Nodes: 200, EdgesPerNode: 3, Seed: 7})
	bare := p.SampleDelta(base, 40, 11)

	var log bytes.Buffer
	w := graph.NewWAL(&log, graph.NewDelta(base))
	p.SampleDeltaInto(w, 40, 11)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Delta().String() != bare.String() {
		t.Fatalf("WAL-fronted delta diverges: %v vs %v", w.Delta(), bare)
	}
	rec, stats, err := graph.Recover(base, bytes.NewReader(log.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated || rec.String() != bare.String() {
		t.Fatalf("recovered delta diverges (%+v): %v vs %v", stats, rec, bare)
	}
	nf, rf := base.Refreeze(rec), base.Refreeze(bare)
	if nf.NumNodes() != rf.NumNodes() || nf.NumEdges() != rf.NumEdges() {
		t.Fatalf("refrozen recovery diverges: (%d,%d) vs (%d,%d)",
			nf.NumNodes(), nf.NumEdges(), rf.NumNodes(), rf.NumEdges())
	}
}
