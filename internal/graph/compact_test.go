package graph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestCompactRandom is the compaction property: for random tombstone-heavy
// snapshots, Compact's result is query-identical to a from-scratch rebuild
// of the live subgraph under the same dense renumbering (Graph.Subgraph uses
// ascending-ID order, exactly the monotone order Compact's remap preserves),
// and the returned remap is total, monotone and dense.
func TestCompactRandom(t *testing.T) {
	nodeLabels := []string{"a", "b", "c", Wildcard}
	edgeLabels := []string{"e", "f", "g", Wildcard}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 40))
		n := 10 + rng.Intn(14)
		mirror, base := buildBoth(seed*13+5, n, 4*n, nodeLabels, edgeLabels)
		d := NewDelta(base)
		applyRandomOps(rng, mirror, d, 2+rng.Intn(3*n), nodeLabels, edgeLabels)
		// Force some removals so compaction has work even on gentle seeds.
		for i := 0; i < 3; i++ {
			v := NodeID(rng.Intn(mirror.NumNodes()))
			if mirror.Alive(v) {
				mirror.RemoveNode(v)
				d.RemoveNode(v)
			}
		}
		f := base.Refreeze(d)
		cf, remap := f.Compact()
		ctx := fmt.Sprintf("seed=%d n=%d dead=%d", seed, n, f.NumNodes()-f.LiveNodes())

		if cf.NumNodes() != f.LiveNodes() || cf.LiveNodes() != cf.NumNodes() || cf.DeadFraction() != 0 {
			t.Fatalf("%s: compacted cardinalities: V=%d live=%d", ctx, cf.NumNodes(), cf.LiveNodes())
		}
		if cf.NumEdges() != f.NumEdges() {
			t.Fatalf("%s: compaction changed |E|: %d vs %d", ctx, cf.NumEdges(), f.NumEdges())
		}
		next := NodeID(0)
		for v := 0; v < f.NumNodes(); v++ {
			if f.Alive(NodeID(v)) {
				if remap.Of(NodeID(v)) != next {
					t.Fatalf("%s: remap[%d] = %d, want %d (monotone dense)", ctx, v, remap.Of(NodeID(v)), next)
				}
				next++
			} else if remap.Of(NodeID(v)) != InvalidNode {
				t.Fatalf("%s: dead slot %d remaps to %d", ctx, v, remap.Of(NodeID(v)))
			}
		}
		if remap.Of(NodeID(f.NumNodes())) != InvalidNode || remap.Of(-1) != InvalidNode {
			t.Fatalf("%s: out-of-range remap not InvalidNode", ctx)
		}

		keep := make(map[NodeID]bool)
		for v := 0; v < mirror.NumNodes(); v++ {
			if mirror.Alive(NodeID(v)) {
				keep[NodeID(v)] = true
			}
		}
		sub, subRemap := mirror.Subgraph(keep)
		for old, want := range subRemap {
			if got := remap.Of(old); got != want {
				t.Fatalf("%s: remap[%d] = %d, Subgraph says %d", ctx, old, got, want)
			}
		}
		checkReaderEquivalence(t, ctx+" compacted", sub, cf, nodeLabels, edgeLabels)

		// Compacting a clean snapshot is the identity.
		same, nilRemap := cf.Compact()
		if same != cf || nilRemap != nil {
			t.Fatalf("%s: compaction of a clean snapshot is not the identity", ctx)
		}
	}
}

// TestRefreezeOptsPolicy pins the compaction policy hook: below the
// threshold tombstones are carried (nil remap, IDs stable), at or above it
// the result is compacted, and a negative threshold disables compaction.
func TestRefreezeOptsPolicy(t *testing.T) {
	b := NewBuilder(0)
	for i := 0; i < 10; i++ {
		b.AddNode("a")
	}
	for i := 0; i < 9; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1), "e")
	}
	base := b.Freeze()

	mk := func(removals int) *Delta {
		d := NewDelta(base)
		for i := 0; i < removals; i++ {
			d.RemoveNode(NodeID(i))
		}
		return d
	}

	// 2/10 dead < default 25%: carried.
	nf, remap := base.RefreezeOpts(mk(2), RefreezeOptions{})
	if remap != nil || nf.NumNodes() != 10 || nf.LiveNodes() != 8 {
		t.Fatalf("below threshold: remap=%v V=%d live=%d", remap, nf.NumNodes(), nf.LiveNodes())
	}
	// 3/10 dead >= 25%: compacted.
	nf, remap = base.RefreezeOpts(mk(3), RefreezeOptions{})
	if remap == nil || nf.NumNodes() != 7 || nf.LiveNodes() != 7 || nf.DeadFraction() != 0 {
		t.Fatalf("above threshold: remap=%v V=%d", remap, nf.NumNodes())
	}
	// Negative threshold: never compact.
	nf, remap = base.RefreezeOpts(mk(9), RefreezeOptions{CompactThreshold: -1})
	if remap != nil || nf.NumNodes() != 10 {
		t.Fatalf("disabled: remap=%v V=%d", remap, nf.NumNodes())
	}
	// Custom threshold.
	nf, remap = base.RefreezeOpts(mk(2), RefreezeOptions{CompactThreshold: 0.1})
	if remap == nil || nf.NumNodes() != 8 {
		t.Fatalf("custom threshold: remap=%v V=%d", remap, nf.NumNodes())
	}
}

// TestChainedRefreezeTombstoneAccounting is the regression test for the
// refreeze tombstone bookkeeping: two refreezes chained over removals (the
// second against an already tombstone-heavy base) must keep deadCount equal
// to the actual number of dead flags, and LiveNodes/Alive/NodesByLabel
// mutually consistent — Compact's remap sizes its arrays from deadCount, so
// any drift would corrupt the compacted snapshot.
func TestChainedRefreezeTombstoneAccounting(t *testing.T) {
	b := NewBuilder(0)
	for i := 0; i < 12; i++ {
		b.AddNode([]string{"a", "b", "c"}[i%3])
	}
	for i := 0; i < 11; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1), "e")
	}
	f := b.Freeze()

	check := func(stage string, f *Frozen) {
		t.Helper()
		count := 0
		for _, dd := range f.dead {
			if dd {
				count++
			}
		}
		if f.deadCount != count {
			t.Fatalf("%s: deadCount %d, but %d dead flags set", stage, f.deadCount, count)
		}
		if f.LiveNodes() != f.NumNodes()-count {
			t.Fatalf("%s: LiveNodes %d, want %d", stage, f.LiveNodes(), f.NumNodes()-count)
		}
		alive, inLabelRuns := 0, 0
		for v := 0; v < f.NumNodes(); v++ {
			if f.Alive(NodeID(v)) {
				alive++
			}
		}
		for _, l := range []string{"a", "b", "c"} {
			for _, v := range f.nodesWithLabel(l) {
				if !f.Alive(v) {
					t.Fatalf("%s: label run %q lists dead node %d", stage, l, v)
				}
				inLabelRuns++
			}
		}
		if alive != f.LiveNodes() || inLabelRuns != f.LiveNodes() {
			t.Fatalf("%s: Alive count %d, label runs %d, LiveNodes %d", stage, alive, inLabelRuns, f.LiveNodes())
		}
	}

	d1 := NewDelta(f)
	d1.RemoveNode(2)
	d1.RemoveNode(5)
	added := d1.AddNode("b")
	d1.RemoveNode(added) // added-then-removed in the same delta
	f1 := f.Refreeze(d1)
	check("first refreeze", f1)

	// Second round against the tombstone-heavy base: more removals, another
	// add, and a removal of a node the first delta added.
	d2 := NewDelta(f1)
	d2.RemoveNode(8)
	d2.RemoveNode(0)
	d2.AddNode("c")
	f2 := f1.Refreeze(d2)
	check("second refreeze", f2)
	if f2.deadCount != 5 {
		t.Fatalf("chained deadCount = %d, want 5", f2.deadCount)
	}

	// The invariant is exactly what Compact depends on: the chained snapshot
	// must compact cleanly.
	cf, remap := f2.Compact()
	check("compacted", cf)
	if cf.NumNodes() != f2.LiveNodes() || len(remap) != f2.NumNodes() {
		t.Fatalf("compaction after chain: V=%d remap=%d", cf.NumNodes(), len(remap))
	}
}

// TestCompactSharded pins the documented resharding path: a sharded view of
// the compacted snapshot reads its candidates as the originals translated by
// the remap.
func TestCompactSharded(t *testing.T) {
	_, f := snapshotFixture(t, 11)
	if f.deadCount == 0 {
		t.Skip("fixture produced no tombstones at this seed")
	}
	cf, remap := f.Compact()
	s := cf.Sharded(3)
	if s.NumNodes() != cf.NumNodes() {
		t.Fatalf("resharded node count %d, want %d", s.NumNodes(), cf.NumNodes())
	}
	var want []NodeID
	for _, v := range CandidateNodes(f, Wildcard) {
		want = append(want, remap.Of(v))
	}
	if !idsEqual(CandidateNodes(s, Wildcard), want) {
		t.Fatalf("resharded candidates diverge from remapped originals")
	}
}

// FuzzCompact holds Compact to its remap: after FuzzRefreeze's updates and a
// refreeze, every live node answers Label, Attrs, its rows and its candidate
// membership under its new ID as it did under its old one, a dead slot maps
// to InvalidNode, and the remap is monotone. A snapshot without tombstones
// compacts to itself with a nil remap. The attribute comparison covers the
// ID rows: each live node's tuple equals the from-scratch Freeze's, read
// through Attrs and pair by pair through AttrAt.
func FuzzCompact(f *testing.F) {
	f.Add([]byte{})                       // no tombstones: a nil remap
	f.Add([]byte{1, 0, 1, 0, 4, 2, 1, 1}) // edits, still no tombstone
	var allDead []byte
	for v := byte(0); v < 10; v++ {
		allDead = append(allDead, 3, v, 0, 0)
	}
	f.Add(allDead)
	// A dead hub: five edges at node 0, then node 0 removed.
	f.Add([]byte{1, 0, 1, 0, 1, 0, 2, 1, 1, 3, 0, 2, 1, 4, 0, 0, 1, 0, 5, 1, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		mirror, base := fuzzBase()
		d := NewDelta(base)
		applyFuzzOps(data, mirror, d, nil)
		snap := base.Refreeze(d)
		scratch := mirror.Frozen()
		compacted, remap := snap.Compact()
		if remap == nil {
			if snap.LiveNodes() != snap.NumNodes() || compacted != snap {
				t.Fatalf("nil remap for %d of %d live nodes, or a new snapshot", snap.LiveNodes(), snap.NumNodes())
			}
			return
		}
		if len(remap) != snap.NumNodes() || compacted.NumNodes() != snap.LiveNodes() || compacted.NumEdges() != snap.NumEdges() {
			t.Fatalf("remap of %d slots, %d→%d nodes, %d→%d edges", len(remap),
				snap.NumNodes(), compacted.NumNodes(), snap.NumEdges(), compacted.NumEdges())
		}
		through := func(ids []NodeID) []NodeID {
			out := make([]NodeID, len(ids))
			for i, v := range ids {
				out[i] = remap.Of(v)
			}
			return out
		}
		next := NodeID(0)
		for v := NodeID(0); int(v) < snap.NumNodes(); v++ {
			if !snap.Alive(v) {
				if remap[v] != InvalidNode {
					t.Fatalf("dead slot %d remaps to %d", v, remap[v])
				}
				continue
			}
			w := remap[v]
			if w != next {
				t.Fatalf("live node %d remaps to %d, want %d (monotone, dense)", v, w, next)
			}
			next++
			if compacted.Label(w) != snap.Label(v) || !maps.Equal(compacted.Attrs(w), scratch.Attrs(v)) {
				t.Fatalf("node %d→%d: label %q, attrs %v; want %q, %v", v, w,
					compacted.Label(w), compacted.Attrs(w), snap.Label(v), scratch.Attrs(v))
			}
			for k, val := range scratch.Attrs(v) {
				if got := compacted.AttrAt(w, compacted.AttrNameID(k)); got == NoValue || got != compacted.AttrValueID(val) {
					t.Fatalf("node %d→%d: AttrAt(%q) = %d, want the ID of %q", v, w, k, got, val)
				}
			}
			for _, l := range append(slices.Clip(fuzzEdgeLabels), "absent") {
				if got, want := outByLabel(compacted, w, l), through(outByLabel(snap, v, l)); !idsEqual(got, want) {
					t.Fatalf("node %d→%d: out-row %q = %v, want %v", v, w, l, got, want)
				}
				if got, want := inByLabel(compacted, w, l), through(inByLabel(snap, v, l)); !idsEqual(got, want) {
					t.Fatalf("node %d→%d: in-row %q = %v, want %v", v, w, l, got, want)
				}
			}
		}
		for _, l := range append(slices.Clip(fuzzNodeLabels), "absent") {
			if got, want := CandidateNodes(compacted, l), through(CandidateNodes(snap, l)); !idsEqual(got, want) {
				t.Fatalf("candidates %q = %v, want %v", l, got, want)
			}
		}
	})
}
