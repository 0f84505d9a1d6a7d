package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestShardedEquivalence is the sharding-equivalence property: on random
// multigraphs, the Sharded snapshot must answer every Reader query (Snapshot
// included) and CandidateBitset exactly like the Frozen snapshot it embeds,
// at every shard count. Interned IDs transfer here (it
// is the same snapshot), so the ID-level methods are compared directly.
func TestShardedEquivalence(t *testing.T) {
	nodeLabels := []string{"a", "b", "c", Wildcard}
	edgeLabels := []string{"e", "f", "g", Wildcard}
	for seed := int64(0); seed < 6; seed++ {
		n := 5 + rand.New(rand.NewSource(seed)).Intn(20)
		_, f := buildBoth(seed, n, 4*n, nodeLabels, edgeLabels)
		for _, k := range []int{1, 2, 3, 7, n, n + 5} {
			s := f.Sharded(k)
			ctx := fmt.Sprintf("seed=%d n=%d k=%d", seed, n, k)
			checkReaderEquivalence(t, ctx, f, s, nodeLabels, edgeLabels)
			if fmt.Sprint(s.Labels()) != fmt.Sprint(f.Labels()) {
				t.Fatalf("%s: Labels diverge", ctx)
			}
			for v := 0; v < n; v++ {
				if s.LabelIDOf(NodeID(v)) != f.LabelIDOf(NodeID(v)) {
					t.Fatalf("%s: LabelIDOf(%d) diverges", ctx, v)
				}
			}
			for _, l := range append(f.Labels(), "absent", Wildcard) {
				if s.NodeLabelID(l) != f.NodeLabelID(l) {
					t.Fatalf("%s: NodeLabelID(%q) diverges", ctx, l)
				}
				if fmt.Sprint(s.CandidateBitset(l)) != fmt.Sprint(f.CandidateBitset(l)) {
					t.Fatalf("%s: CandidateBitset(%q) diverges", ctx, l)
				}
			}
			query := append(edgeLabels, "absent")
			if fmt.Sprint(s.ResolveLabels(query)) != fmt.Sprint(f.ResolveLabels(query)) {
				t.Fatalf("%s: ResolveLabels diverges", ctx)
			}
			for _, l := range query {
				if s.EdgeLabelID(l) != f.EdgeLabelID(l) {
					t.Fatalf("%s: EdgeLabelID(%q) diverges", ctx, l)
				}
			}
			if s.Snapshot() != f {
				t.Fatalf("%s: Snapshot is not the embedded snapshot", ctx)
			}
		}
	}
}

// TestShardedSplit pins the fan-out's partition: for every k (clamped into
// [1, NumNodes]) and every candidate list — each label, the wildcard, an
// absent label, the empty graph — Split returns no empty part, each part
// lies inside one stride range and ends its capacity there, the ranges
// ascend, and the parts concatenate back to the input. The ranges covering
// the node space never outnumber the clamped k.
func TestShardedSplit(t *testing.T) {
	check := func(ctx string, f *Frozen, k int) {
		t.Helper()
		s := f.Sharded(k)
		n := f.NumNodes()
		if r := (n + s.stride - 1) / s.stride; r > max(1, min(k, n)) {
			t.Fatalf("%s: stride %d cuts %d nodes into %d ranges, more than k allows", ctx, s.stride, n, r)
		}
		for _, l := range append(f.Labels(), Wildcard, "absent") {
			ids := CandidateNodes(f, l)
			var concat []NodeID
			prev := -1
			for i, part := range s.Split(ids) {
				if len(part) == 0 || cap(part) != len(part) {
					t.Fatalf("%s label %q: part %d has len %d cap %d", ctx, l, i, len(part), cap(part))
				}
				r := int(part[0]) / s.stride
				if int(part[len(part)-1])/s.stride != r || r <= prev {
					t.Fatalf("%s label %q: part %d %v is not one range above range %d", ctx, l, i, part, prev)
				}
				prev = r
				concat = append(concat, part...)
			}
			if !idsEqual(concat, ids) {
				t.Fatalf("%s label %q: parts concatenate to %v, want %v", ctx, l, concat, ids)
			}
		}
	}
	ks := func(n int) []int { return []int{-3, 0, 1, 2, 4, 9, n, n + 5} }
	for seed := int64(0); seed < 6; seed++ {
		n := 10 + rand.New(rand.NewSource(seed)).Intn(30)
		_, f := buildBoth(seed, n, 5*n, []string{"a", "b", "c"}, []string{"e", "f"})
		for _, k := range ks(n) {
			check(fmt.Sprintf("seed=%d n=%d k=%d", seed, n, k), f, k)
		}
	}
	empty := NewBuilder(0).Freeze()
	for _, k := range ks(0) {
		check(fmt.Sprintf("empty k=%d", k), empty, k)
	}
}

// TestShardedClamping pins the degenerate shapes by part count: k below 1
// is one shard, k above the node count one node per shard, and the empty
// graph has nothing to split.
func TestShardedClamping(t *testing.T) {
	_, f := buildBoth(5, 7, 20, []string{"a"}, []string{"e"})
	all := CandidateNodes(f, Wildcard)
	if got := len(f.Sharded(0).Split(all)); got != 1 {
		t.Fatalf("k=0 split %d nodes into %d parts, want 1", len(all), got)
	}
	if got := len(f.Sharded(100).Split(all)); got != 7 {
		t.Fatalf("k=100 on 7 nodes gave %d parts, want 7", got)
	}
	if parts := NewBuilder(0).Freeze().Sharded(4).Split(nil); parts != nil {
		t.Fatalf("empty graph split into %v", parts)
	}
}
