package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestShardedEquivalence is the sharding-equivalence property: on random
// multigraphs, the Sharded snapshot must answer every Reader query — and
// the BitsetProvider and EpochView extensions — exactly like the Frozen
// snapshot it embeds, at every shard count. Interned IDs transfer here (it
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
			if s.Epoch() != f.Epoch() {
				t.Fatalf("%s: Epoch %d, want the embedded snapshot's %d", ctx, s.Epoch(), f.Epoch())
			}
		}
	}
}

// TestShardPartition pins the routing layer: every node is owned by exactly
// one shard, the stride division Refreeze routes by agrees with the shard
// bounds, per-shard candidate lists
// concatenated in shard order reproduce the global ascending candidate
// list, and per-shard edge counts sum to |E|.
func TestShardPartition(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		n := 10 + rand.New(rand.NewSource(seed)).Intn(30)
		_, f := buildBoth(seed, n, 5*n, []string{"a", "b", "c"}, []string{"e", "f"})
		for _, k := range []int{1, 2, 4, 9} {
			s := f.Sharded(k)
			ctx := fmt.Sprintf("seed=%d n=%d k=%d", seed, n, k)
			if s.ShardCount() < 1 || s.ShardCount() > k {
				t.Fatalf("%s: ShardCount=%d out of range", ctx, s.ShardCount())
			}
			owned := make([]int, n)
			edges := 0
			for i := 0; i < s.ShardCount(); i++ {
				sh := s.Shard(i)
				lo, hi := sh.lo, sh.hi
				for v := lo; v < hi; v++ {
					owned[v]++
					if int(v)/s.stride != i {
						t.Fatalf("%s: stride routes %d to shard %d, owner is %d", ctx, v, int(v)/s.stride, i)
					}
				}
				edges += sh.NumEdges()
			}
			for v, c := range owned {
				if c != 1 {
					t.Fatalf("%s: node %d owned by %d shards", ctx, v, c)
				}
			}
			if edges != f.NumEdges() {
				t.Fatalf("%s: shard edges sum to %d, want %d", ctx, edges, f.NumEdges())
			}
			for _, l := range append(f.Labels(), Wildcard, "absent") {
				var concat []NodeID
				for i := 0; i < s.ShardCount(); i++ {
					concat = s.Shard(i).AppendCandidates(concat, l)
				}
				if !idsEqual(concat, CandidateNodes(f, l)) {
					t.Fatalf("%s: per-shard candidates for %q concat to %v, want %v",
						ctx, l, concat, CandidateNodes(f, l))
				}
			}
		}
	}
}

// TestShardFrontierCounts pins the frontier accounting against a brute
// count over the raw edges.
func TestShardFrontierCounts(t *testing.T) {
	g, f := buildBoth(3, 25, 120, []string{"a", "b"}, []string{"e", "f"})
	for _, k := range []int{2, 3, 5} {
		s := f.Sharded(k)
		for i := 0; i < s.ShardCount(); i++ {
			lo, hi := s.shards[i].lo, s.shards[i].hi
			wantOut, wantIn := 0, 0
			for v := 0; v < g.NumNodes(); v++ {
				for _, e := range f.Out(NodeID(v)) {
					if e.From >= lo && e.From < hi && (e.To < lo || e.To >= hi) {
						wantOut++
					}
					if e.To >= lo && e.To < hi && (e.From < lo || e.From >= hi) {
						wantIn++
					}
				}
			}
			gotOut, gotIn := s.shards[i].frontierOut, s.shards[i].frontierIn
			if gotOut != wantOut || gotIn != wantIn {
				t.Fatalf("k=%d shard %d: frontier (%d,%d), want (%d,%d)", k, i, gotOut, gotIn, wantOut, wantIn)
			}
		}
	}
}

// TestShardReaderRestriction pins what a Shard answers: candidate
// enumeration stays within the owned range, LabelFrequency is exactly the
// owned candidate count, and the shards concatenated in order give the
// snapshot's flat candidate list.
func TestShardReaderRestriction(t *testing.T) {
	_, f := buildBoth(11, 30, 150, []string{"a", "b", "c"}, []string{"e", "f"})
	s := f.Sharded(3)
	for _, l := range []string{"a", "b", "c", Wildcard, "absent"} {
		var concat []NodeID
		for i := 0; i < s.ShardCount(); i++ {
			sh := s.Shard(i)
			owned := sh.AppendCandidates(nil, l)
			for _, v := range owned {
				if v < sh.lo || v >= sh.hi {
					t.Fatalf("shard %d: candidate %d outside [%d,%d)", i, v, sh.lo, sh.hi)
				}
			}
			if sh.LabelFrequency(l) != len(owned) {
				t.Fatalf("shard %d: LabelFrequency(%q) = %d, owns %d candidates", i, l, sh.LabelFrequency(l), len(owned))
			}
			concat = append(concat, owned...)
		}
		if !idsEqual(concat, CandidateNodes(f, l)) {
			t.Fatalf("shards concatenate to %v for %q, want %v", concat, l, CandidateNodes(f, l))
		}
	}
}

// TestShardedDensestShard pins the placement probe the pivot heuristic
// uses: it must return the shard whose owned candidate count is maximal.
func TestShardedDensestShard(t *testing.T) {
	b := NewBuilder(0)
	// 8 nodes: shard 0 gets 3 "a", shard 1 gets 1 "a" and 3 "b".
	for _, l := range []string{"a", "a", "a", "c", "a", "b", "b", "b"} {
		b.AddNode(l)
	}
	s := b.Freeze().Sharded(2)
	if sh, c := s.DensestShard("a"); sh != 0 || c != 3 {
		t.Fatalf(`DensestShard("a") = (%d,%d), want (0,3)`, sh, c)
	}
	if sh, c := s.DensestShard("b"); sh != 1 || c != 3 {
		t.Fatalf(`DensestShard("b") = (%d,%d), want (1,3)`, sh, c)
	}
	if _, c := s.DensestShard("absent"); c != 0 {
		t.Fatalf(`DensestShard("absent") count = %d, want 0`, c)
	}
	if sh, c := s.DensestShard(Wildcard); sh != 0 || c != 4 {
		t.Fatalf("DensestShard(wildcard) = (%d,%d), want (0,4)", sh, c)
	}
}

// TestShardedClamping pins the degenerate shapes: k below 1, k above the
// node count, and the empty graph.
func TestShardedClamping(t *testing.T) {
	_, f := buildBoth(5, 7, 20, []string{"a"}, []string{"e"})
	if got := f.Sharded(0).ShardCount(); got != 1 {
		t.Fatalf("k=0 clamped to %d shards, want 1", got)
	}
	if got := f.Sharded(100).ShardCount(); got != 7 {
		t.Fatalf("k=100 on 7 nodes gave %d shards, want 7", got)
	}
	empty := NewBuilder(0).Freeze().Sharded(4)
	if empty.ShardCount() != 1 || empty.NumNodes() != 0 {
		t.Fatalf("empty graph sharded oddly: K=%d V=%d", empty.ShardCount(), empty.NumNodes())
	}
	if DefaultShardCount(0) != 1 {
		t.Fatal("DefaultShardCount(0) must be 1")
	}
	if DefaultShardCount(1<<20) < 1 {
		t.Fatal("DefaultShardCount must be positive")
	}
}
