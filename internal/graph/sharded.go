// Sharded CSR snapshots. A Frozen snapshot's dense offset arrays make node
// ranges the natural unit of partitioning: because node IDs are dense and
// the CSR rows are laid out in ID order, a contiguous ID range [lo, hi) owns
// a contiguous slice of every per-direction array. Sharded is the Frozen
// snapshot plus a partition of its node space into K such ranges: it reads
// exactly like the snapshot (the Reader methods are the embedded Frozen's),
// and adds the per-range candidate enumeration the parallel matcher fans a
// root pivot's candidate set out over (match.FindAllSharded). Cross-shard
// ("frontier") edges stay inside the owning endpoint's rows — an edge
// (u, v) lives in shard(u)'s out rows and shard(v)'s in rows even when
// shard(u) ≠ shard(v) — and String reports the frontier counts, how cleanly
// the range partition cuts the graph.
package graph

import (
	"fmt"
	"runtime"
	"sort"
)

// Sharded is an immutable CSR snapshot range-partitioned into K shards. It
// embeds the Frozen it was carved from, so it is a Reader, BitsetProvider
// and EpochView by promotion with identical results (a sharded view is an
// access-path decoration, not a different snapshot: same epoch, same
// bitset cache), plus the shard-level API the parallel matcher fans out
// over. Like Frozen it is safe for concurrent readers.
type Sharded struct {
	*Frozen
	stride int // nodes per shard (last shard takes the remainder)
	shards []Shard
}

// Shard is one contiguous node range [Lo, Hi) of a Sharded snapshot: the
// range, its accounting, and the owned slice of the label index. It is not
// a Reader — every worker reads the whole snapshot (the paper's ParSat and
// ParImp replicate the graph rather than fragment it); a shard only says
// which root candidates a worker starts from.
type Shard struct {
	f      *Frozen
	lo, hi NodeID
	// edges counts out-edges owned by the shard; frontierOut/frontierIn
	// count the owned edges whose other endpoint lies outside [lo, hi);
	// dead counts tombstoned slots in the range (see Frozen.Alive).
	edges       int
	frontierOut int
	frontierIn  int
	dead        int
}

// DefaultShardCount picks K for a graph of the given node count: one shard
// per available CPU, clamped so a shard never owns fewer than 256 nodes
// (finer sharding than that spends more on routing and fan-out bookkeeping
// than a shard's worth of work costs).
func DefaultShardCount(nodes int) int {
	k := runtime.GOMAXPROCS(0)
	if max := nodes / 256; k > max {
		k = max
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Sharded carves the snapshot into k range-partitioned shards. The shards
// alias the snapshot's arrays (carving is one O(V+E) counting pass, no edge
// data is copied). Degenerate counts are clamped here, not left to callers:
// k is forced into [1, NumNodes], an empty graph gets one empty shard, and
// the all-empty trailing shards a non-dividing stride would otherwise
// produce (e.g. k=9 over 10 nodes: stride 2 covers the node space in 5
// shards, leaving 4 empty) are collapsed, so ShardCount never exceeds the
// number of shards that own at least one node.
func (f *Frozen) Sharded(k int) *Sharded {
	n := len(f.nodes)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	stride := 1
	if n > 0 {
		stride = (n + k - 1) / k
	}
	s := &Sharded{Frozen: f, stride: stride, shards: make([]Shard, shardCount(n, stride))}
	for i := range s.shards {
		lo, hi := shardRange(i, stride, n)
		s.shards[i] = carveShard(f, lo, hi)
	}
	return s
}

// shardCount returns how many stride-sized ranges cover n nodes: the
// all-empty tail is collapsed and an empty graph gets one empty shard.
func shardCount(n, stride int) int {
	if n == 0 {
		return 1
	}
	return (n + stride - 1) / stride
}

// shardRange returns the node range shard i owns under the given stride.
func shardRange(i, stride, n int) (lo, hi NodeID) {
	h := (i + 1) * stride
	if h > n {
		h = n // the last shard takes the remainder; the empty graph's owns nothing
	}
	return NodeID(i * stride), NodeID(h)
}

// carveShard runs the per-shard accounting pass: owned edge count, frontier
// counts by direction, and tombstoned slots in range. Shared by Sharded and
// the dirty-shard path of Sharded.Refreeze.
func carveShard(f *Frozen, lo, hi NodeID) Shard {
	sh := Shard{f: f, lo: lo, hi: hi}
	sh.edges = int(f.out.off[hi] - f.out.off[lo])
	for _, t := range f.out.targets[f.out.off[lo]:f.out.off[hi]] {
		if t < lo || t >= hi {
			sh.frontierOut++
		}
	}
	for _, t := range f.in.targets[f.in.off[lo]:f.in.off[hi]] {
		if t < lo || t >= hi {
			sh.frontierIn++
		}
	}
	if f.dead != nil {
		for v := lo; v < hi; v++ {
			if f.dead[v] {
				sh.dead++
			}
		}
	}
	return sh
}

// ShardCount returns K.
func (s *Sharded) ShardCount() int { return len(s.shards) }

// Shard returns shard i.
func (s *Sharded) Shard(i int) *Shard { return &s.shards[i] }

// DensestShard returns the shard holding the most nodes with the given
// label, and that count (wildcard counts every node). Ties break toward the
// lower shard index, keeping the choice deterministic.
func (s *Sharded) DensestShard(label string) (shard, count int) {
	for i := range s.shards {
		if c := s.shards[i].LabelFrequency(label); c > count {
			shard, count = i, c
		}
	}
	return shard, count
}

// String summarizes the partition for logs.
func (s *Sharded) String() string {
	fo, fi := 0, 0
	for i := range s.shards {
		fo += s.shards[i].frontierOut
		fi += s.shards[i].frontierIn
	}
	return fmt.Sprintf("Sharded{K=%d, V=%d, E=%d, frontier out/in=%d/%d}",
		len(s.shards), s.NumNodes(), s.NumEdges(), fo, fi)
}

// NumEdges returns the number of out-edges the shard owns (summing over all
// shards gives the graph's |E| exactly once).
func (sh *Shard) NumEdges() int { return sh.edges }

// ownedRun returns the shard's slice of the snapshot's ascending label run:
// two binary searches for the range boundaries, no copying.
func (sh *Shard) ownedRun(label string) []NodeID {
	run := sh.f.nodesWithLabel(label)
	lo := sort.Search(len(run), func(i int) bool { return run[i] >= sh.lo })
	hi := sort.Search(len(run), func(i int) bool { return run[i] >= sh.hi })
	return run[lo:hi]
}

// AppendCandidates appends the owned candidates for the label into dst:
// every owned live node for the wildcard, else the owned nodes with that
// exact label. The per-shard lists concatenated in shard order equal the
// snapshot's candidate list: node IDs ascend within a label run and shards
// are ascending ID ranges.
func (sh *Shard) AppendCandidates(dst []NodeID, label string) []NodeID {
	if label == Wildcard {
		for v := sh.lo; v < sh.hi; v++ {
			if sh.f.dead != nil && sh.f.dead[v] {
				continue
			}
			dst = append(dst, v)
		}
		return dst
	}
	return append(dst, sh.ownedRun(label)...)
}

// LabelFrequency returns the number of owned live nodes carrying the label.
func (sh *Shard) LabelFrequency(label string) int {
	if label == Wildcard {
		return int(sh.hi-sh.lo) - sh.dead
	}
	return len(sh.ownedRun(label))
}
