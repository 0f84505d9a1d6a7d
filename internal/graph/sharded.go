// Sharded CSR snapshots. A Frozen snapshot's dense offset arrays make node
// ranges the natural unit of partitioning: because node IDs are dense and
// the CSR rows are laid out in ID order, a contiguous ID range [lo, hi) owns
// a contiguous slice of every per-direction array. Sharded carves the node
// space into K such ranges. Each shard is an independent graph.Reader over
// its own slice of the offset/target/label arrays; a thin routing layer
// (node→shard is one integer division on the dense ID space) dispatches
// whole-graph queries to the owning shard. Cross-shard ("frontier") edges
// stay physically inside the owning endpoint's target arrays — an edge
// (u, v) lives in shard(u)'s out rows and shard(v)'s in rows even when
// shard(u) ≠ shard(v) — so HasEdgeID and CandidateNodes remain exact; the
// per-shard frontier counts are exposed for balance diagnostics and the
// pivot-placement heuristic.
//
// The layer exists for parallel execution: per-shard candidate enumeration
// lets match fan a root pivot's candidate set out across workers
// (match.FindAllSharded), the execution layer's worker pool keeps split
// branches local to a worker, and a future distributed deployment
// would ship one Shard per machine — the fragmentation the paper runs on 20
// machines.
package graph

import (
	"fmt"
	"runtime"
	"sort"
)

// Sharded is an immutable CSR snapshot range-partitioned into K shards. It
// implements the full Reader API with the same results as the Frozen
// snapshot it was carved from (routing adds one bounds computation per
// query), plus the shard-level API the parallel execution layer fans out
// over. Like Frozen it is safe for concurrent readers.
type Sharded struct {
	f      *Frozen
	starts []NodeID // shard s owns [starts[s], starts[s+1]); len K+1
	stride int      // nodes per shard (last shard takes the remainder)
	shards []Shard
}

// Shard is one contiguous node range of a Sharded snapshot, itself a
// graph.Reader. Node-level lookups (labels, attributes, interning) answer
// over the whole node universe — a deployment replicates node metadata and
// partitions edges — while adjacency and candidate queries answer only for
// owned nodes: OutByLabelID/InByLabelID/HasEdgeID return empty outside
// [Lo, Hi), and NodesByLabel/CandidateNodes enumerate owned nodes only. A
// Shard is therefore not a drop-in substitute for the full snapshot in a
// whole-graph search; it is the per-worker view the fan-out APIs slice work
// with.
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

// ShardedView is the optional interface a Reader implements when it is
// backed by a sharded snapshot. Consumers that can exploit placement — the
// pivot-selection heuristic, the parallel candidate fan-out — type-assert
// against it and fall back to the flat path otherwise.
type ShardedView interface {
	Reader
	ShardCount() int
	ShardOf(v NodeID) int
	DensestShard(label string) (shard, count int)
}

var (
	_ Reader      = (*Sharded)(nil)
	_ Reader      = (*Shard)(nil)
	_ ShardedView = (*Sharded)(nil)
)

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
		k = (n + stride - 1) / stride // collapse the all-empty tail
	} else {
		k = 1 // empty graph: one empty shard
	}
	s := &Sharded{f: f, stride: stride}
	s.starts = make([]NodeID, k+1)
	for i := 1; i <= k; i++ {
		hi := i * stride
		if hi > n {
			hi = n
		}
		s.starts[i] = NodeID(hi)
	}
	s.shards = make([]Shard, k)
	for i := range s.shards {
		s.shards[i] = carveShard(f, s.starts[i], s.starts[i+1])
	}
	return s
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

// FreezeSharded is Freeze followed by Sharded(k): it consumes the builder
// and returns the snapshot pre-partitioned for parallel consumers.
func (b *Builder) FreezeSharded(k int) *Sharded { return b.Freeze().Sharded(k) }

// Sharded returns a sharded immutable snapshot of g's current contents; see
// Graph.Frozen for the snapshot semantics.
func (g *Graph) Sharded(k int) *Sharded { return g.Frozen().Sharded(k) }

// Frozen returns the underlying un-sharded snapshot (shared storage).
func (s *Sharded) Frozen() *Frozen { return s.f }

// ShardCount returns K.
func (s *Sharded) ShardCount() int { return len(s.shards) }

// ShardOf returns the shard owning node v: one division on the dense ID
// space, O(1).
func (s *Sharded) ShardOf(v NodeID) int {
	i := int(v) / s.stride
	if max := len(s.shards) - 1; i > max {
		i = max
	}
	return i
}

// Shard returns shard i as an independent Reader.
func (s *Sharded) Shard(i int) *Shard { return &s.shards[i] }

// ShardBounds returns the node range [lo, hi) shard i owns.
func (s *Sharded) ShardBounds(i int) (lo, hi NodeID) { return s.shards[i].lo, s.shards[i].hi }

// FrontierEdges returns how many of shard i's owned edges cross a shard
// boundary, split by direction. In a distributed deployment these are the
// edges whose resolution would touch a remote node's metadata; locally they
// quantify how cleanly the range partition cuts the graph.
func (s *Sharded) FrontierEdges(i int) (out, in int) {
	return s.shards[i].frontierOut, s.shards[i].frontierIn
}

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

// Reader delegation: a Sharded answers whole-graph queries from the carved
// snapshot's arrays. Because shards are contiguous ID ranges of the same
// dense layout, the owning shard's slice of each array is exactly the run
// the flat snapshot would consult, so delegation and routing agree by
// construction (pinned by the sharded equivalence tests).

// NumNodes returns |V|.
func (s *Sharded) NumNodes() int { return s.f.NumNodes() }

// NumEdges returns |E|.
func (s *Sharded) NumEdges() int { return s.f.NumEdges() }

// Label returns the label of node v.
func (s *Sharded) Label(v NodeID) string { return s.f.Label(v) }

// Attr reports the value of attribute A at node v and whether it exists.
func (s *Sharded) Attr(v NodeID, attr string) (string, bool) { return s.f.Attr(v, attr) }

// Attrs returns the attribute tuple of v; see Frozen.Attrs.
func (s *Sharded) Attrs(v NodeID) map[string]string { return s.f.Attrs(v) }

// Size returns |G|; see Frozen.Size.
func (s *Sharded) Size() int { return s.f.Size() }

// Out returns the outgoing edges of v, synthesized per call.
func (s *Sharded) Out(v NodeID) []Edge { return s.f.Out(v) }

// In returns the incoming edges of v, synthesized per call.
func (s *Sharded) In(v NodeID) []Edge { return s.f.In(v) }

// EdgeLabelID resolves an edge label to its interned ID.
func (s *Sharded) EdgeLabelID(label string) LabelID { return s.f.EdgeLabelID(label) }

// NodeLabelID resolves a node label to its interned ID.
func (s *Sharded) NodeLabelID(label string) LabelID { return s.f.NodeLabelID(label) }

// LabelIDOf returns the interned ID of node v's label.
func (s *Sharded) LabelIDOf(v NodeID) LabelID { return s.f.LabelIDOf(v) }

// ResolveLabels maps a label list through EdgeLabelID.
func (s *Sharded) ResolveLabels(labels []string) []LabelID { return s.f.ResolveLabels(labels) }

// Labels returns the distinct node labels in deterministic order.
func (s *Sharded) Labels() []string { return s.f.Labels() }

// HasEdge reports whether edge (from,to) with the given label exists.
func (s *Sharded) HasEdge(from, to NodeID, label string) bool { return s.f.HasEdge(from, to, label) }

// HasEdgeID is HasEdge with a pre-resolved label ID: the probe runs in
// shard(from)'s rows, where the edge lives even when to is remote.
func (s *Sharded) HasEdgeID(from, to NodeID, id LabelID) bool { return s.f.HasEdgeID(from, to, id) }

// OutByLabel returns the targets of v's outgoing edges carrying the label.
func (s *Sharded) OutByLabel(v NodeID, label string) []NodeID { return s.f.OutByLabel(v, label) }

// OutByLabelID is OutByLabel with a pre-resolved label ID.
func (s *Sharded) OutByLabelID(v NodeID, id LabelID) []NodeID { return s.f.OutByLabelID(v, id) }

// InByLabel returns the sources of v's incoming edges carrying the label.
func (s *Sharded) InByLabel(v NodeID, label string) []NodeID { return s.f.InByLabel(v, label) }

// InByLabelID is InByLabel with a pre-resolved label ID.
func (s *Sharded) InByLabelID(v NodeID, id LabelID) []NodeID { return s.f.InByLabelID(v, id) }

// NodesByLabel returns a fresh copy of the nodes carrying the label.
func (s *Sharded) NodesByLabel(label string) []NodeID { return s.f.NodesByLabel(label) }

// CandidateNodes returns a fresh copy of the candidates for the label.
func (s *Sharded) CandidateNodes(label string) []NodeID { return s.f.CandidateNodes(label) }

// AppendCandidates appends the label's candidates into dst. The global
// candidate list equals the per-shard lists concatenated in shard order:
// node IDs ascend within a label run and shards are ascending ID ranges.
func (s *Sharded) AppendCandidates(dst []NodeID, label string) []NodeID {
	return s.f.AppendCandidates(dst, label)
}

// LabelFrequency returns the number of nodes carrying the label.
func (s *Sharded) LabelFrequency(label string) int { return s.f.LabelFrequency(label) }

// Covers reports whether node v's adjacency covers the signature.
func (s *Sharded) Covers(v NodeID, sig Signature) bool { return s.f.Covers(v, sig) }

// CoversIDs is Covers with pre-resolved label IDs.
func (s *Sharded) CoversIDs(v NodeID, outIDs, inIDs []LabelID) bool {
	return s.f.CoversIDs(v, outIDs, inIDs)
}

// Neighborhood returns the nodes within d undirected hops of v.
func (s *Sharded) Neighborhood(v NodeID, d int) map[NodeID]bool { return s.f.Neighborhood(v, d) }

// UndirectedDistance returns the undirected hop distance between u and v.
func (s *Sharded) UndirectedDistance(u, v NodeID) int { return s.f.UndirectedDistance(u, v) }

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

// --- Shard: the per-range Reader ---

// owns reports whether the shard's range contains v.
func (sh *Shard) owns(v NodeID) bool { return v >= sh.lo && v < sh.hi }

// Lo returns the first node ID the shard owns.
func (sh *Shard) Lo() NodeID { return sh.lo }

// Hi returns one past the last node ID the shard owns.
func (sh *Shard) Hi() NodeID { return sh.hi }

// NumNodes returns the number of nodes the shard owns.
func (sh *Shard) NumNodes() int { return int(sh.hi - sh.lo) }

// NumEdges returns the number of out-edges the shard owns (summing over all
// shards gives the graph's |E| exactly once).
func (sh *Shard) NumEdges() int { return sh.edges }

// FrontierEdges returns the shard's cross-shard edge counts by direction.
func (sh *Shard) FrontierEdges() (out, in int) { return sh.frontierOut, sh.frontierIn }

// Label returns the label of node v (any node: metadata is replicated).
func (sh *Shard) Label(v NodeID) string { return sh.f.Label(v) }

// Attr reports attribute A of node v (any node).
func (sh *Shard) Attr(v NodeID, attr string) (string, bool) { return sh.f.Attr(v, attr) }

// Attrs returns the attribute tuple of v (any node).
func (sh *Shard) Attrs(v NodeID) map[string]string { return sh.f.Attrs(v) }

// Size returns the owned share of |G|: owned live nodes, their out-edges
// and their attributes.
func (sh *Shard) Size() int {
	s := sh.NumNodes() - sh.dead + sh.edges
	for v := sh.lo; v < sh.hi; v++ {
		s += len(sh.f.nodes[v].Attrs)
	}
	return s
}

// Out returns the outgoing edges of v when the shard owns v.
func (sh *Shard) Out(v NodeID) []Edge {
	if !sh.owns(v) {
		return nil
	}
	return sh.f.Out(v)
}

// In returns the incoming edges of v when the shard owns v.
func (sh *Shard) In(v NodeID) []Edge {
	if !sh.owns(v) {
		return nil
	}
	return sh.f.In(v)
}

// EdgeLabelID resolves an edge label (interning is shared graph-wide).
func (sh *Shard) EdgeLabelID(label string) LabelID { return sh.f.EdgeLabelID(label) }

// NodeLabelID resolves a node label (interning is shared graph-wide).
func (sh *Shard) NodeLabelID(label string) LabelID { return sh.f.NodeLabelID(label) }

// LabelIDOf returns the interned ID of node v's label (any node).
func (sh *Shard) LabelIDOf(v NodeID) LabelID { return sh.f.LabelIDOf(v) }

// ResolveLabels maps a label list through EdgeLabelID.
func (sh *Shard) ResolveLabels(labels []string) []LabelID { return sh.f.ResolveLabels(labels) }

// Labels returns the graph's distinct node labels (shared label universe).
func (sh *Shard) Labels() []string { return sh.f.Labels() }

// HasEdge reports an owned edge; false when the shard does not own from.
func (sh *Shard) HasEdge(from, to NodeID, label string) bool {
	return sh.HasEdgeID(from, to, sh.f.EdgeLabelID(label))
}

// HasEdgeID is HasEdge with a pre-resolved label ID.
func (sh *Shard) HasEdgeID(from, to NodeID, id LabelID) bool {
	if !sh.owns(from) {
		return false
	}
	return sh.f.HasEdgeID(from, to, id)
}

// OutByLabel returns owned adjacency; empty when the shard does not own v.
func (sh *Shard) OutByLabel(v NodeID, label string) []NodeID {
	return sh.OutByLabelID(v, sh.f.EdgeLabelID(label))
}

// OutByLabelID is OutByLabel with a pre-resolved label ID.
func (sh *Shard) OutByLabelID(v NodeID, id LabelID) []NodeID {
	if !sh.owns(v) {
		return nil
	}
	return sh.f.OutByLabelID(v, id)
}

// InByLabel returns owned adjacency; empty when the shard does not own v.
func (sh *Shard) InByLabel(v NodeID, label string) []NodeID {
	return sh.InByLabelID(v, sh.f.EdgeLabelID(label))
}

// InByLabelID is InByLabel with a pre-resolved label ID.
func (sh *Shard) InByLabelID(v NodeID, id LabelID) []NodeID {
	if !sh.owns(v) {
		return nil
	}
	return sh.f.InByLabelID(v, id)
}

// ownedRun returns the shard's slice of the snapshot's ascending label run:
// two binary searches for the range boundaries, no copying.
func (sh *Shard) ownedRun(label string) []NodeID {
	run := sh.f.nodesWithLabel(label)
	if len(run) == 0 {
		return nil
	}
	lo := sort.Search(len(run), func(i int) bool { return run[i] >= sh.lo })
	hi := sort.Search(len(run), func(i int) bool { return run[i] >= sh.hi })
	return run[lo:hi]
}

// NodesByLabel returns a fresh copy of the owned nodes carrying the label.
func (sh *Shard) NodesByLabel(label string) []NodeID {
	run := sh.ownedRun(label)
	if run == nil {
		return nil
	}
	return append([]NodeID(nil), run...)
}

// CandidateNodes returns a fresh copy of the owned candidates for the
// label: every owned node for the wildcard, else the owned nodes with that
// exact label.
func (sh *Shard) CandidateNodes(label string) []NodeID {
	return sh.AppendCandidates(nil, label)
}

// AppendCandidates appends CandidateNodes(label) into dst without any other
// allocation.
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
		return sh.NumNodes() - sh.dead
	}
	return len(sh.ownedRun(label))
}

// Covers reports whether an owned node's adjacency covers the signature.
func (sh *Shard) Covers(v NodeID, sig Signature) bool {
	return sh.CoversIDs(v, sh.f.ResolveLabels(sig.Out), sh.f.ResolveLabels(sig.In))
}

// CoversIDs is Covers with pre-resolved label IDs; false for unowned nodes.
func (sh *Shard) CoversIDs(v NodeID, outIDs, inIDs []LabelID) bool {
	if !sh.owns(v) {
		return false
	}
	return sh.f.CoversIDs(v, outIDs, inIDs)
}

// Neighborhood runs the shared BFS over the shard's owned adjacency: the
// frontier stops expanding at unowned nodes (their adjacency reads empty),
// matching what a worker machine could traverse without communication.
func (sh *Shard) Neighborhood(v NodeID, d int) map[NodeID]bool { return neighborhood(sh, v, d) }

// UndirectedDistance is the shared BFS over owned adjacency only.
func (sh *Shard) UndirectedDistance(u, v NodeID) int { return undirectedDistance(sh, u, v) }
