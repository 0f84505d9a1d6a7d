package graph

import "slices"

// Sharded is a Frozen snapshot plus a stride that cuts its node space into
// contiguous ID ranges [i·stride, (i+1)·stride). It embeds the snapshot, so
// it is a Reader by promotion with identical results, Snapshot included. A shard is only a range: every worker reads the whole snapshot
// (the paper's ParSat and ParImp replicate the graph rather than fragment
// it), and a shard says which root candidates a worker starts from
// (match.FindAllSharded).
type Sharded struct {
	*Frozen
	stride int // nodes per shard (the last shard takes the remainder)
}

// Sharded cuts the snapshot into k stride ranges, k clamped to [1, NumNodes]
// (a k above the node count gives stride 1). Nothing is copied or counted.
func (f *Frozen) Sharded(k int) *Sharded {
	n, k := f.NumNodes(), max(k, 1)
	return &Sharded{Frozen: f, stride: max(1, (n+k-1)/k)}
}

// Split cuts an ascending node ID list at the stride boundaries and returns
// the non-empty pieces in order, as sub-slices of ids (their capacity ends
// where the piece does). Concatenated, they are ids again.
func (s *Sharded) Split(ids []NodeID) [][]NodeID {
	var parts [][]NodeID
	for len(ids) > 0 {
		end := (int(ids[0])/s.stride + 1) * s.stride
		i, _ := slices.BinarySearch(ids, NodeID(end))
		parts = append(parts, ids[:i:i])
		ids = ids[i:]
	}
	return parts
}
