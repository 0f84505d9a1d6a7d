// Snapshot epochs: a process-unique identity token for immutable readers.
// Every snapshot construction path (Freeze, Refreeze, Compact, ReadSnapshot)
// draws a fresh value from one atomic counter, so two readers share an epoch
// exactly when they serve the same immutable contents — a Sharded view
// reports its underlying Frozen's epoch, an editable Graph that of the
// snapshot it currently reads through, and a Delta's Overlay that of the
// Refreeze it caches for its current version. Derived artifacts
// compiled against a snapshot (match plans, caches) carry the epoch they
// were built from and compare it to the reader they are asked to serve:
// a Refreeze, a Compact or an edit of a Graph mints a new epoch, so stale
// artifacts are mechanically unreachable without any registration or
// invalidation hooks.
// Epochs order construction within a process but are not persisted: a
// snapshot read back from disk is a new in-memory object and gets a new
// epoch.
package graph

import "sync/atomic"

// epochCounter backs nextEpoch. The zero value is never handed out, so 0
// can mean "no epoch" in consumers.
var epochCounter atomic.Uint64

// nextEpoch returns a process-unique, monotonically increasing epoch token.
func nextEpoch() uint64 { return epochCounter.Add(1) }

// EpochView is the Reader extension every representation implements: Epoch
// returns the token of the snapshot the reader answers from. Two EpochView
// readers with equal epochs serve identical graph contents for the life of
// the process. An immutable snapshot's epoch never changes; a *Graph reports
// the epoch of its current Frozen, so it moves when the graph is mutated and
// read again.
type EpochView interface {
	Reader
	Epoch() uint64
}

// Epoch returns the snapshot's construction token (see EpochView).
func (f *Frozen) Epoch() uint64 { return f.epoch }

var (
	_ EpochView = (*Graph)(nil)
	_ EpochView = (*Frozen)(nil)
	_ EpochView = (*Sharded)(nil)
)
