// Tombstone compaction. RemoveNode retires ID slots instead of recycling
// them, so a long-lived snapshot that absorbs removal-heavy deltas accretes
// dead slots: every O(V) pass (wildcard candidates, refreeze's label
// re-count, the clean-row copies) keeps paying for nodes that no longer
// exist. Compact remaps the live slots onto a fresh dense ID space and drops
// the tombstones. Because dead nodes own no edges (the RemoveNode/Delta
// invariant), every CSR row of a dead node is empty, and because the live
// remap is monotone, every sorted run stays sorted — compaction is one
// O(V + E) copy with element-wise target remapping, no re-sorting. The cost
// is that node IDs change: Compact returns the Remap so callers holding IDs
// (sharded views, dataset samples, persisted match results) can translate.
package graph

import "fmt"

// Remap translates pre-compaction node IDs to post-compaction ones; index by
// old ID. Dead slots map to InvalidNode. A nil Remap means IDs were left
// unchanged (nothing was compacted); Of handles that case, so callers can
// thread a remap unconditionally.
type Remap []NodeID

// Of returns the post-compaction ID of v: v itself under a nil (identity)
// remap, InvalidNode for dropped or out-of-range slots.
func (m Remap) Of(v NodeID) NodeID {
	if m == nil {
		return v
	}
	if v < 0 || int(v) >= len(m) {
		return InvalidNode
	}
	return m[v]
}

// DeadFraction returns the tombstoned share of the dense ID space, the
// quantity the refreeze compaction policy thresholds on.
func (f *Frozen) DeadFraction() float64 {
	if f.NumNodes() == 0 {
		return 0
	}
	return float64(f.deadCount) / float64(f.NumNodes())
}

// Compact returns a snapshot with every tombstoned slot dropped and the live
// nodes renumbered onto a dense ID space, plus the old→new Remap. The
// relative order of live IDs is preserved (the remap is monotone), so
// adjacency runs and label runs stay sorted and no re-sorting happens. A
// snapshot with no tombstones is returned unchanged with a nil remap.
func (f *Frozen) Compact() (*Frozen, Remap) {
	if f.deadCount == 0 {
		return f, nil
	}
	n := f.NumNodes()
	live := n - f.deadCount
	remap := make(Remap, n)
	next := NodeID(0)
	for v := 0; v < n; v++ {
		if f.dead[v] {
			remap[v] = InvalidNode
		} else {
			remap[v] = next
			next++
		}
	}
	if int(next) != live {
		panic(fmt.Sprintf("graph: Compact: deadCount %d inconsistent with %d dead flags", f.deadCount, n-int(next)))
	}

	nf := &Frozen{
		epoch: nextEpoch(),
		// Label tables are immutable after construction: share them. A label
		// whose last node died keeps its (now empty) table entry.
		nodeLabelIDs:   f.nodeLabelIDs,
		nodeLabelNames: f.nodeLabelNames,
		labelIDs:       f.labelIDs,
		labelNames:     f.labelNames,
		edges:          f.edges,
		// A dead node's attribute row is empty, like its adjacency rows:
		// the rows and their tables carry over, only the offsets lose the
		// dead entries.
		attrRows:   f.attrRows,
		attrNames:  f.attrNames,
		attrValues: f.attrValues,
	}
	nf.nodeLabelOf = make([]LabelID, live)
	nf.attrOff = make([]int32, live+1)
	for v := 0; v < n; v++ {
		if j := remap[v]; j != InvalidNode {
			nf.nodeLabelOf[j] = f.nodeLabelOf[v]
			nf.attrOff[j+1] = f.attrOff[v+1]
		} else if f.attrOff[v+1] != f.attrOff[v] {
			panic(fmt.Sprintf("graph: Compact: tombstoned node %d still owns attributes", v))
		}
	}
	nf.out = compactDir(&f.out, remap, live)
	nf.in = compactDir(&f.in, remap, live)

	// Nodes-by-label: the index already lists live nodes only, in ascending
	// ID order per label; a monotone remap preserves both, so the offsets
	// carry over verbatim and only the IDs translate.
	nf.byLabelOff = f.byLabelOff
	nf.byLabelNodes = make([]NodeID, len(f.byLabelNodes))
	for i, v := range f.byLabelNodes {
		nf.byLabelNodes[i] = remap[v]
	}
	return nf, remap
}

// compactDir drops dead rows from one CSR direction. Dead rows are empty, so
// the target/directory arrays keep their exact contents and internal offsets
// — only the per-node offset arrays lose the dead entries and the endpoint
// IDs translate through the remap.
func compactDir(d *csrDir, remap Remap, live int) csrDir {
	c := csrDir{
		off:       make([]int32, live+1),
		dirOff:    make([]int32, live+1),
		targets:   make([]NodeID, len(d.targets)),
		all:       make([]NodeID, len(d.all)),
		dirLabels: d.dirLabels,
		dirStart:  d.dirStart,
	}
	for v, j := 0, 0; v < len(d.off)-1; v++ {
		if remap[v] == InvalidNode {
			if d.off[v+1] != d.off[v] {
				panic(fmt.Sprintf("graph: Compact: tombstoned node %d still owns edges", v))
			}
			continue
		}
		c.off[j+1] = d.off[v+1]
		c.dirOff[j+1] = d.dirOff[v+1]
		j++
	}
	for i, t := range d.targets {
		c.targets[i] = remap[t]
	}
	for i, t := range d.all {
		c.all[i] = remap[t]
	}
	return c
}

// DefaultCompactThreshold is the dead-slot fraction beyond which
// RefreezeOpts compacts the refrozen snapshot instead of carrying the
// tombstones forward.
const DefaultCompactThreshold = 0.25

// RefreezeOptions configures RefreezeOpts.
type RefreezeOptions struct {
	// CompactThreshold is the DeadFraction at or above which the refrozen
	// snapshot is compacted. Zero means DefaultCompactThreshold; a negative
	// value disables compaction (always carry tombstones, i.e. plain
	// Refreeze).
	CompactThreshold float64
}

// RefreezeOpts is Refreeze with the compaction policy applied: the delta is
// merged as usual, and when the result's dead fraction reaches the
// threshold, the tombstones are dropped and the returned Remap translates
// the pre-compaction IDs (which the caller's delta, matches and external
// references still use). A nil Remap means IDs are unchanged.
func (f *Frozen) RefreezeOpts(d *Delta, opt RefreezeOptions) (*Frozen, Remap) {
	nf := f.Refreeze(d)
	thr := opt.CompactThreshold
	if thr == 0 {
		thr = DefaultCompactThreshold
	}
	if thr < 0 || nf.DeadFraction() < thr {
		return nf, nil
	}
	return nf.Compact()
}
