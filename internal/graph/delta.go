// Delta batches: the middle tier of the snapshot lifecycle. A Frozen
// snapshot is immutable, so before this layer any update forced a full
// O(E log deg) rebuild. Delta records a small batch of updates — added
// nodes, added/removed edges, attribute rewrites, node removals — against a
// base snapshot as plain edit sets, no adjacency. Frozen.Refreeze
// (refreeze.go) sorts those k edits by node, merges each touched base row
// with its edits in one linear pass, and copies untouched rows verbatim.
// Overlay serves the delta as it stands, one snapshot per delta version:
// the first is that Refreeze, and each later one is chained from the
// overlay before it, re-merging only the rows touched since and copying
// every other row from it. Beyond the bulk copy, cost tracks the edits
// since the last overlay, not the graph or the whole delta.
package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// Delta is a mutable batch of updates bound to one base snapshot. Added
// nodes extend the dense ID space at base.NumNodes(); edge adds/removes keep
// final-state semantics (removing an added edge cancels the add, re-adding a
// removed base edge cancels the remove); RemoveNode tombstones a node, and
// Refreeze drops every edge with a dead endpoint. The zero value is not usable;
// construct with NewDelta. A Delta is not safe for concurrent use (Overlay
// included: it caches on the delta); the snapshots taken from it are.
type Delta struct {
	base *Frozen

	// log lists, mutation by mutation, the nodes each one may change; its
	// length is the delta's version (see Version and TouchedSince).
	log []NodeID

	// Added nodes occupy IDs [base.NumNodes(), base.NumNodes()+len(nodes)).
	nodes       []Node
	nodeLabelOf []LabelID // parallel to nodes

	// Extension interning: new labels get IDs continuing the base tables, so
	// base CSR probes with an extended ID simply miss (the base never stores
	// such an ID) and no re-interning is needed anywhere.
	nodeLabelIDs   map[string]LabelID
	nodeLabelNames []string
	labelIDs       map[string]LabelID
	labelNames     []string

	// Edge changes in final-state form. added/removed are disjoint, removed
	// holds base edges only, added holds non-base edges only.
	addedSet   map[edgeKey]struct{}
	removedSet map[edgeKey]struct{}

	// dead tombstones removed nodes (base or added). attrs holds merged
	// attribute maps for updated base nodes.
	dead  map[NodeID]struct{}
	attrs map[NodeID]map[string]string

	// The rows a refreeze from the base merged (dirRows), kept for the
	// version they were merged at: an Overlay and a Refreeze of one version
	// share them.
	rowsVersion int
	outRows     []row
	inRows      []row

	// The Overlay snapshot of overlayVersion, reused until the next mutation
	// and then the source the next one is chained from.
	overlayVersion int
	overlay        *Frozen

	memo any // see Memo
}

// NewDelta returns an empty delta over the base snapshot.
func NewDelta(base *Frozen) *Delta {
	return &Delta{
		base:         base,
		nodeLabelIDs: make(map[string]LabelID),
		labelIDs:     make(map[string]LabelID),
		addedSet:     make(map[edgeKey]struct{}),
		removedSet:   make(map[edgeKey]struct{}),
		dead:         make(map[NodeID]struct{}),
		attrs:        make(map[NodeID]map[string]string),
	}
}

// Base returns the snapshot the delta is bound to.
func (d *Delta) Base() *Frozen { return d.base }

// Version identifies the delta's state: it grows with every mutation that
// changes the delta, and Overlay returns one snapshot per version.
// TouchedSince takes it.
func (d *Delta) Version() int { return len(d.log) }

// touch records a mutation that may change the rows, attributes or liveness
// of the given nodes, and so moves the version.
func (d *Delta) touch(vs ...NodeID) { d.log = append(d.log, vs...) }

// Memo returns the value SetMemo last stored. It is one slot for a caller
// that extends a result from the version it was computed at instead of
// from the base (core.RevalidateDelta keeps its last result there); the
// delta never reads it, and it goes with the delta.
func (d *Delta) Memo() any { return d.memo }

// SetMemo replaces the value Memo returns.
func (d *Delta) SetMemo(m any) { d.memo = m }

// baseN returns the size of the base ID space.
func (d *Delta) baseN() int { return d.base.NumNodes() }

func (d *Delta) valid(v NodeID) bool { return v >= 0 && int(v) < d.baseN()+len(d.nodes) }

// Alive reports whether v is a valid node not tombstoned by the base or the
// delta.
func (d *Delta) Alive(v NodeID) bool {
	if !d.valid(v) {
		return false
	}
	if _, dd := d.dead[v]; dd {
		return false
	}
	return int(v) >= d.baseN() || d.base.Alive(v)
}

// internEdgeLabel resolves a data edge label to its ID, extending the base
// tables on first use. Like Graph.internEdgeLabel it interns the literal
// Wildcard too.
func (d *Delta) internEdgeLabel(label string) LabelID {
	if id := d.edgeLabelID(label); id != NoLabel {
		return id
	}
	id := LabelID(len(d.base.labelNames) + len(d.labelNames))
	d.labelIDs[label] = id
	d.labelNames = append(d.labelNames, label)
	return id
}

// edgeLabelID resolves a label literally (no wildcard semantics), without
// allocating: NoLabel when neither the base nor the delta knows it.
func (d *Delta) edgeLabelID(label string) LabelID {
	if id, ok := d.base.labelIDs[label]; ok {
		return id
	}
	if id, ok := d.labelIDs[label]; ok {
		return id
	}
	return NoLabel
}

// internNodeLabel is internEdgeLabel for node labels.
func (d *Delta) internNodeLabel(label string) LabelID {
	if id, ok := d.base.nodeLabelIDs[label]; ok {
		return id
	}
	if id, ok := d.nodeLabelIDs[label]; ok {
		return id
	}
	id := LabelID(len(d.base.nodeLabelNames) + len(d.nodeLabelNames))
	d.nodeLabelIDs[label] = id
	d.nodeLabelNames = append(d.nodeLabelNames, label)
	return id
}

// AddNode appends a node with the given label and returns its ID, which
// extends the base's dense ID space.
func (d *Delta) AddNode(label string) NodeID {
	id := NodeID(d.baseN() + len(d.nodes))
	d.nodes = append(d.nodes, Node{ID: id, Label: label})
	d.nodeLabelOf = append(d.nodeLabelOf, d.internNodeLabel(label))
	d.touch(id)
	return id
}

// AddNodeWithAttrs appends a node carrying the given attribute tuple.
// The map is copied.
func (d *Delta) AddNodeWithAttrs(label string, attrs map[string]string) NodeID {
	id := d.AddNode(label)
	for k, v := range attrs {
		d.SetAttr(id, k, v)
	}
	return id
}

// NumNodes returns the overlaid ID-space size (base plus added slots,
// tombstones included), completing the Sink interface so generators can
// emit update streams straight into a delta.
func (d *Delta) NumNodes() int { return d.baseN() + len(d.nodes) }

// SetAttr sets attribute A of node v to constant value c, overriding the
// base value if one exists. For a base node the full attribute tuple is
// read out of the base on first write, so the base snapshot stays untouched.
func (d *Delta) SetAttr(v NodeID, attr, value string) {
	if !d.Alive(v) {
		panic(fmt.Sprintf("graph: Delta.SetAttr on invalid or removed node %d", v))
	}
	if int(v) >= d.baseN() {
		n := &d.nodes[int(v)-d.baseN()]
		if n.Attrs == nil {
			n.Attrs = make(map[string]string)
		}
		n.Attrs[attr] = value
		d.touch(v)
		return
	}
	m, ok := d.attrs[v]
	if !ok {
		if m = d.base.Attrs(v); m == nil {
			m = make(map[string]string, 1)
		}
		d.attrs[v] = m
	}
	m[attr] = value
	d.touch(v)
}

// edgeKey is the integer-only key of the added/removed edge sets.
type edgeKey struct {
	from, to NodeID
	label    LabelID
}

// AddEdge inserts a directed labeled edge. Like Graph.AddEdge it is
// idempotent per (from, label, to); re-adding an edge the delta removed
// cancels the removal.
func (d *Delta) AddEdge(from, to NodeID, label string) {
	if !d.Alive(from) || !d.Alive(to) {
		panic(fmt.Sprintf("graph: Delta.AddEdge with invalid or removed endpoint %d->%d", from, to))
	}
	key := edgeKey{from: from, to: to, label: d.internEdgeLabel(label)}
	if _, ok := d.removedSet[key]; ok {
		delete(d.removedSet, key)
		d.touch(from, to)
		return
	}
	if _, ok := d.addedSet[key]; ok || d.base.HasEdgeID(from, to, key.label) {
		return
	}
	d.addedSet[key] = struct{}{}
	d.touch(from, to)
}

// RemoveEdge deletes the exact (from, label, to) triple, whether it lives in
// the base or was added by the delta; absent edges are a no-op (the literal
// semantics of Graph.RemoveEdge). An edge at a dead node is already gone
// from every Refreeze, so removing it records nothing Refreeze would show.
func (d *Delta) RemoveEdge(from, to NodeID, label string) {
	if !d.valid(from) || !d.valid(to) {
		panic(fmt.Sprintf("graph: Delta.RemoveEdge with invalid endpoint %d->%d", from, to))
	}
	id := d.edgeLabelID(label)
	if id == NoLabel {
		return
	}
	key := edgeKey{from: from, to: to, label: id}
	if _, ok := d.addedSet[key]; ok {
		delete(d.addedSet, key)
		d.touch(from, to)
		return
	}
	if _, ok := d.removedSet[key]; ok || !d.base.HasEdgeID(from, to, id) {
		return
	}
	d.removedSet[key] = struct{}{}
	d.touch(from, to)
}

// RemoveNode tombstones node v with Graph.RemoveNode's semantics: every
// incident edge (base or added) is gone from the next Refreeze, attributes
// are dropped, and the node leaves all candidate and label queries while its
// ID slot stays in the dense space. The incident edges are not recorded one
// by one: Refreeze drops every edge with a dead endpoint. No-op when v is
// already dead.
func (d *Delta) RemoveNode(v NodeID) {
	if !d.valid(v) {
		panic(fmt.Sprintf("graph: Delta.RemoveNode on invalid node %d", v))
	}
	if !d.Alive(v) {
		return
	}
	d.touch(v)
	if int(v) < d.baseN() {
		delete(d.attrs, v)
	} else {
		d.nodes[int(v)-d.baseN()].Attrs = nil
	}
	d.dead[v] = struct{}{}
}

// Label returns the label of node v across base and added nodes
// (tombstoned nodes keep their label, like Graph.RemoveNode).
func (d *Delta) Label(v NodeID) string {
	if i := int(v) - d.baseN(); i >= 0 {
		return d.nodes[i].Label
	}
	return d.base.Label(v)
}

// TouchedSince returns the ascending set of nodes the mutations since
// version v (0 is the base) logged: both endpoints of every edge edit, every
// attribute-updated, added and tombstoned node. Between the delta's state at
// v and its current state, it therefore holds every node whose attributes
// or liveness differ and an endpoint of every edge that differs — an edge
// lost to a tombstone has the dead node. That is the seed set incremental
// revalidation needs: a match whose image avoids it reads the same edges
// and attributes in both states. It may hold more (an edit cancelled later
// stays logged); v must be a version of this delta.
func (d *Delta) TouchedSince(v int) []NodeID {
	out := slices.Clone(d.log[v:])
	slices.Sort(out)
	return slices.Compact(out)
}

// Len returns the number of recorded update operations in final-state form:
// added nodes, added edges and removed base edges as recorded, removed
// nodes, attribute overrides. A removed node counts once: its incident edges
// are not listed one by one, and an edge recorded at a node before its
// removal still counts until RemoveEdge cancels it.
func (d *Delta) Len() int {
	return len(d.nodes) + len(d.addedSet) + len(d.removedSet) + len(d.dead) + len(d.attrs)
}

// String summarizes the delta for logs, counting as Len does.
func (d *Delta) String() string {
	return fmt.Sprintf("Delta{+V=%d, -V=%d, +E=%d, -E=%d, attrs=%d}",
		len(d.nodes), len(d.dead), len(d.addedSet), len(d.removedSet), len(d.attrs))
}

// row is one touched node's merged adjacency in one direction, in the form
// csrDir.appendRow writes: csrKeys in the CSR's (label, endpoint) order,
// and the same endpoints ascending for the wildcard view.
type row struct {
	v    NodeID
	keys []uint64
	all  []NodeID
}

// edit is one edge edit as a row of one direction sees it: the node whose
// row it lands in and the csrKey of the other endpoint.
type edit struct {
	v NodeID
	k uint64
}

// edits returns the edits of one edge set as the rows of one direction see
// them, sorted by (node, key), for the rows keep marks. Edges with a dead
// endpoint are left out: Refreeze drops those whatever the sets say.
func edits(set map[edgeKey]struct{}, out bool, dead, keep []bool) []edit {
	es := make([]edit, 0, len(set))
	for k := range set {
		v, u := k.from, k.to
		if !out {
			v, u = u, v
		}
		if !keep[v] || dead != nil && (dead[v] || dead[u]) {
			continue
		}
		es = append(es, edit{v, csrKey(k.label, u)})
	}
	slices.SortFunc(es, func(a, b edit) int {
		if a.v != b.v {
			return cmp.Compare(a.v, b.v)
		}
		return cmp.Compare(a.k, b.k)
	})
	return es
}

// dirRows merges the delta into the base rows of one direction (out, or in
// when !out) and returns the rows of the given nodes (ascending) in order.
// Only their edits are sorted; each base row is then merged with its edits
// in one linear pass that skips removed keys and dead endpoints, and so is
// its wildcard view. A dead node's row is empty.
func (d *Delta) dirRows(out bool, touched []NodeID) []row {
	base := &d.base.out
	if !out {
		base = &d.base.in
	}
	var dead []bool
	if len(d.dead) > 0 {
		dead = make([]bool, d.NumNodes())
		for v := range d.dead {
			dead[v] = true
		}
	}
	keep := make([]bool, d.NumNodes())
	for _, v := range touched {
		keep[v] = true
	}
	adds := edits(d.addedSet, out, dead, keep)
	dels := edits(d.removedSet, out, dead, keep)

	// One backing array per view: a merged row holds at most its base row
	// plus its adds.
	size := len(adds)
	for _, v := range touched {
		if int(v) < d.baseN() {
			size += int(base.off[v+1] - base.off[v])
		}
	}
	keys := make([]uint64, 0, size)
	all := make([]NodeID, 0, size)
	rows := make([]row, 0, len(touched))
	var addT, delT []NodeID
	for _, v := range touched {
		na, nd := 0, 0
		for na < len(adds) && adds[na].v == v {
			na++
		}
		for nd < len(dels) && dels[nd].v == v {
			nd++
		}
		rowAdds, rowDels := adds[:na], dels[:nd]
		adds, dels = adds[na:], dels[nd:]
		if dead != nil && dead[v] {
			rows = append(rows, row{v: v})
			continue
		}
		var baseAll []NodeID
		if int(v) < d.baseN() {
			baseAll = base.all[base.off[v]:base.off[v+1]]
		}

		// (label, endpoint) order. Removed keys are base keys in the same
		// order, so the next one is due exactly when the base reaches it.
		ks, ai, di := len(keys), 0, 0
		if baseAll != nil {
			base.forEachRun(v, func(l LabelID, targets []NodeID) {
				for _, t := range targets {
					k := csrKey(l, t)
					for ai < len(rowAdds) && rowAdds[ai].k < k {
						keys = append(keys, rowAdds[ai].k)
						ai++
					}
					if di < len(rowDels) && rowDels[di].k == k {
						di++
					} else if dead == nil || !dead[t] {
						keys = append(keys, k)
					}
				}
			})
		}
		for _, e := range rowAdds[ai:] {
			keys = append(keys, e.k)
		}

		// Endpoint order: the base run minus one occurrence per removed
		// edge and every dead endpoint, merged with the added endpoints.
		addT, delT = addT[:0], delT[:0]
		for _, e := range rowAdds {
			addT = append(addT, NodeID(uint32(e.k)))
		}
		for _, e := range rowDels {
			delT = append(delT, NodeID(uint32(e.k)))
		}
		slices.Sort(addT)
		slices.Sort(delT)
		as, ai, di := len(all), 0, 0
		for _, t := range baseAll {
			if di < len(delT) && delT[di] == t {
				di++
				continue
			}
			if dead != nil && dead[t] {
				continue
			}
			for ai < len(addT) && addT[ai] <= t {
				all = append(all, addT[ai])
				ai++
			}
			all = append(all, t)
		}
		all = append(all, addT[ai:]...)
		rows = append(rows, row{v: v, keys: keys[ks:], all: all[as:]})
	}
	return rows
}

// Overlay returns the snapshot of base+delta as it stands, built once per
// delta version and shared by every call until the next mutation. The first
// is the delta's Refreeze; each later one is laid out over the overlay
// before it (see refreezeFrom). Like any Frozen it stays valid after the
// delta mutates and keeps serving the state it was taken at; a later
// Overlay is a new snapshot, a different *Frozen.
func (d *Delta) Overlay() *Overlay {
	if d.overlay == nil || d.overlayVersion != d.Version() {
		src, since := d.base, 0
		if d.overlay != nil {
			src, since = d.overlay, d.overlayVersion
		}
		d.overlay, d.overlayVersion = d.refreezeFrom(src, since), d.Version()
	}
	return d.overlay
}

// Overlay is the snapshot Delta.Overlay returns, a plain Frozen.
type Overlay = Frozen
