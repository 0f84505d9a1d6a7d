// Delta batches: the middle tier of the snapshot lifecycle. A Frozen
// snapshot is immutable, so before this layer any update forced a full
// O(E log deg) rebuild. Delta records a small batch of updates — added
// nodes, added/removed edges, attribute rewrites, node removals — against a
// base snapshot, and Frozen.Refreeze (refreeze.go) merges it into a fresh
// CSR by copying untouched rows verbatim; Overlay is that Refreeze, cached
// per delta version. Cost tracks the delta, not the graph: a touched node's
// row is re-materialized, an untouched node's row is copied as-is.
package graph

import (
	"fmt"
	"slices"
)

// Delta is a mutable batch of updates bound to one base snapshot. Added
// nodes extend the dense ID space at base.NumNodes(); edge adds/removes keep
// final-state semantics (removing an added edge cancels the add, re-adding a
// removed base edge cancels the remove); RemoveNode tombstones a node and
// records the removal of every incident edge. The zero value is not usable;
// construct with NewDelta. A Delta is not safe for concurrent use (Overlay
// included: it caches on the delta); the snapshots taken from it are.
type Delta struct {
	base    *Frozen
	version uint64 // bumped on every mutation

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
	addOut     map[NodeID]*labelAdj
	addIn      map[NodeID]*labelAdj
	delOut     map[NodeID]*labelAdj
	delIn      map[NodeID]*labelAdj

	// dead tombstones removed nodes (base or added). attrs holds merged
	// attribute maps for updated base nodes.
	dead  map[NodeID]struct{}
	attrs map[NodeID]map[string]string

	// Materialized merged rows for every touched node, shared by every
	// Refreeze of one version; rebuilt lazily when version moves.
	rowsVersion uint64
	outRows     map[NodeID]*row
	inRows      map[NodeID]*row

	// The Overlay snapshot of overlayVersion, reused until the next mutation.
	overlayVersion uint64
	overlay        *Frozen
}

// NewDelta returns an empty delta over the base snapshot.
func NewDelta(base *Frozen) *Delta {
	return &Delta{
		base:         base,
		nodeLabelIDs: make(map[string]LabelID),
		labelIDs:     make(map[string]LabelID),
		addedSet:     make(map[edgeKey]struct{}),
		removedSet:   make(map[edgeKey]struct{}),
		addOut:       make(map[NodeID]*labelAdj),
		addIn:        make(map[NodeID]*labelAdj),
		delOut:       make(map[NodeID]*labelAdj),
		delIn:        make(map[NodeID]*labelAdj),
		dead:         make(map[NodeID]struct{}),
		attrs:        make(map[NodeID]map[string]string),
	}
}

// Base returns the snapshot the delta is bound to.
func (d *Delta) Base() *Frozen { return d.base }

func (d *Delta) bump() { d.version++ }

// baseN returns the size of the base ID space.
func (d *Delta) baseN() int { return len(d.base.nodes) }

func (d *Delta) valid(v NodeID) bool { return v >= 0 && int(v) < d.baseN()+len(d.nodes) }

// alive reports whether v is valid and not tombstoned (in the base or here).
func (d *Delta) alive(v NodeID) bool {
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
	if id, ok := d.base.labelIDs[label]; ok {
		return id
	}
	if id, ok := d.labelIDs[label]; ok {
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
	d.bump()
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
// copied on first write, so the base snapshot stays untouched.
func (d *Delta) SetAttr(v NodeID, attr, value string) {
	if !d.alive(v) {
		panic(fmt.Sprintf("graph: Delta.SetAttr on invalid or removed node %d", v))
	}
	if int(v) >= d.baseN() {
		n := &d.nodes[int(v)-d.baseN()]
		if n.Attrs == nil {
			n.Attrs = make(map[string]string)
		}
		n.Attrs[attr] = value
		d.bump()
		return
	}
	m, ok := d.attrs[v]
	if !ok {
		base := d.base.Attrs(v)
		m = make(map[string]string, len(base)+1)
		for k, c := range base {
			m[k] = c
		}
		d.attrs[v] = m
	}
	m[attr] = value
	d.bump()
}

// labelAdj is one node's edge-label-keyed list of added (or removed)
// endpoints: grouped by interned edge label, plus the flat list of all of
// them for wildcard queries. A node's distinct incident labels are few, so
// the per-label lists are found by linear scan over an int slice — no
// hashing, no per-lookup allocation. Endpoints are kept in ascending NodeID
// order, which is what buildRow merges against the base's CSR runs; `all`
// can hold the same neighbor more than once when parallel edges differ only
// in label.
type labelAdj struct {
	labels []LabelID
	lists  [][]NodeID
	all    []NodeID
}

func (a *labelAdj) add(id LabelID, n NodeID) {
	a.all = insertSorted(a.all, n)
	for i, l := range a.labels {
		if l == id {
			a.lists[i] = insertSorted(a.lists[i], n)
			return
		}
	}
	a.labels = append(a.labels, id)
	a.lists = append(a.lists, []NodeID{n})
}

// remove deletes one occurrence of n from the label's list and from the
// wildcard view. A label whose list empties keeps its (empty) slot; the
// per-node distinct-label count is small enough that compaction buys
// nothing.
func (a *labelAdj) remove(id LabelID, n NodeID) {
	a.all = removeSorted(a.all, n)
	for i, l := range a.labels {
		if l == id {
			a.lists[i] = removeSorted(a.lists[i], n)
			return
		}
	}
}

// endpoints returns the endpoints recorded for a label query, with AnyLabel
// meaning "any edge label".
func (a *labelAdj) endpoints(id LabelID) []NodeID {
	if id == AnyLabel {
		return a.all
	}
	for i, l := range a.labels {
		if l == id {
			return a.lists[i]
		}
	}
	return nil
}

// insertSorted inserts n into an ascending list (duplicates allowed). A
// delta is a small batch, so the O(len) shift of an out-of-order insert is
// never the bulk-ingest cost Builder/Freeze exist to avoid.
func insertSorted(list []NodeID, n NodeID) []NodeID {
	i, _ := slices.BinarySearch(list, n)
	return slices.Insert(list, i, n)
}

// removeSorted deletes one occurrence of n from an ascending list.
func removeSorted(list []NodeID, n NodeID) []NodeID {
	if i, found := slices.BinarySearch(list, n); found {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// edgeKey is the integer-only key of the added/removed edge sets.
type edgeKey struct {
	from, to NodeID
	label    LabelID
}

// adjOf returns the labelAdj for v in m, allocating on first use.
func adjOf(m map[NodeID]*labelAdj, v NodeID) *labelAdj {
	a := m[v]
	if a == nil {
		a = &labelAdj{}
		m[v] = a
	}
	return a
}

// AddEdge inserts a directed labeled edge. Like Graph.AddEdge it is
// idempotent per (from, label, to); re-adding an edge the delta removed
// cancels the removal.
func (d *Delta) AddEdge(from, to NodeID, label string) {
	if !d.alive(from) || !d.alive(to) {
		panic(fmt.Sprintf("graph: Delta.AddEdge with invalid or removed endpoint %d->%d", from, to))
	}
	id := d.internEdgeLabel(label)
	key := edgeKey{from: from, to: to, label: id}
	if _, ok := d.removedSet[key]; ok {
		delete(d.removedSet, key)
		d.delOut[from].remove(id, to)
		d.delIn[to].remove(id, from)
		d.bump()
		return
	}
	if _, ok := d.addedSet[key]; ok {
		return
	}
	if d.base.HasEdgeID(from, to, id) {
		return
	}
	d.addedSet[key] = struct{}{}
	adjOf(d.addOut, from).add(id, to)
	adjOf(d.addIn, to).add(id, from)
	d.bump()
}

// RemoveEdge deletes the exact (from, label, to) triple, whether it lives in
// the base or was added by the delta; absent edges are a no-op (the literal
// semantics of Graph.RemoveEdge).
func (d *Delta) RemoveEdge(from, to NodeID, label string) {
	if !d.valid(from) || !d.valid(to) {
		panic(fmt.Sprintf("graph: Delta.RemoveEdge with invalid endpoint %d->%d", from, to))
	}
	id := d.edgeLabelID(label)
	if id == NoLabel {
		return
	}
	d.removeEdgeID(from, to, id)
}

func (d *Delta) removeEdgeID(from, to NodeID, id LabelID) {
	key := edgeKey{from: from, to: to, label: id}
	if _, ok := d.addedSet[key]; ok {
		delete(d.addedSet, key)
		d.addOut[from].remove(id, to)
		d.addIn[to].remove(id, from)
		d.bump()
		return
	}
	if _, ok := d.removedSet[key]; ok {
		return
	}
	if !d.base.HasEdgeID(from, to, id) {
		return
	}
	d.removedSet[key] = struct{}{}
	adjOf(d.delOut, from).add(id, to)
	adjOf(d.delIn, to).add(id, from)
	d.bump()
}

// RemoveNode tombstones node v with Graph.RemoveNode's semantics: every
// incident edge (base or added) is removed, attributes are dropped, and the
// node leaves all candidate and label queries while its ID slot stays in the
// dense space. No-op when v is already dead.
func (d *Delta) RemoveNode(v NodeID) {
	if !d.valid(v) {
		panic(fmt.Sprintf("graph: Delta.RemoveNode on invalid node %d", v))
	}
	if !d.alive(v) {
		return
	}
	// Added edges touching v, both directions.
	dropAdded := func(own map[NodeID]*labelAdj, out bool) {
		a := own[v]
		if a == nil {
			return
		}
		type pe struct {
			id LabelID
			n  NodeID
		}
		var pairs []pe
		for i, l := range a.labels {
			for _, n := range a.lists[i] {
				pairs = append(pairs, pe{l, n})
			}
		}
		for _, p := range pairs {
			if out {
				d.removeEdgeID(v, p.n, p.id)
			} else {
				d.removeEdgeID(p.n, v, p.id)
			}
		}
	}
	dropAdded(d.addOut, true)
	dropAdded(d.addIn, false)
	// Base edges at v, both directions.
	if int(v) < d.baseN() {
		d.base.out.forEachRun(v, func(id LabelID, targets []NodeID) {
			for _, t := range targets {
				d.removeEdgeID(v, t, id)
			}
		})
		d.base.in.forEachRun(v, func(id LabelID, sources []NodeID) {
			for _, s := range sources {
				if s != v { // self-loops already removed in the out pass
					d.removeEdgeID(s, v, id)
				}
			}
		})
		delete(d.attrs, v)
	} else {
		d.nodes[int(v)-d.baseN()].Attrs = nil
	}
	d.dead[v] = struct{}{}
	d.bump()
}

// Alive reports whether v is a valid node not tombstoned by the base or the
// delta.
func (d *Delta) Alive(v NodeID) bool { return d.alive(v) }

// Label returns the label of node v across base and added nodes
// (tombstoned nodes keep their label, like Graph.RemoveNode).
func (d *Delta) Label(v NodeID) string {
	if i := int(v) - d.baseN(); i >= 0 {
		return d.nodes[i].Label
	}
	return d.base.Label(v)
}

// TouchedNodes returns the ascending set of nodes the delta touches:
// endpoints of added and removed edges, attribute-updated nodes, tombstoned
// nodes, and added nodes. This is the seed set incremental revalidation
// scopes its re-enumeration to.
func (d *Delta) TouchedNodes() []NodeID {
	seen := make(map[NodeID]struct{})
	for v := range d.addOut {
		seen[v] = struct{}{}
	}
	for v := range d.addIn {
		seen[v] = struct{}{}
	}
	for v := range d.delOut {
		seen[v] = struct{}{}
	}
	for v := range d.delIn {
		seen[v] = struct{}{}
	}
	for v := range d.attrs {
		seen[v] = struct{}{}
	}
	for v := range d.dead {
		seen[v] = struct{}{}
	}
	for i := range d.nodes {
		seen[NodeID(d.baseN()+i)] = struct{}{}
	}
	out := make([]NodeID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// Len returns the number of recorded update operations in final-state form:
// added nodes and edges, removed base edges and nodes, attribute overrides.
func (d *Delta) Len() int {
	return len(d.nodes) + len(d.addedSet) + len(d.removedSet) + len(d.dead) + len(d.attrs)
}

// String summarizes the delta for logs.
func (d *Delta) String() string {
	return fmt.Sprintf("Delta{+V=%d, -V=%d, +E=%d, -E=%d, attrs=%d}",
		len(d.nodes), len(d.dead), len(d.addedSet), len(d.removedSet), len(d.attrs))
}

// row is one touched node's merged adjacency in one direction: the base run
// minus removals, plus additions, in the CSR's (label, target) order.
type row struct {
	labels []LabelID  // ascending distinct
	lists  [][]NodeID // aligned with labels; each ascending, duplicate-free
	all    []NodeID   // ascending by target; repeats across parallel labels
	total  int
}

// sortedLabels returns a labelAdj's label IDs in ascending order with their
// list indexes. Insertion sort: a node's distinct labels are few, and this
// runs once per touched row — a closure-based sort would dominate it.
func sortedLabels(a *labelAdj) []int {
	if a == nil {
		return nil
	}
	idx := make([]int, len(a.labels))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && a.labels[idx[j]] < a.labels[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

// subtractSorted compacts ascending base to the elements not present in the
// ascending removal list (both duplicate-free), appending into dst.
func subtractSorted(dst, base, del []NodeID) []NodeID {
	j := 0
	for _, n := range base {
		for j < len(del) && del[j] < n {
			j++
		}
		if j < len(del) && del[j] == n {
			continue
		}
		dst = append(dst, n)
	}
	return dst
}

// mergeSorted merges two ascending duplicate-free lists into dst.
func mergeSorted(dst, a, b []NodeID) []NodeID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// mergeAll writes (baseAll minus delAll) merged with addAll into dst, all
// three ascending by target with multiset semantics: each removed edge
// cancels one occurrence of its target (occurrences of a target are
// value-identical, so which one is immaterial). One linear pass — no sort.
func mergeAll(dst, baseAll, delAll, addAll []NodeID) []NodeID {
	j, k := 0, 0
	for _, n := range baseAll {
		for j < len(delAll) && delAll[j] < n {
			j++
		}
		if j < len(delAll) && delAll[j] == n {
			j++
			continue
		}
		for k < len(addAll) && addAll[k] <= n {
			dst = append(dst, addAll[k])
			k++
		}
		dst = append(dst, n)
	}
	return append(dst, addAll[k:]...)
}

// buildRow materializes one touched node's merged adjacency. v may be an
// added node (no base run). Every input list is already sorted — base runs
// by (label, target), the delta's labelAdjs per label and by target — so
// the merge is linear per label and the wildcard view is a three-way linear
// merge, O(row) total with two allocations (the shared list backing and the
// wildcard view).
func buildRow(base *csrDir, v NodeID, baseValid bool, add, del *labelAdj) *row {
	r := &row{}
	addIdx := sortedLabels(add)
	baseLen, addLen := 0, 0
	var baseAll []NodeID
	if baseValid {
		baseLen = int(base.off[v+1] - base.off[v])
		baseAll = base.all[base.off[v]:base.off[v+1]]
	}
	if add != nil {
		addLen = len(add.all)
	}
	// One backing buffer for every per-label list: the merged total is
	// bounded by baseLen+addLen (removals only shrink), so the sub-slices
	// handed out below never move. The label directory is likewise bounded
	// by the base directory plus the added labels.
	maxLabels := len(addIdx)
	if baseValid {
		maxLabels += int(base.dirOff[v+1] - base.dirOff[v])
	}
	r.labels = make([]LabelID, 0, maxLabels)
	r.lists = make([][]NodeID, 0, maxLabels)
	buf := make([]NodeID, 0, baseLen+addLen)
	emit := func(id LabelID, list []NodeID) {
		if len(list) == 0 {
			return
		}
		r.labels = append(r.labels, id)
		r.lists = append(r.lists, list)
		r.total += len(list)
	}
	ai := 0
	emitAdded := func(idx int) {
		start := len(buf)
		buf = append(buf, add.lists[idx]...)
		emit(add.labels[idx], buf[start:len(buf):len(buf)])
	}
	if baseValid {
		base.forEachRun(v, func(id LabelID, targets []NodeID) {
			// Added labels strictly below the base label come first.
			for ai < len(addIdx) && add.labels[addIdx[ai]] < id {
				emitAdded(addIdx[ai])
				ai++
			}
			var delList []NodeID
			if del != nil {
				delList = del.endpoints(id)
			}
			if ai < len(addIdx) && add.labels[addIdx[ai]] == id {
				start := len(buf)
				if len(delList) == 0 {
					buf = mergeSorted(buf, targets, add.lists[addIdx[ai]])
				} else {
					buf = mergeAll(buf, targets, delList, add.lists[addIdx[ai]])
				}
				ai++
				emit(id, buf[start:len(buf):len(buf)])
			} else if len(delList) == 0 {
				// Label untouched inside a touched row: alias the immutable
				// base run instead of copying it.
				emit(id, targets)
			} else {
				start := len(buf)
				buf = subtractSorted(buf, targets, delList)
				emit(id, buf[start:len(buf):len(buf)])
			}
		})
	}
	for ; ai < len(addIdx); ai++ {
		emitAdded(addIdx[ai])
	}
	var delAll []NodeID
	if del != nil {
		delAll = del.all
	}
	var addAll []NodeID
	if add != nil {
		addAll = add.all
	}
	r.all = mergeAll(make([]NodeID, 0, r.total), baseAll, delAll, addAll)
	return r
}

// rows materializes the merged adjacency of every touched node in both
// directions, cached until the delta mutates again.
func (d *Delta) rows() (out, in map[NodeID]*row) {
	if d.outRows != nil && d.rowsVersion == d.version {
		return d.outRows, d.inRows
	}
	build := func(add, del map[NodeID]*labelAdj, base *csrDir) map[NodeID]*row {
		rows := make(map[NodeID]*row, len(add)+len(del))
		touch := func(v NodeID) {
			if _, ok := rows[v]; ok {
				return
			}
			rows[v] = buildRow(base, v, int(v) < d.baseN(), add[v], del[v])
		}
		for v := range add {
			touch(v)
		}
		for v := range del {
			touch(v)
		}
		return rows
	}
	d.outRows = build(d.addOut, d.delOut, &d.base.out)
	d.inRows = build(d.addIn, d.delIn, &d.base.in)
	d.rowsVersion = d.version
	return d.outRows, d.inRows
}

// Overlay returns the snapshot of base+delta as it stands: the Refreeze of
// the delta, built once per delta version and shared by every call until
// the next mutation. Like any Frozen it stays valid after the delta mutates
// and keeps serving the state it was taken at; a later Overlay is a new
// snapshot with its own epoch.
func (d *Delta) Overlay() *Overlay {
	if d.overlay == nil || d.overlayVersion != d.version {
		d.overlay, d.overlayVersion = d.base.Refreeze(d), d.version
	}
	return d.overlay
}

// Overlay is the snapshot Delta.Overlay returns, a plain Frozen.
type Overlay = Frozen
