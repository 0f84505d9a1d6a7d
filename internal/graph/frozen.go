// Freeze-time CSR snapshots: the one index a graph has. The Builder appends
// edges unsorted in O(1) each, and Freeze sorts once per node (O(E log deg)
// total) into compressed sparse rows, yielding an immutable snapshot that
// serves the whole Reader API from a handful of flat arrays. The editable
// Graph keeps no index of its own: it reads through the snapshot Graph.Frozen
// builds this way (graph.go).
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// Builder accumulates nodes and edges for a Frozen snapshot. Unlike
// Graph.AddEdge, Builder.AddEdge is O(1): no index maintenance, no
// duplicate suppression (duplicates are collapsed at Freeze, preserving
// AddEdge's idempotence per (from, label, to)). The zero value is not
// usable; construct with NewBuilder.
type Builder struct {
	nodeLabelIDs   map[string]LabelID
	nodeLabelNames []string
	nodeLabelOf    []LabelID
	labelIDs       map[string]LabelID
	labelNames     []string
	from, to       []NodeID
	lab            []LabelID
	// Attributes as SetAttr recorded them, in call order: the node, and the
	// (name, value) pair by ID. Freeze sorts them into rows.
	attrNode      []NodeID
	attrPairs     []uint64
	names, values *strTable
	frozen        bool
}

// NewBuilder returns an empty builder, optionally pre-sizing its edge
// arrays for the expected edge count (0 is fine).
func NewBuilder(edgeHint int) *Builder {
	b := &Builder{
		nodeLabelIDs: make(map[string]LabelID),
		labelIDs:     make(map[string]LabelID),
		names:        newLayer(nil),
		values:       newLayer(nil),
	}
	if edgeHint > 0 {
		b.from = make([]NodeID, 0, edgeHint)
		b.to = make([]NodeID, 0, edgeHint)
		b.lab = make([]LabelID, 0, edgeHint)
	}
	return b
}

// AddNode appends a node with the given label and returns its ID.
func (b *Builder) AddNode(label string) NodeID {
	if b.frozen {
		panic("graph: Builder.AddNode after Freeze")
	}
	id := NodeID(len(b.nodeLabelOf))
	lid, ok := b.nodeLabelIDs[label]
	if !ok {
		lid = LabelID(len(b.nodeLabelNames))
		b.nodeLabelIDs[label] = lid
		b.nodeLabelNames = append(b.nodeLabelNames, label)
	}
	b.nodeLabelOf = append(b.nodeLabelOf, lid)
	return id
}

// AddNodeWithAttrs appends a node carrying the given attribute tuple.
// The map is copied.
func (b *Builder) AddNodeWithAttrs(label string, attrs map[string]string) NodeID {
	id := b.AddNode(label)
	for k, v := range attrs {
		b.SetAttr(id, k, v)
	}
	return id
}

// SetAttr sets attribute A of node v to constant value c.
func (b *Builder) SetAttr(v NodeID, attr, value string) {
	if b.frozen {
		panic("graph: Builder.SetAttr after Freeze")
	}
	if v < 0 || int(v) >= b.NumNodes() {
		panic(fmt.Sprintf("graph: Builder.SetAttr on invalid node %d", v))
	}
	b.attrNode = append(b.attrNode, v)
	b.attrPairs = append(b.attrPairs, attrKey(AttrID(b.names.intern(attr)), ValueID(b.values.intern(value))))
}

// AddEdge appends a directed labeled edge in O(1). Duplicate
// (from, label, to) triples are tolerated and collapsed at Freeze.
func (b *Builder) AddEdge(from, to NodeID, label string) {
	if b.frozen {
		panic("graph: Builder.AddEdge after Freeze")
	}
	if n := b.NumNodes(); from < 0 || int(from) >= n || to < 0 || int(to) >= n {
		panic(fmt.Sprintf("graph: Builder.AddEdge with invalid endpoint %d->%d", from, to))
	}
	id, ok := b.labelIDs[label]
	if !ok {
		id = LabelID(len(b.labelNames))
		b.labelIDs[label] = id
		b.labelNames = append(b.labelNames, label)
	}
	b.from = append(b.from, from)
	b.to = append(b.to, to)
	b.lab = append(b.lab, id)
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodeLabelOf) }

// NumEdges returns the number of AddEdge calls so far. Duplicates are not
// yet collapsed; the Frozen snapshot's NumEdges counts distinct edges.
func (b *Builder) NumEdges() int { return len(b.from) }

// Freeze sorts the accumulated edges into an immutable CSR snapshot and
// returns it. The builder is consumed: the snapshot shares the builder's
// label and attribute tables, and further Add/Set calls panic. Total cost is
// O(V + E log deg + A log deg_A): one counting pass, one scatter, and one
// sort per node's adjacency run and attribute row.
func (b *Builder) Freeze() *Frozen {
	if b.frozen {
		panic("graph: Builder.Freeze called twice")
	}
	b.frozen = true
	n := b.NumNodes()
	f := &Frozen{
		epoch:          nextEpoch(),
		nodeLabelIDs:   b.nodeLabelIDs,
		nodeLabelNames: b.nodeLabelNames,
		nodeLabelOf:    b.nodeLabelOf,
		labelIDs:       b.labelIDs,
		labelNames:     b.labelNames,
	}
	f.out = buildCSR(n, b.from, b.to, b.lab)
	f.in = buildCSR(n, b.to, b.from, b.lab)
	f.edges = len(f.out.targets)
	b.freezeAttrs(n).into(f)

	// Nodes-by-label CSR: node IDs ascend within each label because nodes
	// are scattered in ID order.
	nl := len(b.nodeLabelNames)
	f.byLabelOff = make([]int32, nl+1)
	for _, lid := range b.nodeLabelOf {
		f.byLabelOff[lid+1]++
	}
	for i := 0; i < nl; i++ {
		f.byLabelOff[i+1] += f.byLabelOff[i]
	}
	f.byLabelNodes = make([]NodeID, n)
	next := make([]int32, nl)
	copy(next, f.byLabelOff[:nl])
	for v, lid := range b.nodeLabelOf {
		f.byLabelNodes[next[lid]] = NodeID(v)
		next[lid]++
	}
	return f
}

// freezeAttrs lays the SetAttr calls out as rows: a counting scatter by
// node that keeps call order, then per node a stable sort by name in which
// the last value set for a name wins.
func (b *Builder) freezeAttrs(n int) *attrBuilder {
	off := make([]int32, n+1)
	for _, v := range b.attrNode {
		off[v+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	pairs := make([]uint64, len(b.attrPairs))
	next := slices.Clone(off[:n])
	for i, v := range b.attrNode {
		pairs[next[v]] = b.attrPairs[i]
		next[v]++
	}
	r := &attrBuilder{names: b.names, values: b.values, off: make([]int32, 1, n+1), rows: make([]uint64, 0, len(pairs))}
	for v := 0; v < n; v++ {
		run := pairs[off[v]:off[v+1]]
		slices.SortStableFunc(run, func(x, y uint64) int { return cmp.Compare(x>>32, y>>32) })
		for i, k := range run {
			if i+1 == len(run) || run[i+1]>>32 != k>>32 {
				r.rows = append(r.rows, k)
			}
		}
		r.off = append(r.off, int32(len(r.rows)))
	}
	return r
}

// csrKey packs (label, target) into one comparable integer so a node's
// adjacency run sorts with a single flat-array sort. This bounds Frozen
// graphs at 2^32 nodes and 2^32 edge labels — far beyond NodeID's dense-int
// practical range.
func csrKey(lab LabelID, to NodeID) uint64 {
	return uint64(uint32(lab))<<32 | uint64(uint32(to))
}

// buildCSR lays one direction of adjacency out as compressed sparse rows:
// counting sort by source node, then per-node sort by (label, target) with
// adjacent-duplicate collapse, a per-node directory of distinct-label runs,
// plus the target-sorted "all" view wildcard queries read.
func buildCSR(n int, src, dst []NodeID, lab []LabelID) csrDir {
	off := make([]int32, n+1)
	for _, s := range src {
		off[s+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	keys := make([]uint64, len(src))
	next := make([]int32, n)
	copy(next, off[:n])
	for i, s := range src {
		keys[next[s]] = csrKey(lab[i], dst[i])
		next[s]++
	}

	d := csrDir{
		off:     make([]int32, n+1),
		dirOff:  make([]int32, n+1),
		targets: make([]NodeID, 0, len(src)),
		all:     make([]NodeID, 0, len(src)),
	}
	for v := 0; v < n; v++ {
		run := keys[off[v]:off[v+1]]
		slices.Sort(run)
		start := len(d.targets)
		// Compact drops duplicate (from, label, to): AddEdge idempotence.
		d.appendRow(NodeID(v), slices.Compact(run))
		d.all = append(d.all, d.targets[start:]...)
		slices.Sort(d.all[start:])
	}
	return d
}

// appendRow writes node v's row — csrKeys ascending, duplicate-free — as
// its targets and label directory, and closes v's offsets; every row before
// v must be written already. The caller appends the same endpoints to all,
// in endpoint order. Freeze writes every row through it, Refreeze every
// touched row.
func (d *csrDir) appendRow(v NodeID, keys []uint64) {
	for _, k := range keys {
		l := LabelID(uint32(k >> 32))
		if nd := len(d.dirLabels); nd == int(d.dirOff[v]) || d.dirLabels[nd-1] != l {
			d.dirLabels = append(d.dirLabels, l)
			d.dirStart = append(d.dirStart, int32(len(d.targets)))
		}
		d.targets = append(d.targets, NodeID(uint32(k)))
	}
	d.off[v+1] = int32(len(d.targets))
	d.dirOff[v+1] = int32(len(d.dirLabels))
}

// csrDir is one direction of frozen adjacency. For node v, the half-open
// run [off[v], off[v+1]) of targets holds the endpoints sorted by
// (label, target) — each label's endpoints are a contiguous ascending
// sub-run — and the same span of all holds them sorted by target only, the
// wildcard-query view (a target repeats when parallel edges differ only in
// label). The directory run
// [dirOff[v], dirOff[v+1]) lists v's distinct labels with each sub-run's
// start offset into targets, so a label query is a short linear scan over
// distinct labels — a node's distinct incident labels are few.
type csrDir struct {
	off     []int32
	targets []NodeID
	all     []NodeID

	dirOff    []int32
	dirLabels []LabelID
	dirStart  []int32
}

// byLabel returns the ascending endpoint run for one label query.
func (d *csrDir) byLabel(v NodeID, id LabelID) []NodeID {
	switch id {
	case AnyLabel:
		return d.all[d.off[v]:d.off[v+1]]
	case NoLabel:
		return nil
	}
	dlo, dhi := int(d.dirOff[v]), int(d.dirOff[v+1])
	for i := dlo; i < dhi; i++ {
		if d.dirLabels[i] == id {
			end := d.off[v+1]
			if i+1 < dhi {
				end = d.dirStart[i+1]
			}
			return d.targets[d.dirStart[i]:end]
		}
	}
	return nil
}

// forEachRun walks node v's directory runs in ascending label order, handing
// each (label, endpoints) pair to fn. The endpoint slices alias the CSR.
func (d *csrDir) forEachRun(v NodeID, fn func(LabelID, []NodeID)) {
	dlo, dhi := int(d.dirOff[v]), int(d.dirOff[v+1])
	for i := dlo; i < dhi; i++ {
		end := d.off[v+1]
		if i+1 < dhi {
			end = d.dirStart[i+1]
		}
		fn(d.dirLabels[i], d.targets[d.dirStart[i]:end])
	}
}

// has reports whether the run for id contains target t: one directory scan
// plus a binary search, O(log deg), no hashing.
func (d *csrDir) has(v, t NodeID, id LabelID) bool {
	list := d.byLabel(v, id)
	i, j := 0, len(list)
	for i < j {
		m := int(uint(i+j) >> 1)
		if list[m] < t {
			i = m + 1
		} else {
			j = m
		}
	}
	return i < len(list) && list[i] == t
}

// Frozen is an immutable CSR snapshot of a graph, produced by
// Builder.Freeze (or Graph.Frozen). It serves the full Reader API —
// label-partitioned adjacency, O(log deg) edge probes, signature covers,
// node-label candidates — from flat arrays with no per-query allocation
// (except the documented copying accessors). Being immutable it is safe for
// concurrent readers.
type Frozen struct {
	nodeLabelIDs   map[string]LabelID
	nodeLabelNames []string
	nodeLabelOf    []LabelID
	labelIDs       map[string]LabelID
	labelNames     []string
	edges          int

	out csrDir
	in  csrDir

	byLabelOff   []int32
	byLabelNodes []NodeID

	// Attribute rows (attrs.go): node v's (name, value) ID pairs are
	// attrRows[attrOff[v]:attrOff[v+1]], ascending by name; the names and
	// values they stand for are interned in attrNames and attrValues.
	attrOff    []int32
	attrRows   []uint64
	attrNames  *strTable
	attrValues *strTable

	// dead marks tombstoned node slots (see Graph.RemoveNode and
	// Frozen.Refreeze): the ID stays in the dense node space but the node is
	// excluded from candidate enumeration and owns no edges or attributes.
	// nil for snapshots without removals — the common case pays nothing.
	dead      []bool
	deadCount int

	// epoch is the construction token (see epoch.go); bitsets the lazy
	// candidate-bitset cache (see bitset.go). Both are identity/cache
	// state, not graph content: they are never persisted, and the cache
	// mutex means a Frozen must not be copied by value.
	epoch   uint64
	bitsets bitsetCache
}

// tombstone marks the given node slots dead and drops them from the
// nodes-by-label index. Their adjacency and attribute rows must already be
// empty (its
// caller, Graph.Frozen, replays a graph whose RemoveNode dropped the
// incident edges; Refreeze keeps its own tombstones and drops the edges at
// them itself).
func (f *Frozen) tombstone(dead []bool) {
	n := 0
	for _, d := range dead {
		if d {
			n++
		}
	}
	if n == 0 {
		return
	}
	f.dead = append([]bool(nil), dead...)
	f.deadCount = n
	// Compact the nodes-by-label CSR to live nodes only.
	nodes := f.byLabelNodes[:0]
	off := make([]int32, len(f.byLabelOff))
	for l := 0; l < len(f.byLabelOff)-1; l++ {
		for _, v := range f.byLabelNodes[f.byLabelOff[l]:f.byLabelOff[l+1]] {
			if !dead[v] {
				nodes = append(nodes, v)
			}
		}
		off[l+1] = int32(len(nodes))
	}
	f.byLabelNodes = nodes
	f.byLabelOff = off
}

// Alive reports whether v is a valid, non-tombstoned node.
func (f *Frozen) Alive(v NodeID) bool {
	return f.valid(v) && (f.dead == nil || !f.dead[v])
}

// LiveNodes returns the number of non-tombstoned nodes (NumNodes counts the
// dense ID space, which retains removed slots).
func (f *Frozen) LiveNodes() int { return f.NumNodes() - f.deadCount }

func (f *Frozen) valid(v NodeID) bool { return v >= 0 && int(v) < len(f.nodeLabelOf) }

// NumNodes returns |V|.
func (f *Frozen) NumNodes() int { return len(f.nodeLabelOf) }

// NumEdges returns |E| (distinct (from, label, to) triples).
func (f *Frozen) NumEdges() int { return f.edges }

// Label returns the label of node v.
func (f *Frozen) Label(v NodeID) string { return f.nodeLabelNames[f.nodeLabelOf[v]] }

// Out returns the outgoing edges of v. The slice is synthesized per call
// (labels re-materialized as strings); hot paths use OutByLabelID.
func (f *Frozen) Out(v NodeID) []Edge {
	if !f.valid(v) {
		return nil
	}
	es := make([]Edge, 0, f.out.off[v+1]-f.out.off[v])
	f.out.forEachRun(v, func(id LabelID, targets []NodeID) {
		name := f.labelNames[id]
		for _, t := range targets {
			es = append(es, Edge{From: v, To: t, Label: name})
		}
	})
	return es
}

// EdgeLabelID resolves an edge label to its interned ID: AnyLabel for the
// Wildcard, NoLabel for labels absent from the graph.
func (f *Frozen) EdgeLabelID(label string) LabelID {
	if label == Wildcard {
		return AnyLabel
	}
	if id, ok := f.labelIDs[label]; ok {
		return id
	}
	return NoLabel
}

// NodeLabelID resolves a node label to its interned ID, with the same
// wildcard semantics as Graph.NodeLabelID.
func (f *Frozen) NodeLabelID(label string) LabelID {
	if label == Wildcard {
		return AnyLabel
	}
	if id, ok := f.nodeLabelIDs[label]; ok {
		return id
	}
	return NoLabel
}

// LabelIDOf returns the interned ID of node v's label.
func (f *Frozen) LabelIDOf(v NodeID) LabelID { return f.nodeLabelOf[v] }

// ResolveLabels maps a label list through EdgeLabelID.
func (f *Frozen) ResolveLabels(labels []string) []LabelID {
	if len(labels) == 0 {
		return nil
	}
	ids := make([]LabelID, len(labels))
	for i, l := range labels {
		ids[i] = f.EdgeLabelID(l)
	}
	return ids
}

// Labels returns the distinct node labels in deterministic order.
func (f *Frozen) Labels() []string {
	ls := append([]string(nil), f.nodeLabelNames...)
	sort.Strings(ls)
	return ls
}

// HasEdgeID reports whether edge (from,to) with the given label ID exists,
// AnyLabel matching any label: binary search within from's label run,
// O(log deg), no hashing.
func (f *Frozen) HasEdgeID(from, to NodeID, id LabelID) bool {
	if !f.valid(from) || id == NoLabel {
		return false
	}
	return f.out.has(from, to, id)
}

// OutByLabelID returns the targets of v's outgoing edges carrying the given
// label, in ascending NodeID order, with Graph.OutByLabelID's AnyLabel and
// aliasing semantics.
func (f *Frozen) OutByLabelID(v NodeID, id LabelID) []NodeID {
	if !f.valid(v) {
		return nil
	}
	return f.out.byLabel(v, id)
}

// InByLabelID returns the sources of v's incoming edges carrying the given
// label, with the same semantics as OutByLabelID.
func (f *Frozen) InByLabelID(v NodeID, id LabelID) []NodeID {
	if !f.valid(v) {
		return nil
	}
	return f.in.byLabel(v, id)
}

// nodesWithLabel returns the internal ascending run of nodes carrying
// exactly the given label.
func (f *Frozen) nodesWithLabel(label string) []NodeID {
	id, ok := f.nodeLabelIDs[label]
	if !ok {
		return nil
	}
	return f.byLabelNodes[f.byLabelOff[id]:f.byLabelOff[id+1]]
}

// AppendCandidates appends the nodes a pattern node with the given label
// may match into dst: all live nodes for the wildcard, else the nodes with
// that exact label.
func (f *Frozen) AppendCandidates(dst []NodeID, label string) []NodeID {
	if label == Wildcard {
		for i := range f.nodeLabelOf {
			if f.dead != nil && f.dead[i] {
				continue
			}
			dst = append(dst, NodeID(i))
		}
		return dst
	}
	return append(dst, f.nodesWithLabel(label)...)
}

// LabelFrequency returns the number of nodes carrying the label, with
// wildcard counting every live node.
func (f *Frozen) LabelFrequency(label string) int {
	if label == Wildcard {
		return f.LiveNodes()
	}
	return len(f.nodesWithLabel(label))
}

// CoversIDs reports whether node v's adjacency covers the resolved
// signature; see Graph.CoversIDs. Each probe is a binary
// search over v's label directory, O(|sig| log deg) total.
func (f *Frozen) CoversIDs(v NodeID, outIDs, inIDs []LabelID) bool {
	if !f.valid(v) {
		return false
	}
	for _, id := range outIDs {
		if len(f.out.byLabel(v, id)) == 0 {
			return false
		}
	}
	for _, id := range inIDs {
		if len(f.in.byLabel(v, id)) == 0 {
			return false
		}
	}
	return true
}
