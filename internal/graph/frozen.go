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
	"sync/atomic"
)

// Builder accumulates nodes and edges for a Frozen snapshot. Unlike
// Graph.AddEdge, Builder.AddEdge is O(1): no index maintenance, no
// duplicate suppression (duplicates are collapsed at Freeze, preserving
// AddEdge's idempotence per (from, label, to)). The zero value is not
// usable; construct with NewBuilder.
type Builder struct {
	nodeLabels  *strTable
	nodeLabelOf []LabelID
	edgeLabels  *strTable
	from, to    []NodeID
	lab         []LabelID
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
		nodeLabels: newLayer(nil),
		edgeLabels: newLayer(nil),
		names:      newLayer(nil),
		values:     newLayer(nil),
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
	b.nodeLabelOf = append(b.nodeLabelOf, LabelID(b.nodeLabels.intern(label)))
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
	b.from = append(b.from, from)
	b.to = append(b.to, to)
	b.lab = append(b.lab, LabelID(b.edgeLabels.intern(label)))
}

// Part is one range of a bulk load, filled on a goroutine of its own: rows
// go to its windows of the Builder's columns (Split) under IDs of string
// tables of its own, which Join maps. Node IDs are the loader's to check.
type Part struct {
	cols Builder
	rows int // each window's length
}

// AddNode, SetAttr, AddEdge and NumNodes are the Builder's, from bytes.
func (p *Part) AddNode(label []byte) {
	p.cols.nodeLabelOf = append(p.cols.nodeLabelOf, LabelID(p.cols.nodeLabels.internBytes(label)))
}

func (p *Part) SetAttr(v NodeID, attr, value []byte) {
	p.cols.attrNode = append(p.cols.attrNode, v)
	p.cols.attrPairs = append(p.cols.attrPairs, attrKey(AttrID(p.cols.names.internBytes(attr)), ValueID(p.cols.values.internBytes(value))))
}

func (p *Part) AddEdge(from, to NodeID, label []byte) {
	p.cols.from, p.cols.to = append(p.cols.from, from), append(p.cols.to, to)
	p.cols.lab = append(p.cols.lab, LabelID(p.cols.edgeLabels.internBytes(label)))
}

func (p *Part) NumNodes() int { return p.cols.NumNodes() }

// Split returns a Part per entry of rows, part k with a window of rows[k]
// edges and as many attributes, back to back past the ends of b's columns.
// A part that outgrows a window goes on in an array of its own.
func (b *Builder) Split(rows []int) []*Part {
	parts := make([]*Part, len(rows))
	for k, n := range rows {
		parts[k] = &Part{rows: n, cols: Builder{nodeLabels: newLayer(nil), edgeLabels: newLayer(nil), names: newLayer(nil), values: newLayer(nil)}}
	}
	b.columns(parts, true)
	return parts
}

// Join appends the parts' rows to b in order, as adding them to b would:
// each part's IDs map into b's tables in the order the part assigned them.
func (b *Builder) Join(parts []*Part) {
	for _, p := range parts {
		relabel(p.cols.nodeLabelOf, b.nodeLabels.join(p.cols.nodeLabels))
		b.nodeLabelOf = append(b.nodeLabelOf, p.cols.nodeLabelOf...)
		relabel(p.cols.lab, b.edgeLabels.join(p.cols.edgeLabels))
		names, values := b.names.join(p.cols.names), b.values.join(p.cols.values)
		for i, k := range p.cols.attrPairs {
			p.cols.attrPairs[i] = attrKey(AttrID(names[k>>32]), ValueID(values[uint32(k)]))
		}
	}
	b.columns(parts, false)
}

// columns cuts the parts' windows (Split) or gathers their rows (Join).
func (b *Builder) columns(parts []*Part, split bool) {
	b.from = column(b.from, parts, split, func(p *Part) *[]NodeID { return &p.cols.from })
	b.to = column(b.to, parts, split, func(p *Part) *[]NodeID { return &p.cols.to })
	b.lab = column(b.lab, parts, split, func(p *Part) *[]LabelID { return &p.cols.lab })
	b.attrNode = column(b.attrNode, parts, split, func(p *Part) *[]NodeID { return &p.cols.attrNode })
	b.attrPairs = column(b.attrPairs, parts, split, func(p *Part) *[]uint64 { return &p.cols.attrPairs })
}

// column cuts col's windows in a new array, as grown makes it: a window
// stays untouched, and so not resident, until its part fills it. Or it
// moves each window down with one copy, unless a part outgrew its window
// onto one not yet moved: then the column goes to a new array.
func column[T any](col []T, parts []*Part, split bool, rows func(*Part) *[]T) []T {
	total, end, fits := len(col), len(col), true
	for _, p := range parts {
		total, end = total+len(*rows(p)), end+p.rows
		fits = fits && total <= end
	}
	if split {
		col = grown(nil, col, end)
		at := len(col)
		for _, p := range parts {
			*rows(p), at = col[at:at:at+p.rows], at+p.rows
		}
		return col
	}
	if !fits {
		col = append(make([]T, 0, total), col...)
	}
	for _, p := range parts {
		col = append(col, *rows(p)...)
	}
	return col
}

func relabel(col []LabelID, m []uint32) {
	for i, id := range col {
		col[i] = LabelID(m[id])
	}
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
	f := &Frozen{nodeLabels: b.nodeLabels, nodeLabelOf: b.nodeLabelOf, edgeLabels: b.edgeLabels}
	f.out = buildCSR(n, b.from, b.to, b.lab)
	f.in = buildCSR(n, b.to, b.from, b.lab)
	f.edges = len(f.out.targets)
	b.freezeAttrs(n).into(f)

	f.indexLabels()
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
	r := &attrBuilder{names: b.names, values: b.values, rows: make([]span, n), keys: make([]uint64, 0, len(pairs))}
	for v := 0; v < n; v++ {
		run := pairs[off[v]:off[v+1]]
		slices.SortStableFunc(run, func(x, y uint64) int { return cmp.Compare(x>>32, y>>32) })
		lo := len(r.keys)
		for i, k := range run {
			if i+1 == len(run) || run[i+1]>>32 != k>>32 {
				r.keys = append(r.keys, k)
			}
		}
		r.rows[v] = span{int32(lo), int32(len(r.keys))}
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
		rows:    make([]rowHdr, n),
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
// its targets and label directory at the end of the storage, and points
// v's header at it. The caller appends the same endpoints to all, in
// endpoint order. Freeze writes every row through it, a refreeze every
// re-merged row.
func (d *csrDir) appendRow(v NodeID, keys []uint64) {
	h := rowHdr{lo: int32(len(d.targets)), dirLo: int32(len(d.dirLabels))}
	for _, k := range keys {
		l := LabelID(uint32(k >> 32))
		if nd := len(d.dirLabels); nd == int(h.dirLo) || d.dirLabels[nd-1] != l {
			d.dirLabels = append(d.dirLabels, l)
			d.dirStart = append(d.dirStart, int32(len(d.targets)))
		}
		d.targets = append(d.targets, NodeID(uint32(k)))
	}
	h.hi, h.dirHi = int32(len(d.targets)), int32(len(d.dirLabels))
	d.rows[v] = h
}

// rowHdr is where node v's row of one direction lies in its storage: the
// endpoints targets[lo:hi] and all[lo:hi], the label directory
// dirLabels[dirLo:dirHi] and dirStart[dirLo:dirHi].
type rowHdr struct{ lo, hi, dirLo, dirHi int32 }

// csrDir is one direction of frozen adjacency. Node v's row is where
// rows[v] says: targets holds its endpoints sorted by (label, target) —
// each label's endpoints are a contiguous ascending sub-run — and the same
// span of all holds them sorted by target only, the wildcard-query view (a
// target repeats when parallel edges differ only in label). Its directory
// lists v's distinct labels with each sub-run's start offset into targets,
// so a label query is one header load and a short linear scan over
// distinct labels — a node's distinct incident labels are few. Rows need
// not lie in node order, nor back to back: a refreeze clones the headers
// and appends the rows it re-merges to storage it shares with its source
// (refreeze.go), so the storage may hold dead entries between live rows.
type csrDir struct {
	rows      []rowHdr
	targets   []NodeID
	all       []NodeID
	dirLabels []LabelID
	dirStart  []int32
}

// byLabel returns the ascending endpoint run for one label query.
func (d *csrDir) byLabel(v NodeID, id LabelID) []NodeID {
	h := d.rows[v]
	switch id {
	case AnyLabel:
		return d.all[h.lo:h.hi]
	case NoLabel:
		return nil
	}
	for i := h.dirLo; i < h.dirHi; i++ {
		if d.dirLabels[i] == id {
			end := h.hi
			if i+1 < h.dirHi {
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
	h := d.rows[v]
	for i := h.dirLo; i < h.dirHi; i++ {
		end := h.hi
		if i+1 < h.dirHi {
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
	// Node and edge labels are interned like attribute names (attrs.go):
	// node v's label is nodeLabels' entry nodeLabelOf[v], and the CSR rows
	// hold edgeLabels' IDs.
	nodeLabels  *strTable
	nodeLabelOf []LabelID
	edgeLabels  *strTable
	edges       int

	out csrDir
	in  csrDir

	byLabelOff   []int32
	byLabelNodes []NodeID

	// Attribute rows (attrs.go): node v's (name, value) ID pairs are
	// attrKeys[attrRows[v].lo:attrRows[v].hi], ascending by name; the names
	// and values they stand for are interned in attrNames and attrValues.
	attrRows   []span
	attrKeys   []uint64
	attrNames  *strTable
	attrValues *strTable

	// dead marks tombstoned node slots (see Graph.RemoveNode and
	// Frozen.Refreeze): the ID stays in the dense node space but the node is
	// excluded from candidate enumeration and owns no edges or attributes.
	// nil for snapshots without removals — the common case pays nothing.
	dead      []bool
	deadCount int

	// bitsets and columns are the lazy candidate-bitset and attribute value
	// caches (bitset.go, attrs.go): cache state, not graph content, never
	// persisted. Their mutexes mean a Frozen is never copied by value, so
	// the *Frozen pointer is the snapshot's identity (see Reader.Snapshot).
	bitsets lazyCache[string, Bitset]
	columns lazyCache[AttrID, *AttrColumn]

	// claimed is set by the first refreeze from f, which may then append
	// to f's storage past its lengths (refreeze.go).
	claimed atomic.Bool
}

// tombstone marks the given node slots dead and drops them from the
// nodes-by-label index. Their adjacency and attribute rows must already be
// empty (its caller, Graph.Frozen, replays a graph whose RemoveNode dropped
// the incident edges).
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
	f.indexLabels()
}

// indexLabels builds the nodes-by-label CSR from the node labels and the
// tombstones: label l's live nodes, ascending by ID, are
// byLabelNodes[byLabelOff[l]:byLabelOff[l+1]]. It is the one place the
// index is derived, and ReadSnapshot holds a loaded index to it.
func (f *Frozen) indexLabels() {
	nl := int(f.nodeLabels.size())
	live := func(v int) bool { return f.dead == nil || !f.dead[v] }
	f.byLabelOff = make([]int32, nl+1)
	for v, lid := range f.nodeLabelOf {
		if live(v) {
			f.byLabelOff[lid+1]++
		}
	}
	for i := range nl {
		f.byLabelOff[i+1] += f.byLabelOff[i]
	}
	f.byLabelNodes = make([]NodeID, f.byLabelOff[nl])
	next := slices.Clone(f.byLabelOff[:nl])
	for v, lid := range f.nodeLabelOf {
		if live(v) {
			f.byLabelNodes[next[lid]] = NodeID(v)
			next[lid]++
		}
	}
}

// Alive reports whether v is a valid, non-tombstoned node.
func (f *Frozen) Alive(v NodeID) bool {
	return f.valid(v) && (f.dead == nil || !f.dead[v])
}

// LiveNodes returns the number of non-tombstoned nodes (NumNodes counts the
// dense ID space, which retains removed slots).
func (f *Frozen) LiveNodes() int { return f.NumNodes() - f.deadCount }

func (f *Frozen) valid(v NodeID) bool { return v >= 0 && int(v) < len(f.nodeLabelOf) }

// Snapshot returns f: a Frozen is its own snapshot.
func (f *Frozen) Snapshot() *Frozen { return f }

// NumNodes returns |V|.
func (f *Frozen) NumNodes() int { return len(f.nodeLabelOf) }

// NumEdges returns |E| (distinct (from, label, to) triples).
func (f *Frozen) NumEdges() int { return f.edges }

// Label returns the label of node v.
func (f *Frozen) Label(v NodeID) string { return f.nodeLabels.str(uint32(f.nodeLabelOf[v])) }

// Out returns the outgoing edges of v. The slice is synthesized per call
// (labels re-materialized as strings); hot paths use OutByLabelID.
func (f *Frozen) Out(v NodeID) []Edge {
	if !f.valid(v) {
		return nil
	}
	es := make([]Edge, 0, len(f.out.byLabel(v, AnyLabel)))
	f.out.forEachRun(v, func(id LabelID, targets []NodeID) {
		name := f.edgeLabels.str(uint32(id))
		for _, t := range targets {
			es = append(es, Edge{From: v, To: t, Label: name})
		}
	})
	return es
}

// EdgeLabelID resolves an edge label to its interned ID: AnyLabel for the
// Wildcard, NoLabel for labels absent from the graph.
func (f *Frozen) EdgeLabelID(label string) LabelID { return labelID(f.edgeLabels, label) }

// NodeLabelID resolves a node label to its interned ID, with the same
// wildcard semantics as EdgeLabelID.
func (f *Frozen) NodeLabelID(label string) LabelID { return labelID(f.nodeLabels, label) }

// labelID resolves a label in a label table: AnyLabel for the Wildcard,
// NoLabel for a label the table does not hold.
func labelID(t *strTable, label string) LabelID {
	if label == Wildcard {
		return AnyLabel
	}
	if id, ok := t.id(label); ok {
		return LabelID(id)
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
	ls := make([]string, f.nodeLabels.size())
	for id := range ls {
		ls[id] = f.nodeLabels.str(uint32(id))
	}
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
	id, ok := f.nodeLabels.id(label)
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
