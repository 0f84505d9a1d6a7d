// Package graph implements directed labeled property graphs as defined in
// Section II of "Parallel Reasoning of Graph Functional Dependencies"
// (Fan, Liu, Cao; ICDE 2018).
//
// A graph G = (V, E, L, F_A) has a finite node set V, directed labeled edges
// E ⊆ V×V, a label L(v) ∈ Γ per node and L(e) per edge, and for each node a
// finite tuple F_A(v) of attribute/constant pairs carrying content, as in
// property graphs.
package graph

import (
	"fmt"
	"sort"
	"strings"
)

// NodeID identifies a node within a Graph. IDs are dense indexes assigned in
// insertion order, which makes them usable as slice offsets throughout the
// reasoning code.
type NodeID int

// InvalidNode is returned by lookups that find no node.
const InvalidNode NodeID = -1

// Wildcard is the reserved label '_' that, in patterns, matches any label.
// In data graphs (including canonical graphs) it behaves as an ordinary
// label: only a wildcard pattern node can match a wildcard data node.
const Wildcard = "_"

// Edge is a directed labeled edge between two nodes.
type Edge struct {
	From  NodeID
	To    NodeID
	Label string
}

// Node is a labeled node with an attribute tuple. Attrs maps attribute names
// to constant values; absence of a key means the node does not carry that
// attribute (graphs are schemaless).
type Node struct {
	ID    NodeID
	Label string
	Attrs map[string]string
}

// LabelID is an edge label interned to a dense small integer. Interning
// keeps string hashing out of the matching hot path: every per-edge probe
// (HasEdgeID, OutByLabelID, InByLabelID) works on integers only. Resolve a
// string label once with EdgeLabelID, then probe by ID.
type LabelID int32

const (
	// AnyLabel is the LabelID of the Wildcard query: it matches every edge
	// label.
	AnyLabel LabelID = -1
	// NoLabel is returned by EdgeLabelID for labels no edge of the graph
	// carries; every probe with it finds nothing.
	NoLabel LabelID = -2
)

// labelAdj is one node's edge-label-keyed adjacency index: the neighbor
// endpoints grouped by interned edge label, plus the flat list of all
// endpoints for wildcard queries. A node's distinct incident labels are few,
// so the per-label lists are found by linear scan over an int slice — no
// hashing, no per-lookup allocation. Endpoints are kept in ascending NodeID
// order, so consumers can intersect two lists with a linear merge and test
// membership by binary search; `all` can hold the same neighbor more than
// once when parallel edges differ only in label.
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

// removeSorted deletes one occurrence of n from an ascending list.
func removeSorted(list []NodeID, n NodeID) []NodeID {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= n })
	if i == len(list) || list[i] != n {
		return list
	}
	copy(list[i:], list[i+1:])
	return list[:len(list)-1]
}

// containsSorted reports whether an ascending list contains n (binary
// search; lists with duplicates work too).
func containsSorted(list []NodeID, n NodeID) bool {
	i := sort.Search(len(list), func(i int) bool { return list[i] >= n })
	return i < len(list) && list[i] == n
}

// insertSorted inserts n into an ascending list (duplicates allowed). The
// tail fast path helps when endpoints arrive in ascending ID order (e.g.
// in-lists during a Clone replay); arbitrary-order ingest pays an O(len)
// shift, making index construction O(deg) per edge at a hub — acceptable
// for small or incremental workloads. Bulk loads use Builder/Freeze
// instead, which appends in O(1) and sorts once (see frozen.go and
// DESIGN.md's two-representation storage layer).
func insertSorted(list []NodeID, n NodeID) []NodeID {
	if len(list) == 0 || list[len(list)-1] <= n {
		return append(list, n)
	}
	i := sort.Search(len(list), func(i int) bool { return list[i] > n })
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = n
	return list
}

// endpoints returns the indexed endpoints for a label query, with AnyLabel
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

// edgeKey is the integer-only key of the exact-edge existence set.
type edgeKey struct {
	from, to NodeID
	label    LabelID
}

// pair keys the (from,to) edge-existence set backing wildcard HasEdgeID.
type pair struct{ from, to NodeID }

// Graph is a mutable directed labeled property graph. The zero value is not
// usable; construct with New.
type Graph struct {
	nodes []Node
	out   [][]Edge // adjacency by source
	in    [][]Edge // adjacency by target
	// outIdx/inIdx are the per-node label-keyed adjacency indexes behind
	// OutByLabelID/InByLabelID, maintained incrementally by AddEdge.
	outIdx []labelAdj
	inIdx  []labelAdj
	// labelIDs/labelNames intern edge labels to dense LabelIDs;
	// nodeLabelIDs/nodeLabelOf do the same for node labels (nodeLabelOf is
	// per-node, parallel to nodes).
	labelIDs     map[string]LabelID
	labelNames   []string
	nodeLabelIDs map[string]LabelID
	nodeLabelOf  []LabelID
	// edgeSet/pairSet answer HasEdgeID in O(1): exact (from,label,to)
	// membership and label-oblivious (from,to) membership respectively.
	edgeSet map[edgeKey]struct{}
	pairSet map[pair]struct{}
	// byLabel indexes node IDs by label for selectivity estimation and
	// candidate enumeration during matching.
	byLabel map[string][]NodeID
	edges   int
	// dead marks tombstoned nodes (see RemoveNode): the ID slot stays in the
	// dense node space, but the node is excluded from candidate enumeration
	// and carries no edges or attributes. nil until the first removal, so
	// graphs that never remove pay nothing.
	dead      []bool
	deadCount int
	// version counts mutating calls (see Version in epoch.go): derived
	// artifacts pin (pointer, version) to detect mutation underneath them.
	// Bumped at the top of each mutator, so a no-op mutation (duplicate
	// AddEdge, absent RemoveEdge) still advances it — conservative in the
	// safe direction.
	version uint64
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		labelIDs:     make(map[string]LabelID),
		nodeLabelIDs: make(map[string]LabelID),
		edgeSet:      make(map[edgeKey]struct{}),
		pairSet:      make(map[pair]struct{}),
		byLabel:      make(map[string][]NodeID),
	}
}

// EdgeLabelID resolves an edge label to its interned ID: AnyLabel for the
// Wildcard, NoLabel for labels absent from the graph. Callers on a hot path
// resolve once and then probe with the ID-based accessors. IDs are assigned
// in first-insertion order and remain valid for the graph's lifetime, but
// do not transfer across graphs (Clone and Subgraph re-intern).
func (g *Graph) EdgeLabelID(label string) LabelID {
	if label == Wildcard {
		return AnyLabel
	}
	if id, ok := g.labelIDs[label]; ok {
		return id
	}
	return NoLabel
}

// internEdgeLabel returns the ID for a data edge label, allocating one on
// first use. Unlike EdgeLabelID it interns the literal Wildcard too: a data
// edge labeled '_' is an ordinary edge that happens to carry that label and
// is only ever *queried* through wildcard semantics.
func (g *Graph) internEdgeLabel(label string) LabelID {
	if id, ok := g.labelIDs[label]; ok {
		return id
	}
	id := LabelID(len(g.labelNames))
	g.labelIDs[label] = id
	g.labelNames = append(g.labelNames, label)
	return id
}

// AddNode inserts a node with the given label and returns its ID.
func (g *Graph) AddNode(label string) NodeID {
	g.version++
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Label: label})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.outIdx = append(g.outIdx, labelAdj{})
	g.inIdx = append(g.inIdx, labelAdj{})
	lid, ok := g.nodeLabelIDs[label]
	if !ok {
		lid = LabelID(len(g.nodeLabelIDs))
		g.nodeLabelIDs[label] = lid
	}
	g.nodeLabelOf = append(g.nodeLabelOf, lid)
	g.byLabel[label] = append(g.byLabel[label], id)
	if g.dead != nil {
		g.dead = append(g.dead, false)
	}
	return id
}

// NodeLabelID resolves a node label to its interned ID: AnyLabel for the
// Wildcard pattern label (which matches every node), NoLabel for labels no
// node carries. Pair with LabelIDOf for integer-only label tests on hot
// paths. IDs do not transfer across graphs.
func (g *Graph) NodeLabelID(label string) LabelID {
	if label == Wildcard {
		return AnyLabel
	}
	if id, ok := g.nodeLabelIDs[label]; ok {
		return id
	}
	return NoLabel
}

// LabelIDOf returns the interned ID of node v's label.
func (g *Graph) LabelIDOf(v NodeID) LabelID { return g.nodeLabelOf[v] }

// AddNodeWithAttrs inserts a node carrying the given attribute tuple.
// The map is copied.
func (g *Graph) AddNodeWithAttrs(label string, attrs map[string]string) NodeID {
	id := g.AddNode(label)
	for k, v := range attrs {
		g.SetAttr(id, k, v)
	}
	return id
}

// AddEdge inserts a directed labeled edge. Multi-edges with distinct labels
// are allowed; inserting the exact same (from,to,label) twice is idempotent.
// Tombstoned endpoints are rejected: a removed node never regains edges
// (matching Delta.AddEdge, and the invariant Frozen tombstones rely on).
func (g *Graph) AddEdge(from, to NodeID, label string) {
	if !g.Alive(from) || !g.Alive(to) {
		panic(fmt.Sprintf("graph: AddEdge with invalid or removed endpoint %d->%d", from, to))
	}
	g.version++
	id := g.internEdgeLabel(label)
	key := edgeKey{from: from, to: to, label: id}
	if _, dup := g.edgeSet[key]; dup {
		return
	}
	g.edgeSet[key] = struct{}{}
	g.pairSet[pair{from, to}] = struct{}{}
	e := Edge{From: from, To: to, Label: label}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
	g.outIdx[from].add(id, to)
	g.inIdx[to].add(id, from)
	g.edges++
}

// RemoveEdge deletes the exact (from, label, to) triple if present. The
// label is taken literally (no wildcard semantics: removing '_' removes only
// an edge labeled '_'); absent edges are a no-op, mirroring AddEdge's
// idempotence.
func (g *Graph) RemoveEdge(from, to NodeID, label string) {
	if !g.valid(from) || !g.valid(to) {
		panic(fmt.Sprintf("graph: RemoveEdge with invalid endpoint %d->%d", from, to))
	}
	g.version++
	id, ok := g.labelIDs[label]
	if !ok {
		return
	}
	key := edgeKey{from: from, to: to, label: id}
	if _, exists := g.edgeSet[key]; !exists {
		return
	}
	delete(g.edgeSet, key)
	g.out[from] = removeEdgeSlice(g.out[from], from, to, label)
	g.in[to] = removeEdgeSlice(g.in[to], from, to, label)
	g.outIdx[from].remove(id, to)
	g.inIdx[to].remove(id, from)
	if !containsSorted(g.outIdx[from].all, to) {
		delete(g.pairSet, pair{from, to})
	}
	g.edges--
}

// removeEdgeSlice deletes the first matching edge, preserving order.
func removeEdgeSlice(es []Edge, from, to NodeID, label string) []Edge {
	for i, e := range es {
		if e.From == from && e.To == to && e.Label == label {
			copy(es[i:], es[i+1:])
			return es[:len(es)-1]
		}
	}
	return es
}

// RemoveNode tombstones node v: every incident edge is removed, its
// attributes are dropped, and it is excluded from all candidate and label
// queries. The ID slot itself is retired, not recycled — node IDs stay dense
// slice offsets, so NumNodes keeps reporting the ID-space size (live plus
// tombstoned) and existing IDs never shift. Removing an already-removed node
// is a no-op.
func (g *Graph) RemoveNode(v NodeID) {
	if !g.valid(v) {
		panic(fmt.Sprintf("graph: RemoveNode on invalid node %d", v))
	}
	g.version++
	if g.dead != nil && g.dead[v] {
		return
	}
	for _, e := range append([]Edge(nil), g.out[v]...) {
		g.RemoveEdge(e.From, e.To, e.Label)
	}
	for _, e := range append([]Edge(nil), g.in[v]...) {
		g.RemoveEdge(e.From, e.To, e.Label)
	}
	label := g.nodes[v].Label
	g.byLabel[label] = removeSorted(g.byLabel[label], v)
	g.nodes[v].Attrs = nil
	if g.dead == nil {
		g.dead = make([]bool, len(g.nodes))
	}
	g.dead[v] = true
	g.deadCount++
}

// Alive reports whether v is a valid, non-tombstoned node.
func (g *Graph) Alive(v NodeID) bool {
	return g.valid(v) && (g.dead == nil || !g.dead[v])
}

// LiveNodes returns the number of non-tombstoned nodes (NumNodes counts the
// dense ID space, which retains removed slots).
func (g *Graph) LiveNodes() int { return len(g.nodes) - g.deadCount }

// SetAttr sets attribute A of node v to constant value c. Tombstoned nodes
// are rejected: a removed node carries no attributes (matching
// Delta.SetAttr).
func (g *Graph) SetAttr(v NodeID, attr, value string) {
	if !g.Alive(v) {
		panic(fmt.Sprintf("graph: SetAttr on invalid or removed node %d", v))
	}
	g.version++
	n := &g.nodes[v]
	if n.Attrs == nil {
		n.Attrs = make(map[string]string)
	}
	n.Attrs[attr] = value
}

// Attr reports the value of attribute A at node v and whether it exists.
func (g *Graph) Attr(v NodeID, attr string) (string, bool) {
	if !g.valid(v) {
		return "", false
	}
	val, ok := g.nodes[v].Attrs[attr]
	return val, ok
}

// Attrs returns the attribute tuple of v (nil if none). The returned map is
// the graph's own storage; callers must not mutate it.
func (g *Graph) Attrs(v NodeID) map[string]string {
	if !g.valid(v) {
		return nil
	}
	return g.nodes[v].Attrs
}

// Label returns the label of node v.
func (g *Graph) Label(v NodeID) string {
	return g.nodes[v].Label
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return g.edges }

// Out returns the outgoing edges of v. Callers must not mutate the slice.
func (g *Graph) Out(v NodeID) []Edge { return g.out[v] }

// HasEdgeID reports whether edge (from,to) with the given label ID exists
// (AnyLabel matches any label): one integer-keyed hash probe (O(1)) against
// the edge set maintained by AddEdge, no string hashing.
func (g *Graph) HasEdgeID(from, to NodeID, id LabelID) bool {
	switch id {
	case AnyLabel:
		_, ok := g.pairSet[pair{from, to}]
		return ok
	case NoLabel:
		return false
	}
	_, ok := g.edgeSet[edgeKey{from: from, to: to, label: id}]
	return ok
}

// OutByLabelID returns the targets of v's outgoing edges carrying the given
// label, in ascending NodeID order. AnyLabel returns the targets of all
// outgoing edges; that list can repeat a target when parallel edges differ
// only in label, so callers that need a set must dedup. Callers must not
// mutate the slice.
func (g *Graph) OutByLabelID(v NodeID, id LabelID) []NodeID {
	if !g.valid(v) {
		return nil
	}
	return g.outIdx[v].endpoints(id)
}

// InByLabelID returns the sources of v's incoming edges carrying the given
// label, with the same AnyLabel and aliasing semantics as OutByLabelID.
func (g *Graph) InByLabelID(v NodeID, id LabelID) []NodeID {
	if !g.valid(v) {
		return nil
	}
	return g.inIdx[v].endpoints(id)
}

// AppendCandidates appends the nodes a pattern node with the given label
// may match into dst: all live nodes for the wildcard, else the nodes with
// that exact label, ascending. The graph's label index is copied, never
// handed out, so callers may sort or compact the result in place.
func (g *Graph) AppendCandidates(dst []NodeID, label string) []NodeID {
	if label == Wildcard {
		for i := range g.nodes {
			if g.dead != nil && g.dead[i] {
				continue
			}
			dst = append(dst, NodeID(i))
		}
		return dst
	}
	return append(dst, g.byLabel[label]...)
}

// LabelFrequency returns the number of nodes carrying the label, with
// wildcard counting every live node. Used for pivot selectivity.
func (g *Graph) LabelFrequency(label string) int {
	if label == Wildcard {
		return len(g.nodes) - g.deadCount
	}
	return len(g.byLabel[label])
}

// Signature is a degree/label requirement on a node's adjacency, used to
// prune match candidates: Out (resp. In) lists distinct edge labels of which
// the node must carry at least one outgoing (resp. incoming) edge each. A
// Wildcard entry requires an edge of any label. A pattern variable's
// signature is derived from its pattern edges (see pattern.Signature); a
// data node failing CoversIDs cannot participate in any homomorphism at that
// variable, because homomorphisms may collapse same-labeled pattern edges
// onto one data edge but can never invent a missing edge label.
type Signature struct {
	Out []string
	In  []string
}

// CoversIDs reports whether node v's adjacency covers a signature resolved
// with ResolveLabels: for every ID in outIDs there is at least one outgoing
// edge with that label (any label for AnyLabel), and symmetrically for
// inIDs. Each probe is one index lookup, so the whole check is O(|sig|).
func (g *Graph) CoversIDs(v NodeID, outIDs, inIDs []LabelID) bool {
	if !g.valid(v) {
		return false
	}
	for _, id := range outIDs {
		if len(g.outIdx[v].endpoints(id)) == 0 {
			return false
		}
	}
	for _, id := range inIDs {
		if len(g.inIdx[v].endpoints(id)) == 0 {
			return false
		}
	}
	return true
}

// ResolveLabels maps a label list through EdgeLabelID. Hot paths resolve a
// signature or a pattern's edge labels once with this and then probe the
// ID-based accessors only.
func (g *Graph) ResolveLabels(labels []string) []LabelID {
	if len(labels) == 0 {
		return nil
	}
	ids := make([]LabelID, len(labels))
	for i, l := range labels {
		ids[i] = g.EdgeLabelID(l)
	}
	return ids
}

// Labels returns the distinct node labels in deterministic order.
func (g *Graph) Labels() []string {
	ls := make([]string, 0, len(g.byLabel))
	for l := range g.byLabel {
		ls = append(ls, l)
	}
	sort.Strings(ls)
	return ls
}

// Clone returns a deep copy of g, tombstones included.
func (g *Graph) Clone() *Graph {
	c := New()
	for i := range g.nodes {
		n := &g.nodes[i]
		id := c.AddNode(n.Label)
		for k, v := range n.Attrs {
			c.SetAttr(id, k, v)
		}
	}
	for v := range g.out {
		for _, e := range g.out[v] {
			c.AddEdge(e.From, e.To, e.Label)
		}
	}
	if g.dead != nil {
		for v, d := range g.dead {
			if d {
				c.RemoveNode(NodeID(v))
			}
		}
	}
	return c
}

// Subgraph returns the induced subgraph on the given node set, together with
// the mapping from old IDs to new IDs.
func (g *Graph) Subgraph(keep map[NodeID]bool) (*Graph, map[NodeID]NodeID) {
	sub := New()
	remap := make(map[NodeID]NodeID, len(keep))
	// Deterministic order: ascending old ID.
	ids := make([]NodeID, 0, len(keep))
	for id := range keep {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		nid := sub.AddNode(g.nodes[id].Label)
		for k, v := range g.nodes[id].Attrs {
			sub.SetAttr(nid, k, v)
		}
		remap[id] = nid
		if g.dead != nil && g.dead[id] {
			sub.RemoveNode(nid)
		}
	}
	for _, id := range ids {
		for _, e := range g.out[id] {
			if keep[e.To] {
				sub.AddEdge(remap[e.From], remap[e.To], e.Label)
			}
		}
	}
	return sub, remap
}

// DisjointUnion appends a copy of other into g and returns the offset that
// maps other's node IDs into g (new ID = old ID + offset). It is the building
// block of canonical graphs G_Σ.
func (g *Graph) DisjointUnion(other *Graph) NodeID {
	offset := NodeID(len(g.nodes))
	for i := range other.nodes {
		n := &other.nodes[i]
		id := g.AddNode(n.Label)
		for k, v := range n.Attrs {
			g.SetAttr(id, k, v)
		}
		if other.dead != nil && other.dead[i] {
			g.RemoveNode(id)
		}
	}
	for v := range other.out {
		for _, e := range other.out[v] {
			g.AddEdge(e.From+offset, e.To+offset, e.Label)
		}
	}
	return offset
}

// String renders the graph in a compact human-readable form, one node and
// one edge per line, in deterministic order.
func (g *Graph) String() string {
	var b strings.Builder
	for i := range g.nodes {
		n := &g.nodes[i]
		fmt.Fprintf(&b, "node %d %s", n.ID, n.Label)
		if len(n.Attrs) > 0 {
			keys := make([]string, 0, len(n.Attrs))
			for k := range n.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(&b, " %s=%s", k, n.Attrs[k])
			}
		}
		b.WriteByte('\n')
	}
	for v := range g.out {
		for _, e := range g.out[v] {
			fmt.Fprintf(&b, "edge %d %d %s\n", e.From, e.To, e.Label)
		}
	}
	return b.String()
}

func (g *Graph) valid(v NodeID) bool { return v >= 0 && int(v) < len(g.nodes) }
