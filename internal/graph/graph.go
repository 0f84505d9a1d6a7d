// Package graph implements directed labeled property graphs as defined in
// Section II of "Parallel Reasoning of Graph Functional Dependencies"
// (Fan, Liu, Cao; ICDE 2018).
//
// A graph G = (V, E, L, F_A) has a finite node set V, directed labeled edges
// E ⊆ V×V, a label L(v) ∈ Γ per node and L(e) per edge, and for each node a
// finite tuple F_A(v) of attribute/constant pairs carrying content, as in
// property graphs.
//
// There is one index per graph — Frozen's CSR (frozen.go) — and three ways to
// get at it: fill a Builder and Freeze it; edit a Graph, which re-freezes
// lazily and reads through the cached snapshot (this file); or record updates
// against a Frozen in a Delta and Refreeze it — its Overlay is that
// Refreeze, cached per delta version (delta.go, refreeze.go). reader.go
// states what every reader guarantees: ordering, ID lifetime, concurrency.
package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
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

// Node is a labeled node with an attribute tuple, as the edit models of
// Graph and Delta keep it (a Frozen keeps labels and tuples as ID rows).
// Attrs maps attribute names to constant values; absence of a key means the
// node does not carry that attribute (graphs are schemaless).
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

// Graph is the editable representation: nodes, per-node edge lists and
// tombstones, nothing else. It answers the content queries of Reader (Label,
// Attr, Attrs, Out, NumNodes, NumEdges) from that edit model and every index
// query from its Frozen snapshot, which Frozen builds on first use and keeps
// until the next mutating call — so a Graph never maintains a second index
// beside the snapshot's CSR. Consequences callers rely on:
//
//   - Reads are as fast as a Frozen's plus one atomic load; the first read
//     after a mutation pays one Freeze, O(V + E log deg). Interleaving single
//     edits with index reads on a large graph is what Delta and Refreeze
//     are for: a refreeze sorts only the edits, merges them into the rows
//     they touch, and copies every other row as it is.
//   - Label IDs are the snapshot's: a mutating call voids every ID, plan and
//     search obtained before it (match panics on a stale plan or search).
//   - Any number of goroutines may read concurrently, the first index read
//     included; a mutating call must not run concurrently with anything.
//
// The zero value is not usable; construct with New.
type Graph struct {
	nodes []Node
	out   [][]Edge // adjacency by source
	in    [][]Edge // adjacency by target
	// edgeSet makes AddEdge and RemoveEdge idempotent in O(1).
	edgeSet map[Edge]struct{}
	// dead marks tombstoned nodes (see RemoveNode): the ID slot stays in the
	// dense node space, but the node is excluded from candidate enumeration
	// and carries no edges or attributes. nil until the first removal, so
	// graphs that never remove pay nothing.
	dead []bool

	// snap is the cached snapshot, nil after a mutating call; snapMu
	// serializes its construction so concurrent first readers share one.
	snap   atomic.Pointer[Frozen]
	snapMu sync.Mutex
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{edgeSet: make(map[Edge]struct{})}
}

// touch drops the cached snapshot; every mutator calls it first.
func (g *Graph) touch() {
	if g.snap.Load() != nil {
		g.snap.Store(nil)
	}
}

// AddNode inserts a node with the given label and returns its ID.
func (g *Graph) AddNode(label string) NodeID {
	g.touch()
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, Node{ID: id, Label: label})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	if g.dead != nil {
		g.dead = append(g.dead, false)
	}
	return id
}

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
	g.touch()
	e := Edge{From: from, To: to, Label: label}
	if _, dup := g.edgeSet[e]; dup {
		return
	}
	g.edgeSet[e] = struct{}{}
	g.out[from] = append(g.out[from], e)
	g.in[to] = append(g.in[to], e)
}

// RemoveEdge deletes the exact (from, label, to) triple if present. The
// label is taken literally (no wildcard semantics: removing '_' removes only
// an edge labeled '_'); absent edges are a no-op, mirroring AddEdge's
// idempotence.
func (g *Graph) RemoveEdge(from, to NodeID, label string) {
	if !g.valid(from) || !g.valid(to) {
		panic(fmt.Sprintf("graph: RemoveEdge with invalid endpoint %d->%d", from, to))
	}
	g.touch()
	e := Edge{From: from, To: to, Label: label}
	if _, exists := g.edgeSet[e]; !exists {
		return
	}
	delete(g.edgeSet, e)
	g.out[from] = removeEdgeSlice(g.out[from], e)
	g.in[to] = removeEdgeSlice(g.in[to], e)
}

// removeEdgeSlice deletes the first occurrence of e, preserving order.
func removeEdgeSlice(es []Edge, e Edge) []Edge {
	if i := slices.Index(es, e); i >= 0 {
		return slices.Delete(es, i, i+1)
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
	g.touch()
	if g.dead != nil && g.dead[v] {
		return
	}
	for _, e := range slices.Clone(g.out[v]) {
		g.RemoveEdge(e.From, e.To, e.Label)
	}
	for _, e := range slices.Clone(g.in[v]) {
		g.RemoveEdge(e.From, e.To, e.Label)
	}
	g.nodes[v].Attrs = nil
	if g.dead == nil {
		g.dead = make([]bool, len(g.nodes))
	}
	g.dead[v] = true
}

// Alive reports whether v is a valid, non-tombstoned node.
func (g *Graph) Alive(v NodeID) bool {
	return g.valid(v) && (g.dead == nil || !g.dead[v])
}

// SetAttr sets attribute A of node v to constant value c. Tombstoned nodes
// are rejected: a removed node carries no attributes (matching
// Delta.SetAttr).
func (g *Graph) SetAttr(v NodeID, attr, value string) {
	if !g.Alive(v) {
		panic(fmt.Sprintf("graph: SetAttr on invalid or removed node %d", v))
	}
	g.touch()
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
func (g *Graph) NumEdges() int { return len(g.edgeSet) }

// Out returns the outgoing edges of v. Callers must not mutate the slice.
func (g *Graph) Out(v NodeID) []Edge { return g.out[v] }

// Frozen returns the immutable CSR snapshot of g's current contents: built
// by replaying g through a Builder on the first call after a mutation,
// cached and shared by every later call until the next one. The snapshot is
// independent of g except for attribute value strings, so one taken before
// a mutation stays a valid picture of the graph as it was.
func (g *Graph) Frozen() *Frozen {
	if f := g.snap.Load(); f != nil {
		return f
	}
	g.snapMu.Lock()
	defer g.snapMu.Unlock()
	if f := g.snap.Load(); f != nil {
		return f
	}
	b := NewBuilder(g.NumEdges())
	for i := range g.nodes {
		b.AddNodeWithAttrs(g.nodes[i].Label, g.nodes[i].Attrs)
	}
	for v := range g.out {
		for _, e := range g.out[v] {
			b.AddEdge(e.From, e.To, e.Label)
		}
	}
	f := b.Freeze()
	if g.dead != nil {
		f.tombstone(g.dead)
	}
	g.snap.Store(f)
	return f
}

// Epoch returns the current snapshot's epoch (see EpochView): it changes
// with every mutating call that is followed by a read.
func (g *Graph) Epoch() uint64 { return g.Frozen().Epoch() }

// The index queries of Reader, answered by the snapshot; see the methods of
// Frozen for their contracts.

func (g *Graph) EdgeLabelID(label string) LabelID        { return g.Frozen().EdgeLabelID(label) }
func (g *Graph) NodeLabelID(label string) LabelID        { return g.Frozen().NodeLabelID(label) }
func (g *Graph) LabelIDOf(v NodeID) LabelID              { return g.Frozen().LabelIDOf(v) }
func (g *Graph) ResolveLabels(labels []string) []LabelID { return g.Frozen().ResolveLabels(labels) }
func (g *Graph) Labels() []string                        { return g.Frozen().Labels() }
func (g *Graph) HasEdgeID(from, to NodeID, id LabelID) bool {
	return g.Frozen().HasEdgeID(from, to, id)
}
func (g *Graph) OutByLabelID(v NodeID, id LabelID) []NodeID { return g.Frozen().OutByLabelID(v, id) }
func (g *Graph) InByLabelID(v NodeID, id LabelID) []NodeID  { return g.Frozen().InByLabelID(v, id) }
func (g *Graph) AppendCandidates(dst []NodeID, label string) []NodeID {
	return g.Frozen().AppendCandidates(dst, label)
}
func (g *Graph) LabelFrequency(label string) int { return g.Frozen().LabelFrequency(label) }
func (g *Graph) CoversIDs(v NodeID, outIDs, inIDs []LabelID) bool {
	return g.Frozen().CoversIDs(v, outIDs, inIDs)
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
