package graph

// Reader is the read API shared by the graph representations: the immutable
// *Frozen (bulk-loaded CSR snapshot, see Builder; *Sharded embeds one and is
// a Reader by promotion; a Delta's Overlay is one, see delta.go), and the
// editable *Graph, which answers the index queries below through the Frozen
// snapshot it caches between edits (see graph.go). Every Reader resolves
// to a *Frozen through Snapshot, and the matching, simulation and reasoning
// layers do so once at their entry points and read the Frozen from there
// on, so they run unmodified on any of them. The division of labour: edit
// with a Graph or fill a Builder, read a Frozen, update it with a Delta and
// read its Overlay (the Refreeze of the delta so far); mutation (AddNode,
// AddEdge, SetAttr, RemoveEdge, RemoveNode) stays on *Graph and *Delta.
//
// The interface is the ID-based core a representation has to answer from
// its own storage. Queries that are compositions of the core — HasEdge and
// CandidateNodes below — are functions over Reader, written once, not
// methods every representation repeats.
//
// Contracts every implementation upholds:
//
//   - OutByLabelID/InByLabelID return endpoints in ascending NodeID order
//     (per label; AnyLabel lists are ascending too, with a target possibly
//     repeated when parallel edges differ only in label), so consumers may
//     intersect lists by linear merge and test membership by binary search.
//     The returned slices alias internal storage: read-only.
//   - AppendCandidates appends into a caller-owned buffer and never hands
//     out internal index storage, so callers may sort or compact the result
//     in place.
//   - Label/Node label IDs are interned per snapshot and do not transfer
//     across snapshots. They live as long as the snapshot they came from:
//     forever on a Frozen (an Overlay included, whatever its delta does
//     next), until the next mutating call on a Graph (whose next read
//     re-freezes and re-interns). Snapshot names that snapshot: the
//     *Frozen pointer is its identity, and match binds plans to it.
//   - Readers are safe for concurrent use. A Graph is too, as long as no
//     mutating call runs at the same time.
type Reader interface {
	// Snapshot returns the immutable snapshot the reader answers from: a
	// *Frozen itself (a Sharded's by promotion), a Graph's cached Frozen.
	Snapshot() *Frozen

	// Cardinalities and node access. Attr and Attrs speak strings: a
	// *Frozen translates its attribute ID rows back per call (Attrs builds
	// a fresh map), so literal evaluation reads the rows by ID instead
	// (Frozen.AttrAt, attrs.go).
	NumNodes() int
	NumEdges() int
	Label(v NodeID) string
	Attr(v NodeID, attr string) (string, bool)
	Attrs(v NodeID) map[string]string

	// Raw out-adjacency with label strings, for writers and oracles. On a
	// *Frozen the slice is synthesized per call; hot paths use the ID-based
	// accessors below.
	Out(v NodeID) []Edge

	// Label interning: EdgeLabelID maps Wildcard to AnyLabel and a label
	// absent from the graph to NoLabel.
	EdgeLabelID(label string) LabelID
	NodeLabelID(label string) LabelID
	LabelIDOf(v NodeID) LabelID
	ResolveLabels(labels []string) []LabelID
	Labels() []string

	// HasEdgeID reports whether an edge (from, to) with the label exists;
	// AnyLabel matches any label, NoLabel nothing.
	HasEdgeID(from, to NodeID, id LabelID) bool

	// Label-keyed adjacency: the targets (sources) of v's outgoing
	// (incoming) edges carrying the label, all of them for AnyLabel.
	OutByLabelID(v NodeID, id LabelID) []NodeID
	InByLabelID(v NodeID, id LabelID) []NodeID

	// Node-label index: the nodes a pattern node with the given label may
	// match — every live node for the Wildcard, else the nodes with that
	// exact label — and their count.
	AppendCandidates(dst []NodeID, label string) []NodeID
	LabelFrequency(label string) int

	// CoversIDs reports whether v has at least one outgoing edge per label
	// in outIDs and one incoming edge per label in inIDs (see Signature).
	// A method, not a derived function: it is the candidate filter of every
	// search frame.
	CoversIDs(v NodeID, outIDs, inIDs []LabelID) bool
}

// Sink is the build API shared by *Graph (stays editable, idempotent
// AddEdge), *Builder (consumed by Freeze) and *Delta. Generators and parsers
// written against Sink can fill any of them; the caller picks by what it
// passes in.
type Sink interface {
	AddNode(label string) NodeID
	AddNodeWithAttrs(label string, attrs map[string]string) NodeID
	SetAttr(v NodeID, attr, value string)
	AddEdge(from, to NodeID, label string)
	NumNodes() int
}

// Compile-time checks that every representation satisfies the interfaces.
var (
	_ Reader = (*Graph)(nil)
	_ Reader = (*Frozen)(nil)
	_ Sink   = (*Graph)(nil)
	_ Sink   = (*Builder)(nil)
	_ Sink   = (*Delta)(nil)
)

// HasEdge reports whether edge (from, to) with the given label exists; a
// Wildcard label matches any edge label. Loops resolve the label once with
// EdgeLabelID and call HasEdgeID.
func HasEdge(r Reader, from, to NodeID, label string) bool {
	return r.HasEdgeID(from, to, r.EdgeLabelID(label))
}

// CandidateNodes returns the nodes a pattern node with the given label may
// match as a fresh slice owned by the caller. Loops recycle a buffer through
// AppendCandidates instead.
func CandidateNodes(r Reader, label string) []NodeID {
	return r.AppendCandidates(nil, label)
}
