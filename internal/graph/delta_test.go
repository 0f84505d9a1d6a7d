package graph

import (
	"bytes"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// applyRandomOps drives the same random update stream into the mutable
// mirror and the delta: node adds, edge adds/removes, attribute rewrites and
// node removals, weighted so every op kind fires. Both sides see identical
// arguments, so afterwards mirror and overlay must agree on every query.
func applyRandomOps(rng *rand.Rand, mirror *Graph, d *Delta, ops int, nodeLabels, edgeLabels []string) {
	alive := func() (NodeID, bool) {
		for try := 0; try < 20; try++ {
			v := NodeID(rng.Intn(mirror.NumNodes()))
			if mirror.Alive(v) {
				return v, true
			}
		}
		return 0, false
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 15:
			l := nodeLabels[rng.Intn(len(nodeLabels))]
			mv := mirror.AddNode(l)
			dv := d.AddNode(l)
			if mv != dv {
				panic(fmt.Sprintf("ID drift: mirror %d vs delta %d", mv, dv))
			}
		case r < 50:
			from, ok1 := alive()
			to, ok2 := alive()
			if !ok1 || !ok2 {
				continue
			}
			l := edgeLabels[rng.Intn(len(edgeLabels))]
			mirror.AddEdge(from, to, l)
			d.AddEdge(from, to, l)
		case r < 70:
			v, ok := alive()
			if !ok {
				continue
			}
			es := mirror.Out(v)
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			mirror.RemoveEdge(e.From, e.To, e.Label)
			d.RemoveEdge(e.From, e.To, e.Label)
		case r < 85:
			v, ok := alive()
			if !ok {
				continue
			}
			a, val := fmt.Sprintf("a%d", rng.Intn(3)), fmt.Sprintf("u%d", rng.Intn(4))
			mirror.SetAttr(v, a, val)
			d.SetAttr(v, a, val)
		default:
			v, ok := alive()
			if !ok {
				continue
			}
			mirror.RemoveNode(v)
			d.RemoveNode(v)
		}
	}
}

// sortedEdges canonicalizes an edge slice for multiset comparison.
func sortedEdges(es []Edge) []Edge {
	out := append([]Edge(nil), es...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Label < b.Label
	})
	return out
}

func edgesEqual(a, b []Edge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkReaderEquivalence checks got on every Reader query against what a
// linear scan of want's raw Out, Label, Attrs and Alive says (see scanRef):
// want's own index methods are never called. Queries go by label *name*
// (interned IDs deliberately do not transfer across representations). When
// got is a Frozen, its attribute rows are checked by ID as well.
func checkReaderEquivalence(t *testing.T, ctx string, want, got Reader, nodeLabels, edgeLabels []string) {
	t.Helper()
	if f, ok := got.(*Frozen); ok {
		checkAttrRows(t, ctx, want, f)
	}
	ref := scan(want)
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != len(ref.edges) || size(got) != ref.size() {
		t.Fatalf("%s: cardinalities diverge: V=%d/%d E=%d/%d |G|=%d/%d", ctx,
			got.NumNodes(), want.NumNodes(), got.NumEdges(), len(ref.edges), size(got), ref.size())
	}
	n := want.NumNodes()
	queryEdgeLabels := append(append([]string(nil), edgeLabels...), Wildcard, "absent")
	for v := 0; v < n; v++ {
		id := NodeID(v)
		if got.Label(id) != want.Label(id) {
			t.Fatalf("%s: Label(%d) = %q, want %q", ctx, v, got.Label(id), want.Label(id))
		}
		wa, ga := want.Attrs(id), got.Attrs(id)
		if len(wa) != len(ga) {
			t.Fatalf("%s: Attrs(%d) = %v, want %v", ctx, v, ga, wa)
		}
		for k, val := range wa {
			if gv, ok := got.Attr(id, k); !ok || gv != val {
				t.Fatalf("%s: Attr(%d,%q) = %q,%v want %q", ctx, v, k, gv, ok, val)
			}
		}
		if !edgesEqual(sortedEdges(got.Out(id)), sortedEdges(want.Out(id))) {
			t.Fatalf("%s: Out(%d) diverges:\n got %v\nwant %v", ctx, v, sortedEdges(got.Out(id)), sortedEdges(want.Out(id)))
		}
		for _, l := range queryEdgeLabels {
			if !idsEqual(outByLabel(got, id, l), ref.out(id, l)) {
				t.Fatalf("%s: OutByLabel(%d,%q) = %v, want %v", ctx, v, l, outByLabel(got, id, l), ref.out(id, l))
			}
			if !idsEqual(inByLabel(got, id, l), ref.in(id, l)) {
				t.Fatalf("%s: InByLabel(%d,%q) = %v, want %v", ctx, v, l, inByLabel(got, id, l), ref.in(id, l))
			}
			for u := 0; u < n; u++ {
				if HasEdge(got, id, NodeID(u), l) != ref.hasEdge(id, NodeID(u), l) {
					t.Fatalf("%s: HasEdge(%d,%d,%q) = %v, want %v", ctx, v, u, l,
						HasEdge(got, id, NodeID(u), l), ref.hasEdge(id, NodeID(u), l))
				}
			}
		}
		for d := 1; d <= 2; d++ {
			wn, gn := ref.hood(id, d), neighborhood(got, []NodeID{id}, d)
			if len(wn) != len(gn) {
				t.Fatalf("%s: neighborhood(%d,%d) sizes %d vs %d", ctx, v, d, len(gn), len(wn))
			}
			for u := range wn {
				if !gn[u] {
					t.Fatalf("%s: neighborhood(%d,%d) missing %d", ctx, v, d, u)
				}
			}
		}
	}
	for _, l := range append(append([]string(nil), nodeLabels...), Wildcard, "absent") {
		if !idsEqual(CandidateNodes(got, l), ref.candidates(l)) {
			t.Fatalf("%s: CandidateNodes(%q) = %v, want %v", ctx, l, CandidateNodes(got, l), ref.candidates(l))
		}
		if got.LabelFrequency(l) != len(ref.candidates(l)) {
			t.Fatalf("%s: LabelFrequency(%q) = %d, want %d", ctx, l, got.LabelFrequency(l), len(ref.candidates(l)))
		}
	}
	for _, sig := range []Signature{{}, {Out: []string{edgeLabels[0]}}, {In: []string{edgeLabels[0], Wildcard}}, {Out: []string{"absent"}}} {
		for v := 0; v < n; v++ {
			if covers(got, NodeID(v), sig) != ref.covers(NodeID(v), sig) {
				t.Fatalf("%s: Covers(%d,%v) diverges", ctx, v, sig)
			}
		}
	}
}

// checkAttrRows checks f's attribute rows against want's tuples: every row
// ascends strictly by name ID, and each of want's (name, value) pairs is
// found by ID while every other name of the snapshot is not.
func checkAttrRows(t *testing.T, ctx string, want Reader, f *Frozen) {
	t.Helper()
	for v := NodeID(0); int(v) < f.NumNodes(); v++ {
		run := f.attrRun(v)
		for i := 1; i < len(run); i++ {
			if run[i]>>32 <= run[i-1]>>32 {
				t.Fatalf("%s: attribute row of %d not strictly ascending by name: %x", ctx, v, run)
			}
		}
		wa := want.Attrs(v)
		if len(run) != len(wa) {
			t.Fatalf("%s: attribute row of %d has %d pairs, want %d", ctx, v, len(run), len(wa))
		}
		for k, val := range wa {
			if got := f.AttrAt(v, f.AttrNameID(k)); got == NoValue || got != f.AttrValueID(val) {
				t.Fatalf("%s: AttrAt(%d, %q) = %d, want the ID of %q (%d)", ctx, v, k, got, val, f.AttrValueID(val))
			}
		}
		for a := AttrID(0); a < AttrID(f.attrNames.size()); a++ {
			if _, ok := wa[f.attrNames.str(uint32(a))]; !ok && f.AttrAt(v, a) != NoValue {
				t.Fatalf("%s: node %d carries %q by ID only", ctx, v, f.attrNames.str(uint32(a)))
			}
		}
	}
}

// TestOverlayEquivalenceRandom is the overlay-equivalence property: after
// any update stream, the Overlay over (base Frozen + Delta) answers every
// Reader query as a scan of an editable Graph that applied the same stream
// says — and so does that Graph itself, through the snapshot it re-freezes
// after the stream — and Refreeze produces a snapshot equal to a
// from-scratch Freeze of the final state. A second round re-runs the property with the refrozen
// snapshot as the base, covering tombstoned and extended bases.
func TestOverlayEquivalenceRandom(t *testing.T) {
	nodeLabels := []string{"a", "b", "c", Wildcard}
	edgeLabels := []string{"e", "f", "g", Wildcard}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(15)
		mirror, base := buildBoth(seed*31+7, n, 4*n, nodeLabels, edgeLabels)
		d := NewDelta(base)
		applyRandomOps(rng, mirror, d, 2+rng.Intn(3*n), nodeLabels, edgeLabels)

		ctx := fmt.Sprintf("seed=%d n=%d delta=%v", seed, n, d)
		overlay := d.Overlay()
		checkReaderEquivalence(t, ctx+" overlay", mirror, overlay, nodeLabels, edgeLabels)
		checkReaderEquivalence(t, ctx+" mirror", mirror, mirror, nodeLabels, edgeLabels)

		refrozen := base.Refreeze(d)
		checkReaderEquivalence(t, ctx+" refrozen", mirror, refrozen, nodeLabels, edgeLabels)
		scratch := mirror.Frozen()
		checkReaderEquivalence(t, ctx+" refrozen-vs-scratch", scratch, refrozen, nodeLabels, edgeLabels)

		// Round two: the refrozen snapshot (tombstones, extended ID space)
		// becomes the base of a fresh delta.
		d2 := NewDelta(refrozen)
		applyRandomOps(rng, mirror, d2, 2+rng.Intn(2*n), nodeLabels, edgeLabels)
		ctx2 := fmt.Sprintf("%s round2 delta=%v", ctx, d2)
		checkReaderEquivalence(t, ctx2+" overlay", mirror, d2.Overlay(), nodeLabels, edgeLabels)
		checkReaderEquivalence(t, ctx2+" refrozen", mirror, refrozen.Refreeze(d2), nodeLabels, edgeLabels)
	}
}

// TestOverlaySurvivesRefreezeAndCompact pins what Refreeze promises: a
// reader serves fixed contents. Refreezing the delta (plain, or compacting
// the result) and compacting the base each build a new snapshot and leave
// the base, the delta and an Overlay taken before them as they were.
func TestOverlaySurvivesRefreezeAndCompact(t *testing.T) {
	nodeLabels := []string{"a", "b", "c", Wildcard}
	edgeLabels := []string{"e", "f", "g", Wildcard}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 300))
		n := 10 + rng.Intn(12)
		mirror, f := buildBoth(seed*13+5, n, 4*n, nodeLabels, edgeLabels)
		// A tombstoned base, so both compactions have slots to drop.
		kill := NewDelta(f)
		for v := NodeID(0); int(v) < n; v += 3 {
			mirror.RemoveNode(v)
			kill.RemoveNode(v)
		}
		base := f.Refreeze(kill)
		d := NewDelta(base)
		applyRandomOps(rng, mirror, d, 2+rng.Intn(2*n), nodeLabels, edgeLabels)
		o := d.Overlay()
		ctx := fmt.Sprintf("seed=%d n=%d delta=%v", seed, n, d)
		for _, step := range []struct {
			name string
			run  func() bool // reports whether a new snapshot was built
		}{
			{"Refreeze", func() bool { return base.Refreeze(d) != base }},
			{"RefreezeOpts with compaction", func() bool {
				_, remap := base.RefreezeOpts(d, RefreezeOptions{CompactThreshold: math.SmallestNonzeroFloat64})
				return remap != nil
			}},
			{"Compact of the base", func() bool { _, remap := base.Compact(); return remap != nil }},
		} {
			if !step.run() {
				t.Fatalf("%s: %s built no new snapshot", ctx, step.name)
			}
			checkReaderEquivalence(t, ctx+" overlay after "+step.name, mirror, o, nodeLabels, edgeLabels)
		}
	}
}

// FuzzRefreeze holds Refreeze, which every Overlay read goes through, to a
// from-scratch Freeze. Each 4-byte group of the input is one update —
// AddNode, AddEdge, RemoveEdge of an edge the mirror holds, RemoveNode,
// SetAttr, or RemoveEdge on arbitrary arguments (dead endpoints, absent
// edges, labels no graph has), by the first byte modulo 6 — applied to a
// delta over a small frozen base and mirrored into an editable Graph;
// labels outside the base's tables extend them. The refrozen snapshot must
// then answer every Reader query as the Graph's Frozen does, and
// TouchedSince must hold every node whose attributes or liveness changed
// since the version it is given, and an endpoint of every edge that did —
// from the base, and from a snapshot taken halfway through the stream: that
// is the seed set incremental revalidation trusts, chained calls included.
// The Attr/Attrs comparison covers the attribute ID rows: Refreeze rewrites
// the rows the delta touched over tables extended by its new names and
// values, and checkReaderEquivalence also reads every row by ID.
func FuzzRefreeze(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 1, 0})                            // one edge at the front, clean tail
	f.Add([]byte{0, 4, 0, 0, 1, 12, 0, 4, 4, 3, 1, 2})   // new node and label, attribute
	f.Add([]byte{2, 3, 0, 0, 3, 5, 0, 0, 2, 9, 1, 0})    // removals: an edge, then a node
	f.Add([]byte{0, 1, 0, 0, 1, 12, 12, 1, 3, 12, 0, 0}) // an added self-loop, then its node removed
	f.Add([]byte{1, 2, 7, 0, 3, 7, 0, 0, 5, 2, 7, 0})    // an added edge at a removed node, then removed
	f.Add([]byte{5, 0, 1, 4, 5, 3, 3, 3, 3, 0, 0, 0})    // arbitrary removals: new label, absent edges
	f.Fuzz(func(t *testing.T, data []byte) {
		mirror, base := fuzzBase()
		d := NewDelta(base)
		mid, midVersion := base, 0
		applyFuzzOps(data, mirror, d, func(i, ops int) {
			if i == ops/2 {
				mid, midVersion = d.Overlay(), d.Version()
			}
		})
		refrozen := base.Refreeze(d)
		checkReaderEquivalence(t, fmt.Sprintf("delta=%v", d), mirror.Frozen(), refrozen,
			fuzzNodeLabels, fuzzEdgeLabels)

		checkTouched(t, fmt.Sprintf("delta=%v since the base", d), base, refrozen, d.TouchedSince(0))
		checkTouched(t, fmt.Sprintf("delta=%v since version %d", d, midVersion), mid, refrozen, d.TouchedSince(midVersion))
	})
}

// FuzzOverlayChain holds the chained Overlay to Refreeze. It applies
// FuzzRefreeze's updates and takes d.Overlay() before every update whose
// first byte is at least 128 (overlayOp marks one), so each overlay after
// the first is chained from the one before, across gaps of any length. At
// each of them, and at the end, the overlay's snapshot image must equal
// base.Refreeze(d)'s byte for byte; the final overlay must answer every
// Reader query as the mirror does, TouchedSince from every intermediate
// overlay's version must cover what changed since it, and every
// intermediate overlay must still write the image it wrote when taken.
func FuzzOverlayChain(f *testing.F) {
	const ov = overlayOp
	f.Add([]byte{ov + 1, 0, 1, 0, ov + 1, 2, 3, 1})
	// A node removed after an earlier overlay: its neighbours' rows, base
	// and added edges alike, must lose it in the next one.
	f.Add([]byte{1, 4, 0, 0, 1, 0, 4, 1, ov + 4, 4, 1, 1, ov + 3, 4, 0, 0, 1, 0, 2, 2})
	// An edge added then cancelled across an overlay, and a base edge
	// removed then re-added across one.
	f.Add([]byte{ov + 1, 2, 9, 4, ov + 5, 2, 9, 4, ov + 2, 3, 0, 0, ov + 0, 1, 0, 0})
	// A new attribute value in two successive versions, then the node gone.
	f.Add([]byte{ov + 4, 5, 3, 1, ov + 4, 5, 3, 2, ov + 4, 6, 0, 3, ov + 3, 5, 0, 0})
	// New node and edge labels after an overlay, a removal with no overlay
	// between, and an added node removed in the version that added it.
	f.Add([]byte{ov + 0, 4, 0, 0, 1, 10, 3, 4, ov + 0, 2, 0, 0, 3, 11, 0, 0, ov + 3, 10, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		mirror, base := fuzzBase()
		d := NewDelta(base)
		type taken struct {
			o       *Frozen
			version int
			image   []byte
		}
		var chain []taken
		take := func() {
			o := d.Overlay()
			image := snapshotImage(t, o)
			if want := snapshotImage(t, base.Refreeze(d)); !bytes.Equal(image, want) {
				t.Fatalf("version %d (delta=%v): the chained overlay's image differs from Refreeze's", d.Version(), d)
			}
			chain = append(chain, taken{o, d.Version(), image})
		}
		applyFuzzOps(data, mirror, d, func(i, _ int) {
			if data[4*i] >= 128 {
				take()
			}
		})
		take()
		final := chain[len(chain)-1].o
		checkReaderEquivalence(t, fmt.Sprintf("delta=%v", d), mirror.Frozen(), final, fuzzNodeLabels, fuzzEdgeLabels)
		for _, c := range chain {
			checkTouched(t, fmt.Sprintf("delta=%v since version %d", d, c.version), c.o, final, d.TouchedSince(c.version))
			if !bytes.Equal(snapshotImage(t, c.o), c.image) {
				t.Fatalf("the overlay of version %d changed after later updates", c.version)
			}
		}
	})
}

// overlayOp added to an update's first byte (0–5) keeps the update and
// marks it for FuzzOverlayChain: it is at least 128 and ≡ 0 (mod 6).
const overlayOp = 132

// snapshotImage returns f's WriteSnapshot bytes.
func snapshotImage(t *testing.T, f *Frozen) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The update fuzzers' base uses the first four labels of each list; "d" and
// "h" are new.
var (
	fuzzNodeLabels = []string{"a", "b", "c", Wildcard, "d"}
	fuzzEdgeLabels = []string{"e", "f", "g", Wildcard, "h"}
)

// fuzzBase is the update fuzzers' base, frozen and as an editable mirror.
func fuzzBase() (*Graph, *Frozen) {
	return buildBoth(11, 10, 30, fuzzNodeLabels[:4], fuzzEdgeLabels[:4])
}

// applyFuzzOps applies FuzzRefreeze's encoding of data to d and its mirror:
// each 4-byte group is one update, at most 64 of them. before, if not nil,
// runs before each one with the update's index and their count.
func applyFuzzOps(data []byte, mirror *Graph, d *Delta, before func(i, ops int)) {
	removeLabels := append(slices.Clip(fuzzEdgeLabels), "absent")
	ops := min(len(data)/4, 64)
	for i := 0; i < 4*ops; i += 4 {
		if before != nil {
			before(i/4, ops)
		}
		op, a, b, c := data[i]%6, data[i+1], data[i+2], data[i+3]
		u, v := NodeID(int(a)%mirror.NumNodes()), NodeID(int(b)%mirror.NumNodes())
		switch op {
		case 0:
			l := fuzzNodeLabels[int(a)%len(fuzzNodeLabels)]
			mirror.AddNode(l)
			d.AddNode(l)
		case 1:
			if mirror.Alive(u) && mirror.Alive(v) {
				l := fuzzEdgeLabels[int(c)%len(fuzzEdgeLabels)]
				mirror.AddEdge(u, v, l)
				d.AddEdge(u, v, l)
			}
		case 2:
			if es := mirror.Out(u); len(es) > 0 {
				e := es[int(b)%len(es)]
				mirror.RemoveEdge(e.From, e.To, e.Label)
				d.RemoveEdge(e.From, e.To, e.Label)
			}
		case 3:
			mirror.RemoveNode(u)
			d.RemoveNode(u)
		case 4:
			if mirror.Alive(u) {
				// a3 and every u value are new to the base's tables.
				k, val := fmt.Sprintf("a%d", b%4), fmt.Sprintf("u%d", c%4)
				mirror.SetAttr(u, k, val)
				d.SetAttr(u, k, val)
			}
		case 5:
			l := removeLabels[int(c)%len(removeLabels)]
			mirror.RemoveEdge(u, v, l)
			d.RemoveEdge(u, v, l)
		}
	}
}

// checkTouched fails unless touched holds every node whose attributes or
// liveness differ between the snapshots from and to, and an endpoint of
// every edge one of them has and the other lacks.
func checkTouched(t *testing.T, ctx string, from, to *Frozen, touched []NodeID) {
	t.Helper()
	has := func(v NodeID) bool { _, found := slices.BinarySearch(touched, v); return found }
	for v := NodeID(0); int(v) < to.NumNodes(); v++ {
		born := int(v) >= from.NumNodes()
		if (born || from.Alive(v) != to.Alive(v) || !maps.Equal(from.Attrs(v), to.Attrs(v))) && !has(v) {
			t.Fatalf("%s: node %d changed but is not in TouchedSince %v", ctx, v, touched)
		}
		if has(v) {
			continue
		}
		// Neither endpoint of an edge in v's out-row may be untouched if
		// the edge is in only one snapshot.
		var before []uint64
		if !born {
			before = rowKeys(&from.out, v)
		}
		after := rowKeys(&to.out, v)
		for _, pair := range [][2][]uint64{{before, after}, {after, before}} {
			for _, k := range pair[0] {
				if _, found := slices.BinarySearch(pair[1], k); !found && !has(NodeID(uint32(k))) {
					t.Fatalf("%s: edge %d->%d changed but neither endpoint is in TouchedSince %v", ctx, v, NodeID(uint32(k)), touched)
				}
			}
		}
	}
}

// rowKeys returns node v's row in one direction as csrKeys, in CSR order.
func rowKeys(c *csrDir, v NodeID) []uint64 {
	var ks []uint64
	c.forEachRun(v, func(l LabelID, targets []NodeID) {
		for _, t := range targets {
			ks = append(ks, csrKey(l, t))
		}
	})
	return ks
}

// TestDeltaSemantics pins the final-state op algebra and the guard rails.
func TestDeltaSemantics(t *testing.T) {
	b := NewBuilder(0)
	x := b.AddNode("a")
	y := b.AddNode("b")
	z := b.AddNode("a")
	b.AddEdge(x, y, "e")
	b.AddEdge(y, z, "f")
	b.SetAttr(x, "k", "v")
	f := b.Freeze()

	d := NewDelta(f)
	// Idempotent add of an existing base edge is invisible.
	d.AddEdge(x, y, "e")
	if d.Len() != 0 {
		t.Fatalf("re-adding a base edge recorded %d ops", d.Len())
	}
	// Remove then re-add cancels.
	d.RemoveEdge(x, y, "e")
	d.AddEdge(x, y, "e")
	if d.Len() != 0 {
		t.Fatalf("remove+re-add left %d ops", d.Len())
	}
	// Add then remove cancels (new edge, new label).
	d.AddEdge(z, x, "new")
	d.RemoveEdge(z, x, "new")
	if len(d.addedSet) != 0 || len(d.removedSet) != 0 {
		t.Fatal("add+remove of a fresh edge did not cancel")
	}
	// RemoveNode drops the incident base edges from the overlay and blocks
	// further use.
	d.RemoveNode(y)
	o := d.Overlay()
	if o.Alive(y) || o.NumEdges() != 0 {
		t.Fatalf("RemoveNode left alive=%v E=%d", o.Alive(y), o.NumEdges())
	}
	if got := CandidateNodes(o, "b"); len(got) != 0 {
		t.Fatalf("dead node still a candidate: %v", got)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("AddEdge to dead node", func() { d.AddEdge(x, y, "e") })
	mustPanic("SetAttr on dead node", func() { d.SetAttr(y, "k", "v") })
	// The mutable Graph enforces the same tombstone invariant: a removed
	// node never regains edges or attributes.
	mg := New()
	ga := mg.AddNode("a")
	gb := mg.AddNode("b")
	mg.RemoveNode(gb)
	mustPanic("Graph.AddEdge to dead node", func() { mg.AddEdge(ga, gb, "e") })
	mustPanic("Graph.SetAttr on dead node", func() { mg.SetAttr(gb, "k", "v") })
	// An overlay is a snapshot of one delta version: every call at that
	// version returns it, and it keeps serving that version after the delta
	// moves on; the next version gets a new snapshot, a different *Frozen.
	if d.Overlay() != o {
		t.Fatal("two Overlay calls at one delta version returned different snapshots")
	}
	added := d.AddNode("a")
	d.AddEdge(z, x, "e")
	if o.NumNodes() != 3 || o.NumEdges() != 0 || len(outByLabel(o, z, "e")) != 0 ||
		len(inByLabel(o, x, "e")) != 0 || !idsEqual(CandidateNodes(o, "a"), []NodeID{x, z}) {
		t.Fatalf("overlay changed after its delta mutated: V=%d E=%d", o.NumNodes(), o.NumEdges())
	}
	o2 := d.Overlay()
	if o2 == o || o2.Snapshot() != o2 || o.Snapshot() != o {
		t.Fatal("Overlay after a mutation reused the previous snapshot")
	}
	if o2.NumNodes() != 4 || o2.NumEdges() != 1 || !idsEqual(outByLabel(o2, z, "e"), []NodeID{x}) ||
		!idsEqual(inByLabel(o2, x, "e"), []NodeID{z}) || !idsEqual(CandidateNodes(o2, "a"), []NodeID{x, z, added}) {
		t.Fatalf("new overlay misses the edits: V=%d E=%d", o2.NumNodes(), o2.NumEdges())
	}
	mustPanic("foreign base", func() { NewBuilder(0).Freeze().Refreeze(d) })

	// TouchedSince covers edge endpoints, attr updates, dead and added
	// nodes, and from a later version only what changed after it.
	d2 := NewDelta(f)
	w := d2.AddNode("c")
	d2.AddEdge(w, x, "e")
	v1 := d2.Version()
	d2.SetAttr(z, "k", "v2")
	if got, want := d2.TouchedSince(0), []NodeID{x, z, w}; !idsEqual(got, want) {
		t.Fatalf("TouchedSince(0) = %v, want %v", got, want)
	}
	if got, want := d2.TouchedSince(v1), []NodeID{z}; !idsEqual(got, want) {
		t.Fatalf("TouchedSince(%d) = %v, want %v", v1, got, want)
	}
	if d2.AddEdge(w, x, "e"); d2.Version() != v1+1 || len(d2.TouchedSince(d2.Version())) != 0 {
		t.Fatalf("a no-op edit moved the version to %d, or the current version touches %v",
			d2.Version(), d2.TouchedSince(d2.Version()))
	}

	// RemoveNode records no per-edge cascade: it touches the removed node
	// alone, an endpoint of every edge it takes down; Refreeze drops its
	// base out- and in-edge and an added edge, and removing the added edge
	// afterwards leaves the refreeze as it was.
	b3 := NewBuilder(0)
	p, q, r, s := b3.AddNode("a"), b3.AddNode("b"), b3.AddNode("a"), b3.AddNode("c")
	b3.AddEdge(p, q, "e")
	b3.AddEdge(q, r, "f")
	f3 := b3.Freeze()
	d3 := NewDelta(f3)
	d3.AddEdge(s, q, "g")
	afterAdd := d3.Version()
	d3.RemoveNode(q)
	if got, want := d3.TouchedSince(0), []NodeID{q, s}; !idsEqual(got, want) {
		t.Fatalf("TouchedSince(0) after RemoveNode = %v, want %v", got, want)
	}
	if got, want := d3.TouchedSince(afterAdd), []NodeID{q}; !idsEqual(got, want) {
		t.Fatalf("TouchedSince(%d) after RemoveNode = %v, want %v: the dead node is every lost edge's endpoint", afterAdd, got, want)
	}
	gone := f3.Refreeze(d3)
	if gone.NumEdges() != 0 || len(outByLabel(gone, p, Wildcard)) != 0 ||
		len(inByLabel(gone, r, Wildcard)) != 0 || len(outByLabel(gone, s, Wildcard)) != 0 {
		t.Fatalf("Refreeze kept an edge at the removed node: E=%d", gone.NumEdges())
	}
	d3.RemoveEdge(s, q, "g")
	checkReaderEquivalence(t, "RemoveEdge at a dead node", gone, f3.Refreeze(d3),
		[]string{"a", "b", "c"}, []string{"e", "f", "g"})
}

// TestShardedEmptyTailCollapse is the regression test for the degenerate
// shard-count clamp: a non-dividing K must not yield empty trailing shards.
// k=9 over 10 nodes has stride 2, so the node space splits into 5 parts.
func TestShardedEmptyTailCollapse(t *testing.T) {
	b := NewBuilder(0)
	for i := 0; i < 10; i++ {
		b.AddNode("a")
	}
	f := b.Freeze()
	if got := len(f.Sharded(9).Split(CandidateNodes(f, Wildcard))); got != 5 {
		t.Fatalf("k=9 over 10 nodes gave %d parts, want 5", got)
	}
}
