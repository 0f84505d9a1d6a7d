package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
)

// snapshotFixture builds a snapshot that exercises every serialized section:
// attrs, parallel edge labels, an update round with removals so the loaded
// image carries tombstones and an extended ID space, plus the mutable mirror
// of the same state.
func snapshotFixture(t *testing.T, seed int64) (*Graph, *Frozen) {
	t.Helper()
	nodeLabels := []string{"a", "b", "c", Wildcard}
	edgeLabels := []string{"e", "f", "g", Wildcard}
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(15)
	mirror, base := buildBoth(seed*31+7, n, 4*n, nodeLabels, edgeLabels)
	d := NewDelta(base)
	applyRandomOps(rng, mirror, d, 2+rng.Intn(3*n), nodeLabels, edgeLabels)
	return mirror, base.Refreeze(d)
}

// TestSnapshotRoundTripRandom is the persistence property: for random
// snapshots (dead slots and attrs included), ReadSnapshot(WriteSnapshot(f))
// answers every Reader query exactly like f, agrees on the tombstone view,
// and behaves identically under a subsequent Refreeze.
func TestSnapshotRoundTripRandom(t *testing.T) {
	nodeLabels := []string{"a", "b", "c", Wildcard}
	edgeLabels := []string{"e", "f", "g", Wildcard}
	for seed := int64(0); seed < 8; seed++ {
		mirror, f := snapshotFixture(t, seed)
		var buf bytes.Buffer
		if err := f.WriteSnapshot(&buf); err != nil {
			t.Fatalf("seed=%d: WriteSnapshot: %v", seed, err)
		}
		if got, want := buf.Len()-28, f.payloadSize(); got != want {
			t.Fatalf("seed=%d: payload of %d bytes, payloadSize %d", seed, got, want)
		}
		if !bytes.Equal(buf.Bytes(), snapshotImage(t, rebuilt(f))) {
			t.Fatalf("seed=%d: a refrozen snapshot's image differs from its Builder rebuild's", seed)
		}
		loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("seed=%d: ReadSnapshot: %v", seed, err)
		}
		ctx := fmt.Sprintf("seed=%d", seed)
		checkReaderEquivalence(t, ctx+" loaded", f, loaded, nodeLabels, edgeLabels)
		if loaded.LiveNodes() != f.LiveNodes() || loaded.DeadFraction() != f.DeadFraction() {
			t.Fatalf("%s: tombstone accounting diverges: live %d/%d", ctx, loaded.LiveNodes(), f.LiveNodes())
		}
		for v := 0; v < f.NumNodes(); v++ {
			if loaded.Alive(NodeID(v)) != f.Alive(NodeID(v)) {
				t.Fatalf("%s: Alive(%d) diverges", ctx, v)
			}
		}

		// The loaded copy must be a full peer: drive the identical update
		// stream into a delta over each and compare the refrozen results.
		rngA := rand.New(rand.NewSource(seed + 500))
		rngB := rand.New(rand.NewSource(seed + 500))
		dOrig, dLoaded := NewDelta(f), NewDelta(loaded)
		mirrorB, _ := snapshotFixture(t, seed) // identical streams need identical mirrors
		applyRandomOps(rngA, mirror, dOrig, 10, nodeLabels, edgeLabels)
		applyRandomOps(rngB, mirrorB, dLoaded, 10, nodeLabels, edgeLabels)
		checkReaderEquivalence(t, ctx+" refrozen-loaded",
			f.Refreeze(dOrig), loaded.Refreeze(dLoaded), nodeLabels, edgeLabels)
	}
}

// rebuilt returns f's graph frozen afresh through a Builder, its label IDs
// interned in f's order first, so that the two images may be compared: the
// rebuild lays every row out in node order.
func rebuilt(f *Frozen) *Frozen {
	b := NewBuilder(f.NumEdges())
	for id := range f.nodeLabels.size() {
		b.nodeLabels.intern(f.nodeLabels.str(id))
	}
	for id := range f.edgeLabels.size() {
		b.edgeLabels.intern(f.edgeLabels.str(id))
	}
	for v := NodeID(0); int(v) < f.NumNodes(); v++ {
		b.AddNodeWithAttrs(f.Label(v), f.Attrs(v))
	}
	for v := NodeID(0); int(v) < f.NumNodes(); v++ {
		for _, e := range f.Out(v) {
			b.AddEdge(e.From, e.To, e.Label)
		}
	}
	r := b.Freeze()
	if f.dead != nil {
		r.tombstone(f.dead)
	}
	return r
}

// TestSnapshotDeterministic pins the image bytes: the same snapshot always
// serializes identically (attribute keys are sorted), so fixtures and
// checksums are stable.
func TestSnapshotDeterministic(t *testing.T) {
	_, f := snapshotFixture(t, 3)
	var a, b bytes.Buffer
	if err := f.WriteSnapshot(&a); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteSnapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same snapshot produced different images")
	}
	if !LooksLikeSnapshot(a.Bytes()) {
		t.Fatal("LooksLikeSnapshot rejects a valid image")
	}
	if LooksLikeSnapshot([]byte("node 0 a\n")) {
		t.Fatal("LooksLikeSnapshot accepts the text format")
	}
}

// TestSnapshotCorruption flips every header byte and a sample of payload
// bytes: each corruption must surface as an error, never a panic or a
// silently wrong graph.
func TestSnapshotCorruption(t *testing.T) {
	_, f := snapshotFixture(t, 5)
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	for i := 0; i < 28; i++ { // every header byte
		bad := append([]byte(nil), img...)
		bad[i] ^= 0x40
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatalf("header byte %d corrupted, ReadSnapshot succeeded", i)
		}
	}
	for i := 28; i < len(img); i += 37 { // payload sample
		bad := append([]byte(nil), img...)
		bad[i] ^= 0x01
		if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil {
			t.Fatalf("payload byte %d corrupted, ReadSnapshot succeeded", i)
		}
	}
	for cut := 0; cut < len(img); cut += 11 { // truncation
		if _, err := ReadSnapshot(bytes.NewReader(img[:cut])); err == nil {
			t.Fatalf("truncated at %d of %d, ReadSnapshot succeeded", cut, len(img))
		}
	}
}

// TestSnapshotStructuralValidation forges checksum-valid but inconsistent
// images (the CRCs only catch accidental corruption): every byte of the
// payload is flipped in turn with both checksums recomputed, and ReadSnapshot
// must either load a graph or fail with an error — never panic. Flipping can
// hit every decoded field (string lengths, node IDs, offsets, label refs),
// so this sweeps the structural validation paths a buggy or hostile writer
// would reach.
func TestSnapshotStructuralValidation(t *testing.T) {
	_, f := snapshotFixture(t, 7)
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	reseal := func(b []byte) {
		binary.LittleEndian.PutUint32(b[20:], crc32.ChecksumIEEE(b[28:]))
		binary.LittleEndian.PutUint32(b[24:], crc32.ChecksumIEEE(b[:24]))
	}
	loaded := 0
	for i := 28; i < len(img); i++ {
		for _, mask := range []byte{0x01, 0x80} {
			bad := append([]byte(nil), img...)
			bad[i] ^= mask
			reseal(bad)
			g, err := ReadSnapshot(bytes.NewReader(bad)) // must not panic
			if err == nil {
				// A flip that survives validation (e.g. inside a string) must
				// still yield a usable graph: poke the hot queries.
				for v := 0; v < g.NumNodes(); v++ {
					g.Label(NodeID(v))
					g.OutByLabelID(NodeID(v), AnyLabel)
					g.InByLabelID(NodeID(v), AnyLabel)
				}
				CandidateNodes(g, Wildcard)
				loaded++
			}
		}
	}
	t.Logf("%d byte-flips loaded cleanly, %d rejected", loaded, 2*(len(img)-28)-loaded)
}

// FuzzReadSnapshot holds ReadSnapshot to its contract on arbitrary bytes:
// an error, or a snapshot that WriteSnapshot writes back byte for byte —
// never a panic. Mutated bytes rarely keep both checksums valid, so every
// input is also read resealed: its header's payload length and checksums
// rewritten to match the bytes after the header, which puts the structural
// validation behind the checksums in reach.
func FuzzReadSnapshot(f *testing.F) {
	images := func(fs ...*Frozen) [][]byte {
		var out [][]byte
		for _, fr := range fs {
			var buf bytes.Buffer
			if err := fr.WriteSnapshot(&buf); err != nil {
				f.Fatal(err)
			}
			out = append(out, buf.Bytes())
		}
		return out
	}
	_, plain := buildBoth(3, 6, 12, []string{"a", "b"}, []string{"e", "f", Wildcard})
	d := NewDelta(plain)
	d.RemoveNode(1)
	d.SetAttr(d.AddNode("c"), "k", "v")
	d.AddEdge(0, 6, "g")
	_, attrOrder := attrOrderFixture()
	seeds := images(NewBuilder(0).Freeze(), plain, plain.Refreeze(d), attrOrder)
	for _, img := range append(seeds, dataOnTombstoneImages(f)...) {
		f.Add(img)
	}
	f.Add(seeds[2][:len(seeds[2])/2]) // truncated
	f.Add(swappedLabelIndexImage(f))
	for _, img := range repeatedLabelImages(f) {
		f.Add(img)
	}
	for _, img := range disorderedRunImages(f) {
		f.Add(img)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		readBack(t, data)
		if len(data) >= 28 {
			sealed := append([]byte(nil), data...)
			binary.LittleEndian.PutUint64(sealed[12:], uint64(len(sealed)-28))
			binary.LittleEndian.PutUint32(sealed[20:], crc32.ChecksumIEEE(sealed[28:]))
			binary.LittleEndian.PutUint32(sealed[24:], crc32.ChecksumIEEE(sealed[:24]))
			readBack(t, sealed)
		}
	})
}

// readBack reads an image and, when ReadSnapshot accepts it, checks that
// the snapshot writes back to the same bytes, serves its rows and compacts.
func readBack(t *testing.T, data []byte) {
	t.Helper()
	g, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		return
	}
	var buf bytes.Buffer
	if err := g.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot of a loaded image: %v", err)
	}
	image := data[:28+binary.LittleEndian.Uint64(data[12:])]
	if !bytes.Equal(buf.Bytes(), image) {
		t.Fatalf("accepted image does not write back byte-identically:\n got %x\nwant %x", buf.Bytes(), image)
	}
	if g.payloadSize() != len(image)-28 {
		t.Fatalf("payload of %d bytes, payloadSize %d", len(image)-28, g.payloadSize())
	}
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		g.Out(v)
		g.InByLabelID(v, AnyLabel)
	}
	CandidateNodes(g, Wildcard)
	c, _ := g.Compact()
	for v := NodeID(0); int(v) < c.NumNodes(); v++ {
		c.Attrs(v)
		c.Out(v)
	}
}

// dataOnTombstoneImages writes three images of a three-node graph with one
// node tombstoned: the node carrying an attribute, the source of the edge,
// then its target. RemoveNode never leaves a dead node with attributes or
// edges, so each image is corrupt, though its checksums hold.
func dataOnTombstoneImages(tb testing.TB) [][]byte {
	var out [][]byte
	for v := NodeID(0); v < 3; v++ {
		b := NewBuilder(1)
		x, y, z := b.AddNode("a"), b.AddNode("a"), b.AddNode("a")
		b.SetAttr(x, "k", "v")
		b.AddEdge(y, z, "e")
		bad := b.Freeze()
		bad.dead = make([]bool, bad.NumNodes())
		bad.dead[v], bad.deadCount = true, 1
		var buf bytes.Buffer
		if err := bad.WriteSnapshot(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestReadSnapshotRejectsDataOnTombstones: an image whose tombstoned node
// still carries attributes or edges must not load, or Compact would panic
// on the snapshot later.
func TestReadSnapshotRejectsDataOnTombstones(t *testing.T) {
	for i, img := range dataOnTombstoneImages(t) {
		if _, err := ReadSnapshot(bytes.NewReader(img)); err == nil {
			t.Fatalf("image %d: a tombstoned node with attributes or edges loaded", i)
		}
	}
}

// swappedLabelIndexImage writes a two-node graph, node 0 labelled A and
// node 1 labelled B, with the two entries of its nodes-by-label index
// swapped: its checksums hold and it writes back byte for byte, but the
// index would answer node 1 for label A.
func swappedLabelIndexImage(tb testing.TB) []byte {
	b := NewBuilder(0)
	b.AddNode("A")
	b.AddNode("B")
	bad := b.Freeze()
	bad.byLabelNodes[0], bad.byLabelNodes[1] = bad.byLabelNodes[1], bad.byLabelNodes[0]
	var buf bytes.Buffer
	if err := bad.WriteSnapshot(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadSnapshotRejectsMislabelledIndex: the nodes-by-label index must be
// the one the node labels give, or searches on the loaded snapshot would
// start from nodes of another label.
func TestReadSnapshotRejectsMislabelledIndex(t *testing.T) {
	if g, err := ReadSnapshot(bytes.NewReader(swappedLabelIndexImage(t))); err == nil {
		t.Fatalf("a swapped nodes-by-label index loaded: candidates of A are %v", g.AppendCandidates(nil, "A"))
	}
}

// repeatedLabelImages writes a graph of nodes a and b with edges 0→1 e and
// 1→0 f twice: once with its node-label table patched to a, a, once with
// its edge-label table patched to e, e. The checksums and the
// nodes-by-label index hold, but a lookup by name would find one of the
// two IDs: candidates of a would miss node 0, or HasEdge(0, 1, "e") would
// miss the edge.
func repeatedLabelImages(tb testing.TB) [][]byte {
	var out [][]byte
	for _, edge := range []bool{false, true} {
		b := NewBuilder(2)
		x, y := b.AddNode("a"), b.AddNode("b")
		b.AddEdge(x, y, "e")
		b.AddEdge(y, x, "f")
		bad := b.Freeze()
		if edge {
			bad.edgeLabels.strs[1] = "e"
		} else {
			bad.nodeLabels.strs[1] = "a"
		}
		var buf bytes.Buffer
		if err := bad.WriteSnapshot(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestReadSnapshotRejectsRepeatedLabel: a label table must name each label
// once, and the error names the table and the label.
func TestReadSnapshotRejectsRepeatedLabel(t *testing.T) {
	images := repeatedLabelImages(t)
	for i, want := range []string{`node-label table repeats label "a"`, `edge-label table repeats label "e"`} {
		g, err := ReadSnapshot(bytes.NewReader(images[i]))
		if err == nil {
			t.Fatalf("an image whose %s loaded: candidates of a are %v, HasEdge(0, 1, e) is %v",
				want, g.AppendCandidates(nil, "a"), g.HasEdgeID(0, 1, g.EdgeLabelID("e")))
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not say %s", err, want)
		}
	}
}

// disorderedRunImages writes a graph whose node 1 has out-edges to 0 and 2
// labelled e and one to 0 labelled f, twice: once with node 1's two label
// runs listed f before e, once with the endpoints of its e run as 2, 0.
// The checksums and every count hold, but a refreeze merges a row in
// (label, endpoint) order and a label query binary-searches its run, so
// either would miss an edge the image holds.
func disorderedRunImages(tb testing.TB) [][]byte {
	var out [][]byte
	for _, swapLabels := range []bool{true, false} {
		b := NewBuilder(3)
		x, y, z := b.AddNode("a"), b.AddNode("a"), b.AddNode("a")
		b.AddEdge(y, x, "e")
		b.AddEdge(y, z, "e")
		b.AddEdge(y, x, "f")
		bad := b.Freeze()
		h, d := bad.out.rows[y], &bad.out
		if swapLabels {
			// Runs [0 2] labelled e, [0] labelled f become [0] f, [0 2] e.
			copy(d.targets[h.lo:h.hi], []NodeID{x, x, z})
			d.dirLabels[h.dirLo], d.dirLabels[h.dirLo+1] = d.dirLabels[h.dirLo+1], d.dirLabels[h.dirLo]
			d.dirStart[h.dirLo+1] = h.lo + 1
		} else {
			d.targets[h.lo], d.targets[h.lo+1] = d.targets[h.lo+1], d.targets[h.lo]
		}
		var buf bytes.Buffer
		if err := bad.WriteSnapshot(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// TestReadSnapshotRejectsDisorderedRun: a row's label runs must ascend by
// label and each run's endpoints by node, or label queries miss edges; the
// error names the node.
func TestReadSnapshotRejectsDisorderedRun(t *testing.T) {
	for i, img := range disorderedRunImages(t) {
		g, err := ReadSnapshot(bytes.NewReader(img))
		if err == nil {
			t.Fatalf("image %d: a disordered label run loaded: HasEdge(1, 0, e) is %v", i, g.HasEdgeID(1, 0, g.EdgeLabelID("e")))
		}
		if !strings.Contains(err.Error(), "node 1 ") {
			t.Fatalf("image %d: error %q does not name node 1", i, err)
		}
	}
}

// attrOrderFixture is a refrozen snapshot whose delta gives every node that
// carries attributes the name "A", which sorts before every name of the
// base ("a0"…"a2"), with the value "w": the new name's ID comes after
// theirs, while a written tuple puts it first. The editable mirror holds
// the same graph.
func attrOrderFixture() (*Graph, *Frozen) {
	mirror, base := fuzzBase()
	d := NewDelta(base)
	for v := NodeID(0); int(v) < base.NumNodes(); v++ {
		if len(base.Attrs(v)) > 0 {
			mirror.SetAttr(v, "A", "w")
			d.SetAttr(v, "A", "w")
		}
	}
	return mirror, base.Refreeze(d)
}

// TestSnapshotAttrOrderAfterRefreeze writes attrOrderFixture's snapshot,
// reads it back and writes it again: the two images must be byte-identical,
// so an image depends on the graph and not on the order its attribute IDs
// were assigned in, and the loaded snapshot must hold the mirror's graph.
func TestSnapshotAttrOrderAfterRefreeze(t *testing.T) {
	mirror, refrozen := attrOrderFixture()
	mixed := false
	for v := NodeID(0); int(v) < refrozen.NumNodes(); v++ {
		mixed = mixed || len(refrozen.Attrs(v)) >= 2
	}
	if refrozen.AttrNameID("A") < refrozen.AttrNameID("a0") || !mixed {
		t.Fatal("fixture: the delta's name must get an ID after the base's, beside a base name")
	}
	var first, second bytes.Buffer
	if err := refrozen.WriteSnapshot(&first); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSnapshot(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("ReadSnapshot of a refrozen image: %v", err)
	}
	if err := loaded.WriteSnapshot(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("a refrozen snapshot's image does not write back byte-identically after a read")
	}
	checkReaderEquivalence(t, "loaded", mirror.Frozen(), loaded, fuzzNodeLabels, fuzzEdgeLabels)
}

// TestSnapshotEmptyAndTiny covers the degenerate shapes: the empty graph and
// a single attribute-less node.
func TestSnapshotEmptyAndTiny(t *testing.T) {
	for name, f := range map[string]*Frozen{
		"empty": NewBuilder(0).Freeze(),
		"one": func() *Frozen {
			b := NewBuilder(0)
			b.AddNode("a")
			return b.Freeze()
		}(),
	} {
		var buf bytes.Buffer
		if err := f.WriteSnapshot(&buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		loaded, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if loaded.NumNodes() != f.NumNodes() || loaded.NumEdges() != f.NumEdges() {
			t.Fatalf("%s: cardinalities diverge", name)
		}
		if got := CandidateNodes(loaded, Wildcard); len(got) != f.NumNodes() {
			t.Fatalf("%s: wildcard candidates %v", name, got)
		}
	}
}
