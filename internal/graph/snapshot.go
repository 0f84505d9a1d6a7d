// On-disk CSR snapshots. WriteSnapshot serializes a Frozen — label tables,
// node attributes, both CSR directions, the nodes-by-label index and the
// tombstone bitmap — into a versioned binary image; ReadSnapshot loads one
// back such that the result is query-identical to the source across the
// whole Reader API (pinned by the snapshot round-trip property tests). The
// format exists so a bulk-ingested graph is paid for once: loading an image
// is a checksum pass plus flat array decodes, an order of magnitude cheaper
// than re-sorting the edges from text (gated by the snapshot_load_speedup CI
// metric). Pair with the WAL (wal.go) for crash-consistent ingest: snapshot
// the base, log the deltas, Recover on restart.
//
// Layout (all integers little-endian):
//
//	magic   [8]byte "GFDSNAP1"
//	u32     format version (currently 1)
//	u64     payload length in bytes
//	u32     CRC-32 (IEEE) of the payload
//	u32     CRC-32 (IEEE) of the 24 header bytes above
//	payload
//
// The header checksum rejects a torn or corrupted header before any
// payload-sized allocation; the payload checksum guards the body. The
// payload is the Frozen's sections in fixed order: node-label and edge-label
// tables, per-node label IDs and attribute tuples, the out and in CSR
// directions (offsets, targets, wildcard view, label directory), the
// nodes-by-label index, and the optional tombstone bitmap.
package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

var snapshotMagic = [8]byte{'G', 'F', 'D', 'S', 'N', 'A', 'P', '1'}

// snapshotVersion is bumped when the payload layout changes; readers reject
// images from other versions rather than guessing.
const snapshotVersion = 1

// maxSnapshotPayload bounds the payload allocation a header can demand, so a
// corrupted length field that slips past the header checksum cannot OOM the
// loader.
const maxSnapshotPayload = 1 << 36

// LooksLikeSnapshot reports whether the byte prefix begins a binary snapshot
// image (callers sniff at least 8 bytes to dispatch between the text format
// and ReadSnapshot).
func LooksLikeSnapshot(prefix []byte) bool {
	return len(prefix) >= len(snapshotMagic) && bytes.Equal(prefix[:len(snapshotMagic)], snapshotMagic[:])
}

// snapEnc accumulates the payload in one slice, which WriteSnapshot sizes
// to the payload's length up front (payloadSize).
type snapEnc struct {
	buf []byte
	err error
}

func (e *snapEnc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

func (e *snapEnc) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *snapEnc) str(s string) {
	if len(s) > math.MaxUint32 {
		e.fail("string of %d bytes exceeds the format limit", len(s))
		return
	}
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// table writes a string table's strings in ID order.
func (e *snapEnc) table(t *strTable) {
	e.u32(t.size())
	for id := range t.size() {
		e.str(t.str(id))
	}
}

// extend appends n bytes for the caller to fill to the payload and
// returns them.
func (e *snapEnc) extend(n int) []byte {
	at := len(e.buf)
	e.buf = slices.Grow(e.buf, n)[:at+n]
	return e.buf[at:]
}

func (e *snapEnc) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("graph: snapshot: "+format, args...)
	}
}

// ints writes an integer slice as length-prefixed u32 elements. Every value
// the Frozen stores in these slices is a non-negative dense index bounded by
// the CSR's own 2^32 limit (see csrKey); a value outside that range means
// the snapshot is not expressible in the format.
func snapInts[T ~int | ~int32](e *snapEnc, xs []T) {
	e.u64(uint64(len(xs)))
	snapVals(e, xs, 0)
}

// snapVals writes the elements of xs, each plus shift, as snapInts does,
// without the length.
func snapVals[T ~int | ~int32](e *snapEnc, xs []T, shift T) {
	s := e.extend(4 * len(xs))
	for i, x := range xs {
		if x += shift; int64(x) < 0 || int64(x) > math.MaxUint32 {
			e.fail("value %d outside the format's u32 range", int64(x))
			return
		}
		binary.LittleEndian.PutUint32(s[4*i:], uint32(x))
	}
}

// offsets writes the len(rows)+1 offsets of rows laid back to back, row h
// width(h) entries long, and returns the entries they cover.
func (e *snapEnc) offsets(rows []rowHdr, width func(rowHdr) int32) int {
	e.u64(uint64(len(rows) + 1))
	s := e.extend(4 * (len(rows) + 1))
	at := int32(0)
	binary.LittleEndian.PutUint32(s, 0)
	for v, h := range rows {
		at += width(h)
		binary.LittleEndian.PutUint32(s[4*v+4:], uint32(at))
	}
	return int(at)
}

// dir writes one direction as an image holds it: every row back to back in
// node order, behind per-node offsets. Rows that lie back to back in
// storage are written as one run.
func (e *snapEnc) dir(d *csrDir) {
	n := e.offsets(d.rows, func(h rowHdr) int32 { return h.hi - h.lo })
	for _, xs := range [][]NodeID{d.targets, d.all} {
		e.u64(uint64(n))
		d.spans(func(lo, hi int) { snapVals(e, xs[d.rows[lo].lo:d.rows[hi-1].hi], 0) })
	}
	n = e.offsets(d.rows, func(h rowHdr) int32 { return h.dirHi - h.dirLo })
	e.u64(uint64(n))
	d.spans(func(lo, hi int) { snapVals(e, d.dirLabels[d.rows[lo].dirLo:d.rows[hi-1].dirHi], 0) })
	e.u64(uint64(n))
	at := int32(0)
	d.spans(func(lo, hi int) {
		first, last := d.rows[lo], d.rows[hi-1]
		snapVals(e, d.dirStart[first.dirLo:last.dirHi], at-first.lo)
		at += last.hi - first.lo
	})
}

// payloadSize returns the length of f's snapshot payload: what WriteSnapshot
// writes, counted from the string lengths and the rows' live entries.
func (f *Frozen) payloadSize() int {
	n := 4 + 4 + 4 + 8 + 4 // the two label-table counts, |V|, |E|, the tombstone flag
	for _, t := range []*strTable{f.nodeLabels, f.edgeLabels} {
		for id := range t.size() {
			n += 4 + len(t.str(id))
		}
	}
	n += 4 * f.NumNodes() // tuple lengths
	for v := range f.NumNodes() {
		for _, k := range f.attrRun(NodeID(v)) {
			n += 8 + len(f.attrNames.str(uint32(k>>32))) + len(f.attrValues.str(uint32(k)))
		}
	}
	// The rows' live entries, not their storage, which may hold dead ones.
	ints := []int{len(f.nodeLabelOf), len(f.byLabelOff), len(f.byLabelNodes)}
	for _, d := range []*csrDir{&f.out, &f.in} {
		dirs := 0
		for _, h := range d.rows {
			dirs += int(h.dirHi - h.dirLo)
		}
		ints = append(ints, len(d.rows)+1, f.edges, f.edges, len(d.rows)+1, dirs, dirs)
	}
	for _, l := range ints {
		n += 8 + 4*l
	}
	if f.dead != nil {
		n += (len(f.dead) + 7) / 8
	}
	return n
}

// WriteSnapshot serializes the snapshot into the versioned binary image
// described in the package comment for snapshot.go. The write is buffered in
// memory (the header carries the payload checksum), so w receives either the
// complete image or, on error, nothing beyond what it already consumed.
func (f *Frozen) WriteSnapshot(w io.Writer) error {
	e := &snapEnc{buf: make([]byte, 0, f.payloadSize())}
	e.table(f.nodeLabels)
	e.table(f.edgeLabels)
	e.u32(uint32(f.NumNodes()))
	snapInts(e, f.nodeLabelOf)
	// Each tuple is written in name order, whatever order the IDs were
	// assigned in, so an image depends on the graph alone.
	order, rank := f.nameOrder()
	var byName []uint64
	for v := range f.NumNodes() {
		byName = byName[:0]
		for _, k := range f.attrRun(NodeID(v)) {
			byName = append(byName, uint64(rank[k>>32])<<32|k&math.MaxUint32)
		}
		slices.Sort(byName)
		e.u32(uint32(len(byName)))
		for _, k := range byName {
			e.str(f.attrNames.str(order[k>>32]))
			e.str(f.attrValues.str(uint32(k)))
		}
	}
	e.u64(uint64(f.edges))
	e.dir(&f.out)
	e.dir(&f.in)
	snapInts(e, f.byLabelOff)
	snapInts(e, f.byLabelNodes)
	if f.dead == nil {
		e.u32(0)
	} else {
		e.u32(1)
		packed := e.extend((len(f.dead) + 7) / 8)
		clear(packed)
		for v, dd := range f.dead {
			if dd {
				packed[v/8] |= 1 << (v % 8)
			}
		}
	}
	if e.err != nil {
		return e.err
	}

	payload := e.buf
	var header [28]byte
	copy(header[:8], snapshotMagic[:])
	binary.LittleEndian.PutUint32(header[8:], snapshotVersion)
	binary.LittleEndian.PutUint64(header[12:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(header[20:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(header[24:], crc32.ChecksumIEEE(header[:24]))
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("graph: snapshot: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("graph: snapshot: write payload: %w", err)
	}
	return nil
}

// snapDec walks the payload; every accessor bounds-checks before slicing so
// a malformed image fails with an error instead of a panic.
type snapDec struct {
	b   []byte
	pos int
	err error
}

func (d *snapDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("graph: snapshot: "+format, args...)
	}
}

func (d *snapDec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.pos+n > len(d.b) {
		d.fail("truncated payload (need %d bytes at offset %d of %d)", n, d.pos, len(d.b))
		return nil
	}
	s := d.b[d.pos : d.pos+n]
	d.pos += n
	return s
}

func (d *snapDec) u32() uint32 {
	s := d.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (d *snapDec) u64() uint64 {
	s := d.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (d *snapDec) str() string { return string(d.bytes()) }

// bytes returns a length-prefixed string's bytes, aliasing the payload.
func (d *snapDec) bytes() []byte {
	n := d.u32()
	return d.take(int(n))
}

// table reads a label table snapEnc.table wrote; what names it in errors.
// A label may appear once: a repeat would split its nodes or edges over two
// IDs, of which a lookup by name finds one.
func (d *snapDec) table(what string) *strTable {
	t := newLayer(nil)
	n := int(d.u32())
	// Each string needs at least its 4-byte length prefix: a count that
	// cannot fit in the remaining payload is corrupt, and must fail before
	// it sizes anything.
	if d.err == nil && n > (len(d.b)-d.pos)/4 {
		d.fail("%s table of %d entries exceeds remaining payload", what, n)
	}
	for i := 0; i < n && d.err == nil; i++ {
		s := d.bytes()
		if _, dup := t.ids[string(s)]; dup {
			d.fail("%s table repeats label %q", what, s)
		}
		t.add(string(s))
	}
	return t
}

// count reads a slice length and sanity-checks it against the bytes that
// remain, so a corrupt length cannot demand an absurd allocation.
func (d *snapDec) count(elem int) int {
	n := d.u64()
	if d.err != nil {
		return 0
	}
	if n > uint64(len(d.b)-d.pos)/uint64(elem) {
		d.fail("slice length %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

// snapIntsOut reads a slice snapInts wrote, each value below limit.
func snapIntsOut[T ~int | ~int32](d *snapDec, limit int) []T {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	s := d.take(4 * n)
	if s == nil {
		return nil
	}
	xs := make([]T, n)
	over := false
	for i := range xs {
		x := binary.LittleEndian.Uint32(s[4*i:])
		over = over || uint64(x) >= uint64(limit)
		xs[i] = T(x)
	}
	if over {
		d.fail("value outside [0, %d)", limit)
		return nil
	}
	return xs
}

// offsets takes the n+1 u32 offsets snapEnc.offsets wrote, as bytes.
func (d *snapDec) offsets(n int) []byte {
	if m := d.count(4); d.err == nil && m != n+1 {
		d.fail("CSR offset array sized %d, want %d", m, n+1)
	}
	return d.take(4 * (n + 1))
}

// dir decodes one CSR direction with full structural validation: the CRCs
// only catch accidental corruption, so a checksum-valid but inconsistent
// image (crafted, or from a buggy writer) must fail here with an error —
// never load and then panic inside a query, nor answer one wrongly.
func (d *snapDec) dir(n, nLabels int) csrDir {
	off := d.offsets(n)
	targets, all := snapIntsOut[NodeID](d, n), snapIntsOut[NodeID](d, n)
	dirOff := d.offsets(n)
	dirLabels, dirStart := snapIntsOut[LabelID](d, nLabels), snapIntsOut[int32](d, math.MaxInt32)
	c := csrDir{targets: targets, all: all, dirLabels: dirLabels, dirStart: dirStart}
	if d.err != nil {
		return c
	}
	u32 := func(b []byte, i int) int32 { return int32(binary.LittleEndian.Uint32(b[4*i:])) }
	switch {
	case len(c.all) != len(c.targets):
		d.fail("wildcard view sized %d, want %d", len(c.all), len(c.targets))
	case len(c.dirStart) != len(c.dirLabels):
		d.fail("label directory arrays sized %d/%d", len(c.dirStart), len(c.dirLabels))
	case u32(off, 0) != 0 || u32(dirOff, 0) != 0 || int(u32(off, n)) != len(c.targets) || int(u32(dirOff, n)) != len(c.dirLabels):
		d.fail("CSR offsets do not cover the arrays")
	}
	// One pass builds the headers and holds each row's directory to what
	// byLabel and has rely on: its label runs, each non-empty, cover the
	// row in directory order — individually-in-range starts like [5, 2]
	// would otherwise load fine and panic on the first labeled query — and
	// its labels strictly ascend.
	c.rows = make([]rowHdr, n)
	var h rowHdr
	for v := 0; v < n && d.err == nil; v++ {
		h = rowHdr{h.hi, u32(off, v+1), h.dirHi, u32(dirOff, v+1)}
		c.rows[v] = h
		if h.hi < h.lo || h.dirHi < h.dirLo || int(h.hi) > len(c.targets) || int(h.dirHi) > len(c.dirLabels) {
			d.fail("CSR offsets are not monotone")
		} else if (h.lo == h.hi) != (h.dirLo == h.dirHi) {
			d.fail("node %d label directory does not cover its row [%d,%d)", v, h.lo, h.hi)
		}
		for i := h.dirLo; i < h.dirHi && d.err == nil; i++ {
			if s := c.dirStart[i]; i == h.dirLo && s != h.lo || i > h.dirLo && s <= c.dirStart[i-1] || s >= h.hi {
				d.fail("node %d label directory does not cover its row [%d,%d)", v, h.lo, h.hi)
			} else if i > h.dirLo && c.dirLabels[i] <= c.dirLabels[i-1] {
				d.fail("node %d label directory not in ascending label order", v)
			}
		}
		// Each run's endpoints strictly ascend.
		for i, e := h.dirHi-1, h.hi; i >= h.dirLo && d.err == nil; i-- {
			if !strictlyAscends(c.targets[c.dirStart[i]:e]) {
				d.fail("node %d endpoints of a label not strictly ascending", v)
			}
			e = c.dirStart[i]
		}
	}
	return c
}

// strictlyAscends reports whether each entry of xs exceeds the one before.
func strictlyAscends(xs []NodeID) bool {
	for j := 1; j < len(xs); j++ {
		if xs[j] <= xs[j-1] {
			return false
		}
	}
	return true
}

// ReadSnapshot loads a snapshot written by WriteSnapshot. The header's magic,
// version and checksums are verified before the payload is decoded; the
// returned Frozen is query-identical to the one serialized.
func ReadSnapshot(r io.Reader) (*Frozen, error) {
	var header [28]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return nil, fmt.Errorf("graph: snapshot: read header: %w", err)
	}
	if !bytes.Equal(header[:8], snapshotMagic[:]) {
		return nil, fmt.Errorf("graph: snapshot: bad magic (not a snapshot image)")
	}
	if crc := crc32.ChecksumIEEE(header[:24]); crc != binary.LittleEndian.Uint32(header[24:]) {
		return nil, fmt.Errorf("graph: snapshot: header checksum mismatch")
	}
	if v := binary.LittleEndian.Uint32(header[8:]); v != snapshotVersion {
		return nil, fmt.Errorf("graph: snapshot: format version %d, want %d", v, snapshotVersion)
	}
	plen := binary.LittleEndian.Uint64(header[12:])
	if plen > maxSnapshotPayload {
		return nil, fmt.Errorf("graph: snapshot: payload length %d exceeds limit", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("graph: snapshot: read payload: %w", err)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(header[20:]) {
		return nil, fmt.Errorf("graph: snapshot: payload checksum mismatch")
	}

	d := &snapDec{b: payload}
	f := &Frozen{}
	f.nodeLabels = d.table("node-label")
	f.edgeLabels = d.table("edge-label")
	n := int(d.u32())
	f.nodeLabelOf = snapIntsOut[LabelID](d, int(f.nodeLabels.size()))
	if d.err == nil && len(f.nodeLabelOf) != n {
		d.fail("node label array sized %d, want %d", len(f.nodeLabelOf), n)
	}
	var attrs *attrBuilder
	if d.err == nil {
		attrs = &attrBuilder{names: newLayer(nil), values: newLayer(nil), rows: make([]span, n)}
		for v := 0; v < n; v++ {
			// Each attribute needs at least two 4-byte length prefixes;
			// reject corrupt counts before they size anything.
			na := int(d.u32())
			if na > (len(d.b)-d.pos)/8 {
				d.fail("node %d claims %d attributes beyond remaining payload", v, na)
			} else {
				var prev []byte
				for i := 0; i < na && d.err == nil; i++ {
					k := d.bytes()
					if i > 0 && bytes.Compare(k, prev) <= 0 {
						// WriteSnapshot writes a tuple in name order, so
						// anything else would not write back as it was read.
						d.fail("node %d attribute keys not strictly ascending", v)
					}
					val := d.bytes()
					attrs.keys = append(attrs.keys, attrKey(AttrID(attrs.names.internBytes(k)), ValueID(attrs.values.internBytes(val))))
					prev = k
				}
			}
			if d.err != nil {
				break
			}
			attrs.endRow(NodeID(v), na)
		}
	}
	f.edges = int(d.u64())
	f.out = d.dir(n, int(f.edgeLabels.size()))
	f.in = d.dir(n, int(f.edgeLabels.size()))
	if d.err == nil && (f.edges != len(f.out.targets) || len(f.in.targets) != len(f.out.targets)) {
		// WriteSnapshot derives edges from the out CSR; an image where the
		// recorded count disagrees (or the directions disagree with each
		// other) would serve a silently wrong NumEdges.
		d.fail("edge count %d disagrees with CSR rows (%d out, %d in)",
			f.edges, len(f.out.targets), len(f.in.targets))
	}
	byLabelOff := snapIntsOut[int32](d, math.MaxInt32)
	byLabelNodes := snapIntsOut[NodeID](d, n)
	switch flag := d.u32(); {
	case flag > 1:
		d.fail("tombstone flag %d, want 0 or 1", flag)
	case flag == 1:
		packed := d.take((n + 7) / 8)
		if d.err == nil && n%8 != 0 && packed[n/8]>>(n%8) != 0 {
			d.fail("tombstone bitmap sets bits past node %d", n)
		}
		if d.err == nil {
			f.dead = make([]bool, n)
			for v := range f.dead {
				if packed[v/8]&(1<<(v%8)) != 0 {
					f.dead[v] = true
					f.deadCount++
				}
			}
		}
	}
	if d.err == nil && f.dead != nil {
		// A tombstoned node owns no attributes and no edges (the
		// RemoveNode/Delta invariant Compact relies on).
		for v, dd := range f.dead {
			switch {
			case !dd:
			case attrs.rows[v].hi != attrs.rows[v].lo:
				d.fail("tombstoned node %d carries attributes", v)
			case f.out.rows[v].hi != f.out.rows[v].lo || f.in.rows[v].hi != f.in.rows[v].lo:
				d.fail("tombstoned node %d owns edges", v)
			}
			if d.err != nil {
				break
			}
		}
	}
	if d.err == nil {
		// The index is derived data: an image whose stored index is not
		// the one its labels and tombstones give would serve wrong
		// candidates.
		f.indexLabels()
		if !slices.Equal(byLabelOff, f.byLabelOff) || !slices.Equal(byLabelNodes, f.byLabelNodes) {
			d.fail("nodes-by-label index disagrees with the node labels")
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.b) {
		return nil, fmt.Errorf("graph: snapshot: %d trailing bytes after payload", len(d.b)-d.pos)
	}
	attrs.into(f)
	return f, nil
}
