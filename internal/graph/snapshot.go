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

func (e *snapEnc) strs(ss []string) {
	e.u32(uint32(len(ss)))
	for _, s := range ss {
		e.str(s)
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
	s := e.extend(4 * len(xs))
	for i, x := range xs {
		if int64(x) < 0 || int64(x) > math.MaxUint32 {
			e.fail("value %d outside the format's u32 range", int64(x))
			return
		}
		binary.LittleEndian.PutUint32(s[4*i:], uint32(x))
	}
}

func (e *snapEnc) dir(d *csrDir) {
	snapInts(e, d.off)
	snapInts(e, d.targets)
	snapInts(e, d.all)
	snapInts(e, d.dirOff)
	snapInts(e, d.dirLabels)
	snapInts(e, d.dirStart)
}

// payloadSize returns the length of f's snapshot payload: what WriteSnapshot
// writes, counted from the slice and string lengths.
func (f *Frozen) payloadSize() int {
	n := 4 + 4 + 4 + 8 + 4 // the two label-table counts, |V|, |E|, the tombstone flag
	for _, s := range f.nodeLabelNames {
		n += 4 + len(s)
	}
	for _, s := range f.labelNames {
		n += 4 + len(s)
	}
	n += 4 * f.NumNodes() // tuple lengths
	for _, k := range f.attrKeys {
		n += 8 + len(f.attrNames.str(uint32(k>>32))) + len(f.attrValues.str(uint32(k)))
	}
	ints := []int{len(f.nodeLabelOf), len(f.byLabelOff), len(f.byLabelNodes)}
	for _, d := range []*csrDir{&f.out, &f.in} {
		ints = append(ints, len(d.off), len(d.targets), len(d.all), len(d.dirOff), len(d.dirLabels), len(d.dirStart))
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
	e.strs(f.nodeLabelNames)
	e.strs(f.labelNames)
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

func (d *snapDec) strs() []string {
	n := int(d.u32())
	if d.err != nil || n == 0 {
		return nil
	}
	// Each string needs at least its 4-byte length prefix: a count that
	// cannot fit in the remaining payload is corrupt, and must fail before
	// it sizes an allocation.
	if n < 0 || n > (len(d.b)-d.pos)/4 {
		d.fail("string table of %d entries exceeds remaining payload", n)
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.str()
	}
	return ss
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

func snapIntsOut[T ~int | ~int32](d *snapDec) []T {
	n := d.count(4)
	if d.err != nil || n == 0 {
		return nil
	}
	s := d.take(4 * n)
	if s == nil {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = T(binary.LittleEndian.Uint32(s[4*i:]))
	}
	return xs
}

// monotone reports whether offsets start at 0 and never decrease —
// required before they are used as slice bounds (a u32 value past 2^31
// also fails here, having wrapped negative in the int32 decode).
func monotone(off []int32) bool {
	if len(off) > 0 && off[0] != 0 {
		return false
	}
	for i := 1; i < len(off); i++ {
		if off[i] < off[i-1] {
			return false
		}
	}
	return true
}

// idsInRange reports whether every decoded node ID lies in [0, n).
func idsInRange(ids []NodeID, n int) bool {
	for _, v := range ids {
		if v < 0 || int(v) >= n {
			return false
		}
	}
	return true
}

// dir decodes one CSR direction with full structural validation: the CRCs
// only catch accidental corruption, so a checksum-valid but inconsistent
// image (crafted, or from a buggy writer) must fail here with an error —
// never load and then panic inside a query.
func (d *snapDec) dir(n, nLabels int) csrDir {
	c := csrDir{
		off:       snapIntsOut[int32](d),
		targets:   snapIntsOut[NodeID](d),
		all:       snapIntsOut[NodeID](d),
		dirOff:    snapIntsOut[int32](d),
		dirLabels: snapIntsOut[LabelID](d),
		dirStart:  snapIntsOut[int32](d),
	}
	if d.err != nil {
		return c
	}
	switch {
	case len(c.off) != n+1 || len(c.dirOff) != n+1:
		d.fail("CSR offset arrays sized %d/%d, want %d", len(c.off), len(c.dirOff), n+1)
	case len(c.all) != len(c.targets):
		d.fail("wildcard view sized %d, want %d", len(c.all), len(c.targets))
	case len(c.dirStart) != len(c.dirLabels):
		d.fail("label directory arrays sized %d/%d", len(c.dirStart), len(c.dirLabels))
	case n > 0 && (int(c.off[n]) != len(c.targets) || int(c.dirOff[n]) != len(c.dirLabels)):
		d.fail("CSR offsets do not cover the arrays")
	case n == 0 && len(c.targets) > 0:
		d.fail("edge rows without nodes")
	case !monotone(c.off) || !monotone(c.dirOff):
		d.fail("CSR offsets are not monotone")
	case !idsInRange(c.targets, n) || !idsInRange(c.all, n):
		d.fail("edge endpoint outside the node space")
	}
	if d.err == nil {
		for _, l := range c.dirLabels {
			if l < 0 || int(l) >= nLabels {
				d.fail("directory references label %d of %d", l, nLabels)
				break
			}
		}
	}
	if d.err == nil {
		// Per-row directory bounds: byLabel/forEachRun slice
		// targets[dirStart[i]:dirStart[i+1]] (or :off[v+1] for the last
		// label), so every start must sit inside its own row and ascend —
		// individually-in-range values like [5, 2] would otherwise load fine
		// and panic on the first labeled query.
	rows:
		for v := 0; v+1 < len(c.off); v++ {
			prev := c.off[v]
			for i := c.dirOff[v]; i < c.dirOff[v+1]; i++ {
				s := c.dirStart[i]
				if s < prev || s > c.off[v+1] {
					d.fail("node %d label directory start %d outside its row [%d,%d)", v, s, c.off[v], c.off[v+1])
					break rows
				}
				prev = s
			}
		}
	}
	if c.off == nil {
		// An empty graph round-trips to nil slices; the CSR accessors index
		// off[v+1], so restore the canonical one-element arrays.
		c.off = make([]int32, n+1)
		c.dirOff = make([]int32, n+1)
	}
	return c
}

// internTable rebuilds the name→ID map a Frozen keeps beside a name table.
func internTable(names []string) map[string]LabelID {
	m := make(map[string]LabelID, len(names))
	for i, s := range names {
		m[s] = LabelID(i)
	}
	return m
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
	f.nodeLabelNames = d.strs()
	f.labelNames = d.strs()
	n := int(d.u32())
	f.nodeLabelOf = snapIntsOut[LabelID](d)
	if d.err == nil && len(f.nodeLabelOf) != n {
		d.fail("node label array sized %d, want %d", len(f.nodeLabelOf), n)
	}
	var attrs *attrBuilder
	if d.err == nil {
		attrs = newAttrBuilder(n, newLayer(nil), newLayer(nil))
		for v := 0; v < n; v++ {
			lid := f.nodeLabelOf[v]
			if lid < 0 || int(lid) >= len(f.nodeLabelNames) {
				d.fail("node %d references label %d of %d", v, lid, len(f.nodeLabelNames))
				break
			}
			// Each attribute needs at least two 4-byte length prefixes;
			// reject corrupt counts before they size anything.
			if na := int(d.u32()); na > (len(d.b)-d.pos)/8 {
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
					attrs.rows = append(attrs.rows, attrKey(AttrID(attrs.names.internBytes(k)), ValueID(attrs.values.internBytes(val))))
					prev = k
				}
			}
			if d.err != nil {
				break
			}
			attrs.endRow()
		}
	}
	f.edges = int(d.u64())
	f.out = d.dir(n, len(f.labelNames))
	f.in = d.dir(n, len(f.labelNames))
	if d.err == nil && (f.edges != len(f.out.targets) || len(f.in.targets) != len(f.out.targets)) {
		// WriteSnapshot derives edges from the out CSR; an image where the
		// recorded count disagrees (or the directions disagree with each
		// other) would serve a silently wrong NumEdges.
		d.fail("edge count %d disagrees with CSR rows (%d out, %d in)",
			f.edges, len(f.out.targets), len(f.in.targets))
	}
	f.byLabelOff = snapIntsOut[int32](d)
	f.byLabelNodes = snapIntsOut[NodeID](d)
	if d.err == nil {
		nl := len(f.nodeLabelNames)
		switch {
		case len(f.byLabelOff) != nl+1:
			d.fail("nodes-by-label offsets sized %d, want %d", len(f.byLabelOff), nl+1)
		case !monotone(f.byLabelOff):
			d.fail("nodes-by-label offsets are not monotone")
		case int(f.byLabelOff[nl]) != len(f.byLabelNodes):
			d.fail("nodes-by-label offsets do not cover the array")
		case !idsInRange(f.byLabelNodes, n):
			d.fail("nodes-by-label entry outside the node space")
		}
	}
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
			case attrs.off[v+1] != attrs.off[v]:
				d.fail("tombstoned node %d carries attributes", v)
			case f.out.off[v+1] != f.out.off[v] || f.in.off[v+1] != f.in.off[v]:
				d.fail("tombstoned node %d owns edges", v)
			}
			if d.err != nil {
				break
			}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.pos != len(d.b) {
		return nil, fmt.Errorf("graph: snapshot: %d trailing bytes after payload", len(d.b)-d.pos)
	}
	f.nodeLabelIDs = internTable(f.nodeLabelNames)
	f.labelIDs = internTable(f.labelNames)
	attrs.into(f)
	return f, nil
}
