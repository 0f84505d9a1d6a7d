// On-disk CSR snapshots. WriteSnapshot serializes a Frozen — label tables,
// node attributes, both CSR directions, the nodes-by-label index and the
// tombstone bitmap — into a versioned binary image; ReadSnapshot loads one
// back such that the result is query-identical to the source across the
// whole Reader API (pinned by the snapshot round-trip property tests). The
// format exists so a bulk-ingested graph is paid for once: loading an image
// is one streamed pass that sums the checksum and decodes flat arrays
// through a fixed window, an order of magnitude cheaper than re-sorting the
// edges from text (gated by the snapshot_load_speedup CI metric). Pair with
// the WAL (wal.go) for crash-consistent ingest: snapshot the base, log the
// deltas, Recover on restart.
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
// The header checksum rejects a torn or corrupted header before anything
// is sized by it; the payload checksum guards the body. The payload is the
// Frozen's sections in fixed order: node-label and edge-label tables,
// per-node label IDs and attribute tuples, the out and in CSR directions
// (offsets, targets, wildcard view, label directory), the nodes-by-label
// index, and the optional tombstone bitmap.
package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

var snapshotMagic = [8]byte{'G', 'F', 'D', 'S', 'N', 'A', 'P', '1'}

// snapshotVersion is bumped when the payload layout changes; readers reject
// images from other versions rather than guessing.
const snapshotVersion = 1

// maxSnapshotPayload bounds the payload length a header may claim. A source
// that knows its size bounds it tighter (ReadSnapshot); for one that does
// not, a pipe, this is what bounds the arrays a corrupt count may size
// before the read runs out.
const maxSnapshotPayload = 1 << 36

// LooksLikeSnapshot reports whether the byte prefix begins a binary snapshot
// image (callers sniff at least 8 bytes to dispatch between the text format
// and ReadSnapshot).
func LooksLikeSnapshot(prefix []byte) bool {
	return len(prefix) >= len(snapshotMagic) && bytes.Equal(prefix[:len(snapshotMagic)], snapshotMagic[:])
}

// snapWindow is how much of a payload ReadSnapshot and a streamed
// WriteSnapshot hold at once, unless one string or the tombstone bitmap is
// longer.
const snapWindow = 64 << 10

// snapEnc encodes a payload into buf. A streamed encoder (w set) writes buf
// to w before the next bytes would overflow its window; a buffered one is
// sized to the whole payload (payloadSize). crc and n sum what flush saw.
type snapEnc struct {
	w   io.Writer
	buf []byte
	n   int
	crc uint32
	err error
}

// flush sums buf and, when streaming, writes it out and empties it; after a
// failed write it writes nothing more.
func (e *snapEnc) flush() {
	e.crc = crc32.Update(e.crc, crc32.IEEETable, e.buf)
	e.n += len(e.buf)
	if e.w == nil {
		return
	}
	if _, err := e.w.Write(e.buf); err != nil {
		e.fail("write payload: %w", err)
		e.w = io.Discard
	}
	e.buf = e.buf[:0]
}

// extend appends n bytes for the caller to fill to the payload and
// returns them.
func (e *snapEnc) extend(n int) []byte {
	if len(e.buf)+n > cap(e.buf) {
		e.spill(n)
	}
	e.buf = e.buf[:len(e.buf)+n]
	return e.buf[len(e.buf)-n:]
}

// spill makes room for n more bytes: a streamed encoder writes its window
// out first, and buf grows if they still do not fit.
func (e *snapEnc) spill(n int) {
	if e.w != nil {
		e.flush()
	}
	e.buf = slices.Grow(e.buf, n)
}

func (e *snapEnc) u32(v uint32) { binary.LittleEndian.PutUint32(e.extend(4), v) }

func (e *snapEnc) u64(v uint64) { binary.LittleEndian.PutUint64(e.extend(8), v) }

func (e *snapEnc) str(s string) {
	if len(s) > math.MaxUint32 {
		e.fail("string of %d bytes exceeds the format limit", len(s))
		return
	}
	e.u32(uint32(len(s)))
	copy(e.extend(len(s)), s)
}

// table writes a string table's strings in ID order.
func (e *snapEnc) table(t *strTable) {
	e.u32(t.size())
	for id := range t.size() {
		e.str(t.str(id))
	}
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
	for len(xs) > 0 {
		k := min(len(xs), snapWindow/4)
		s := e.extend(4 * k)
		for i, x := range xs[:k] {
			if x += shift; int64(x) < 0 || int64(x) > math.MaxUint32 {
				e.fail("value %d outside the format's u32 range", int64(x))
				return
			}
			binary.LittleEndian.PutUint32(s[4*i:], uint32(x))
		}
		xs = xs[k:]
	}
}

// offsets writes the len(rows)+1 offsets of rows laid back to back, row h
// width(h) entries long, and returns the entries they cover.
func (e *snapEnc) offsets(rows []rowHdr, width func(rowHdr) int32) int {
	e.u64(uint64(len(rows) + 1))
	at := int32(0)
	e.u32(0)
	for _, h := range rows {
		at += width(h)
		e.u32(uint32(at))
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
// described in the package comment for snapshot.go. To an io.WriterAt (a
// file not opened to append) it streams a zero header, the payload through
// a window of snapWindow bytes, then the real header where the image
// starts, so a failed write leaves a header that never loads. Any other w
// gets the header and then the payload from one buffer sized to it, or on
// error nothing beyond what w already consumed. Both get the same bytes.
func (f *Frozen) WriteSnapshot(w io.Writer) error {
	var header [28]byte
	wa, start, streamed := streamStart(w)
	e := &snapEnc{}
	if !streamed {
		e.buf = make([]byte, 0, f.payloadSize())
	} else if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("graph: snapshot: write header: %w", err)
	} else {
		e.w, e.buf = w, make([]byte, 0, snapWindow)
	}
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
	if e.flush(); e.err != nil {
		return e.err
	}

	copy(header[:8], snapshotMagic[:])
	binary.LittleEndian.PutUint32(header[8:], snapshotVersion)
	binary.LittleEndian.PutUint64(header[12:], uint64(e.n))
	binary.LittleEndian.PutUint32(header[20:], e.crc)
	binary.LittleEndian.PutUint32(header[24:], crc32.ChecksumIEEE(header[:24]))
	if streamed {
		if _, err := wa.WriteAt(header[:], start); err != nil {
			return fmt.Errorf("graph: snapshot: write header: %w", err)
		}
		return nil
	}
	if _, err := w.Write(header[:]); err != nil {
		return fmt.Errorf("graph: snapshot: write header: %w", err)
	}
	if _, err := w.Write(e.buf); err != nil {
		return fmt.Errorf("graph: snapshot: write payload: %w", err)
	}
	return nil
}

// streamStart reports whether WriteSnapshot can stream to w, and at which
// offset of w the image starts: w must take WriteAt, which a file opened to
// append refuses (an empty WriteAt asks), and if it seeks, tell its
// position, which a pipe cannot.
func streamStart(w io.Writer) (io.WriterAt, int64, bool) {
	wa, ok := w.(io.WriterAt)
	if f, isFile := w.(*os.File); isFile {
		_, err := f.WriteAt(nil, 0)
		ok = err == nil
	}
	if s, seeks := w.(io.Seeker); ok && seeks {
		at, err := s.Seek(0, io.SeekCurrent)
		return wa, at, err == nil
	}
	return wa, 0, ok
}

// snapDec decodes a payload as it reads it from r through the window win
// (buf: read but not yet decoded), summing its checksum. Every accessor
// checks the bytes left before it reads, so a malformed image fails with an
// error, never a panic; a read error ends the decode too, and rerr keeps it.
type snapDec struct {
	r          io.Reader
	win, buf   []byte
	read, plen int
	crc        uint32
	rerr, err  error
}

// fail records the first error and empties buf, so every later take finds
// it.
func (d *snapDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("graph: snapshot: "+format, args...)
	}
	d.buf = nil
}

// rest returns how many payload bytes are not decoded yet.
func (d *snapDec) rest() int { return d.plen - d.read + len(d.buf) }

// fill moves buf to the front of the window, grown to need bytes if it is
// shorter, and reads as much of the payload after it as fits.
func (d *snapDec) fill(need int) {
	if need > len(d.win) {
		d.win = make([]byte, need)
	}
	at := copy(d.win, d.buf)
	n, err := io.ReadFull(d.r, d.win[at:at+min(len(d.win)-at, d.plen-d.read)])
	d.crc = crc32.Update(d.crc, crc32.IEEETable, d.win[at:at+n])
	d.buf = d.win[:at+n]
	if d.read += n; err != nil {
		if err == io.EOF && d.read > 0 {
			err = io.ErrUnexpectedEOF
		}
		d.rerr, d.err, d.buf = err, err, nil
	}
}

// take returns the next n bytes of the payload, valid until the next read.
func (d *snapDec) take(n int) []byte {
	if uint(n) > uint(len(d.buf)) {
		if d.err == nil && (n < 0 || n > d.rest()) {
			d.fail("truncated payload (need %d bytes at offset %d of %d)", n, d.plen-d.rest(), d.plen)
		}
		if d.err == nil {
			d.fill(n)
		}
		if d.err != nil {
			return nil
		}
	}
	s := d.buf[:n]
	d.buf = d.buf[n:]
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

// bytes returns a length-prefixed string's bytes, valid until the next read.
func (d *snapDec) bytes() []byte {
	if len(d.buf) >= 4 { // the common case: the window holds it all
		if n := int(binary.LittleEndian.Uint32(d.buf)); n <= len(d.buf)-4 {
			s := d.buf[4 : 4+n]
			d.buf = d.buf[4+n:]
			return s
		}
	}
	return d.take(int(d.u32()))
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
	if d.err == nil && n > d.rest()/4 {
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
	if n > uint64(d.rest())/uint64(elem) {
		d.fail("slice length %d exceeds remaining payload", n)
		return 0
	}
	return int(n)
}

// snapIntsOut reads a slice snapInts wrote, each value below limit, a
// window at a time.
func snapIntsOut[T ~int | ~int32](d *snapDec, limit int) []T {
	xs, most := make([]T, d.count(4)), uint32(0)
	for i := 0; i < len(xs) && d.err == nil; {
		k := len(d.buf) / 4 // what the window holds, else a window's worth
		if k == 0 {
			k = len(d.win) / 4
		}
		s := d.take(4 * min(k, len(xs)-i))
		for j := range xs[i : i+len(s)/4] {
			x := binary.LittleEndian.Uint32(s[4*j:])
			most = max(most, x)
			xs[i+j] = T(x)
		}
		i += len(s) / 4
	}
	if d.err == nil && len(xs) > 0 && uint64(most) >= uint64(limit) {
		d.fail("value outside [0, %d)", limit)
	}
	if d.err != nil || len(xs) == 0 {
		return nil
	}
	return xs
}

// dir decodes one CSR direction with full structural validation: the CRCs
// only catch accidental corruption, so a checksum-valid but inconsistent
// image (crafted, or from a buggy writer) must fail here with an error —
// never load and then panic inside a query, nor answer one wrongly.
func (d *snapDec) dir(n, nLabels int) csrDir {
	off := snapIntsOut[int32](d, math.MaxInt32)
	targets, all := snapIntsOut[NodeID](d, n), snapIntsOut[NodeID](d, n)
	dirOff := snapIntsOut[int32](d, math.MaxInt32)
	dirLabels, dirStart := snapIntsOut[LabelID](d, nLabels), snapIntsOut[int32](d, math.MaxInt32)
	c := csrDir{targets: targets, all: all, dirLabels: dirLabels, dirStart: dirStart}
	if d.err != nil {
		return c
	}
	switch {
	case len(off) != n+1 || len(dirOff) != n+1:
		d.fail("CSR offset arrays sized %d/%d, want %d", len(off), len(dirOff), n+1)
	case len(c.all) != len(c.targets):
		d.fail("wildcard view sized %d, want %d", len(c.all), len(c.targets))
	case len(c.dirStart) != len(c.dirLabels):
		d.fail("label directory arrays sized %d/%d", len(c.dirStart), len(c.dirLabels))
	case off[0] != 0 || dirOff[0] != 0 || int(off[n]) != len(c.targets) || int(dirOff[n]) != len(c.dirLabels):
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
		h = rowHdr{h.hi, off[v+1], h.dirHi, dirOff[v+1]}
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
// version and checksum are verified first; the payload is decoded as it
// streams through a window of snapWindow bytes, and a read error, then a
// checksum mismatch, then a structural error, then trailing bytes fail the
// load. A source that knows its size (ReaderAt) fails a payload length past
// it before anything is sized. The returned Frozen is query-identical to
// the one serialized.
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
	if _, _, size, ok := ReaderAt(r); ok && plen > uint64(size) {
		return nil, fmt.Errorf("graph: snapshot: read payload: %w", io.ErrUnexpectedEOF)
	}

	d := &snapDec{r: r, win: make([]byte, min(snapWindow, plen)), plen: int(plen)}
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
			if na > d.rest()/8 {
				d.fail("node %d claims %d attributes beyond remaining payload", v, na)
			} else {
				prev := ""
				for i := 0; i < na && d.err == nil; i++ {
					// The key's bytes are valid until the value is read.
					k := d.bytes()
					if i > 0 && string(k) <= prev {
						// WriteSnapshot writes a tuple in name order, so
						// anything else would not write back as it was read.
						d.fail("node %d attribute keys not strictly ascending", v)
					}
					name := attrs.names.internBytes(k)
					prev = attrs.names.strs[name]
					attrs.keys = append(attrs.keys, attrKey(AttrID(name), ValueID(attrs.values.internBytes(d.bytes()))))
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
	trailing := d.rest()
	for d.rerr == nil && d.read < d.plen { // sum the rest; find a read error
		d.buf = nil
		d.fill(0)
	}
	switch {
	case d.rerr != nil:
		return nil, fmt.Errorf("graph: snapshot: read payload: %w", d.rerr)
	case d.crc != binary.LittleEndian.Uint32(header[20:]):
		return nil, fmt.Errorf("graph: snapshot: payload checksum mismatch")
	case d.err != nil:
		return nil, d.err
	case trailing != 0:
		return nil, fmt.Errorf("graph: snapshot: %d trailing bytes after payload", trailing)
	}
	attrs.into(f)
	return f, nil
}

// ReaderAt returns r as an io.ReaderAt, the offset r reads next and the
// bytes left from there, if r can tell: a regular file, a bytes.Reader or a
// strings.Reader.
func ReaderAt(r io.Reader) (io.ReaderAt, int64, int64, bool) {
	switch r := r.(type) {
	case *bytes.Reader:
		return r, r.Size() - int64(r.Len()), int64(r.Len()), true
	case *strings.Reader:
		return r, r.Size() - int64(r.Len()), int64(r.Len()), true
	case *os.File:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			at, err := r.Seek(0, io.SeekCurrent)
			return r, at, fi.Size() - at, err == nil
		}
	}
	return nil, 0, 0, false
}
