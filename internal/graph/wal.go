// Write-ahead delta log. A WAL fronts a Delta with the same update API
// (graph.Mutator) and appends one record per applied op, so the in-memory
// delta and the on-disk log advance together: snapshot the base once
// (snapshot.go), stream updates through the WAL, and after a crash Recover
// replays the log over the reloaded base to rebuild the exact Delta. Records
// are length-prefixed and CRC-checked; recovery replays the longest valid
// prefix and treats a torn tail record — the normal residue of a crash
// mid-append — as truncation, not an error. Appends are buffered and
// fsync-batched: every DefaultSyncEvery records the buffer is flushed and,
// when the destination supports it, fsynced, bounding the ops a crash can
// lose without paying a sync per op.
//
// Record layout (little-endian):
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//	payload := op byte, then the op's fields (uvarint node IDs,
//	           uvarint-length-prefixed strings)
package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// Mutator is the update API shared by *Delta and *WAL: the Sink build calls
// plus removals and the liveness/label probes update generators steer by.
// Code written against Mutator (gen.MutateDelta, dataset.SampleDeltaInto)
// can populate a bare in-memory delta or a WAL-backed durable one without
// knowing which it has.
type Mutator interface {
	Sink
	RemoveEdge(from, to NodeID, label string)
	RemoveNode(v NodeID)
	Alive(v NodeID) bool
	Label(v NodeID) string
	// Base returns the snapshot the update batch is bound to.
	Base() *Frozen
}

var (
	_ Mutator = (*Delta)(nil)
	_ Mutator = (*WAL)(nil)
)

// WAL op codes. Values are part of the on-disk format; append only.
const (
	walAddNode    = 1
	walSetAttr    = 2
	walAddEdge    = 3
	walRemoveEdge = 4
	walRemoveNode = 5
)

// DefaultSyncEvery is the fsync batch size: at most this many acknowledged
// ops are lost by a crash between syncs.
const DefaultSyncEvery = 64

// maxWALRecord bounds a record payload. No op encodes anywhere near this;
// a longer length prefix in a log marks the tail as torn during recovery
// and is rejected at append time.
const maxWALRecord = 1 << 24

// WAL is a write-ahead log bound to a Delta: every mutator call applies to
// the delta first (invalid ops panic there, before anything is logged), then
// appends a record. Like the Delta it fronts, a WAL is not safe for
// concurrent use. I/O errors are sticky: the first one is kept, later
// appends stop writing, and Err/Sync/Close report it — callers running
// durable ingest check one of those at their commit points.
type WAL struct {
	d       *Delta
	bw      *bufio.Writer
	f       interface{ Sync() error } // non-nil when the destination can fsync
	closer  io.Closer                 // non-nil when Close should close the destination
	err     error
	pending int
	scratch []byte
	// syncEvery is the number of records between fsync batches:
	// DefaultSyncEvery, which the package's tests lower to reach a batch
	// boundary in a few records.
	syncEvery int
}

// NewWAL returns a log over an arbitrary writer appending ops applied to d.
// When w implements `Sync() error` (an *os.File does), the fsync batching is
// active; otherwise batches only flush the buffer.
func NewWAL(w io.Writer, d *Delta) *WAL {
	l := &WAL{d: d, bw: bufio.NewWriter(w), syncEvery: DefaultSyncEvery}
	if s, ok := w.(interface{ Sync() error }); ok {
		l.f = s
	}
	return l
}

// OpenWAL opens (creating if absent) the log file in append mode and binds
// it to d. Appending to a recovered log is valid only after the torn tail,
// if any, has been dropped — RecoverFile does that — since records after a
// corrupt one are unreachable to every future recovery.
func OpenWAL(path string, d *Delta) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("graph: wal: %w", err)
	}
	l := NewWAL(f, d)
	l.closer = f
	return l, nil
}

// Base returns the snapshot the fronted delta is bound to.
func (l *WAL) Base() *Frozen { return l.d.Base() }

// Err returns the first I/O error the log hit, if any.
func (l *WAL) Err() error { return l.err }

// record appends one op record and runs the fsync batch policy.
func (l *WAL) record(payload []byte) {
	if l.err != nil {
		return
	}
	if len(payload) > maxWALRecord {
		l.err = fmt.Errorf("graph: wal: op record of %d bytes exceeds limit", len(payload))
		return
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := l.bw.Write(hdr[:]); err != nil {
		l.err = fmt.Errorf("graph: wal: append: %w", err)
		return
	}
	if _, err := l.bw.Write(payload); err != nil {
		l.err = fmt.Errorf("graph: wal: append: %w", err)
		return
	}
	l.pending++
	if l.pending >= l.syncEvery {
		l.err = l.Sync()
	}
}

// op encodes a record payload into the scratch buffer: the op byte, then
// uvarint node IDs, then uvarint-length-prefixed strings.
func (l *WAL) op(code byte, ids []NodeID, strs ...string) []byte {
	b := append(l.scratch[:0], code)
	for _, id := range ids {
		b = binary.AppendUvarint(b, uint64(id))
	}
	for _, s := range strs {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	l.scratch = b
	return b
}

// AddNode appends a node to the delta and logs it; see Delta.AddNode.
func (l *WAL) AddNode(label string) NodeID {
	id := l.d.AddNode(label)
	l.record(l.op(walAddNode, nil, label))
	return id
}

// AddNodeWithAttrs appends a node carrying the given attribute tuple. It
// logs as an AddNode plus one SetAttr per attribute, in sorted key order so
// identical tuples produce identical logs.
func (l *WAL) AddNodeWithAttrs(label string, attrs map[string]string) NodeID {
	id := l.AddNode(label)
	for _, k := range sortedKeys(attrs) {
		l.SetAttr(id, k, attrs[k])
	}
	return id
}

// sortedKeys returns a map's keys in ascending order.
func sortedKeys(m map[string]string) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	slices.Sort(ks)
	return ks
}

// SetAttr sets an attribute on the delta and logs it; see Delta.SetAttr.
func (l *WAL) SetAttr(v NodeID, attr, value string) {
	l.d.SetAttr(v, attr, value)
	l.record(l.op(walSetAttr, []NodeID{v}, attr, value))
}

// AddEdge inserts an edge into the delta and logs it; see Delta.AddEdge.
func (l *WAL) AddEdge(from, to NodeID, label string) {
	l.d.AddEdge(from, to, label)
	l.record(l.op(walAddEdge, []NodeID{from, to}, label))
}

// RemoveEdge removes an edge from the delta and logs it; see
// Delta.RemoveEdge. No-op removals are logged too — replay reproduces the
// same no-op, and skipping them would make the log's length diverge from the
// op stream the caller saw acknowledged.
func (l *WAL) RemoveEdge(from, to NodeID, label string) {
	l.d.RemoveEdge(from, to, label)
	l.record(l.op(walRemoveEdge, []NodeID{from, to}, label))
}

// RemoveNode tombstones a node in the delta and logs it; see
// Delta.RemoveNode. One record is the whole removal: the delta records no
// incident edges either, since Refreeze drops every edge at a dead node.
func (l *WAL) RemoveNode(v NodeID) {
	l.d.RemoveNode(v)
	l.record(l.op(walRemoveNode, []NodeID{v}))
}

// NumNodes returns the fronted delta's ID-space size.
func (l *WAL) NumNodes() int { return l.d.NumNodes() }

// Alive reports liveness in the fronted delta.
func (l *WAL) Alive(v NodeID) bool { return l.d.Alive(v) }

// Label returns node v's label in the fronted delta.
func (l *WAL) Label(v NodeID) string { return l.d.Label(v) }

// Flush pushes buffered records to the destination without fsyncing.
func (l *WAL) Flush() error {
	if l.err != nil {
		return l.err
	}
	if err := l.bw.Flush(); err != nil {
		l.err = fmt.Errorf("graph: wal: flush: %w", err)
	}
	return l.err
}

// Sync flushes buffered records and fsyncs the destination when it can,
// making every acknowledged op durable.
func (l *WAL) Sync() error {
	if err := l.Flush(); err != nil {
		return err
	}
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			l.err = fmt.Errorf("graph: wal: fsync: %w", err)
			return l.err
		}
	}
	l.pending = 0
	return nil
}

// Close syncs and, for OpenWAL logs, closes the file. It returns the first
// error the log hit.
func (l *WAL) Close() error {
	err := l.Sync()
	if l.closer != nil {
		if cerr := l.closer.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("graph: wal: close: %w", cerr)
			l.err = err
		}
		l.closer = nil
	}
	return err
}

// RecoverStats describes what Recover replayed.
type RecoverStats struct {
	// Records is the number of ops replayed.
	Records int
	// Bytes is the length of the valid log prefix; everything after it is
	// torn or corrupt and should be truncated before appending resumes.
	Bytes int64
	// Truncated reports whether anything followed the valid prefix.
	Truncated bool
}

// Recover replays a delta log over its base snapshot, rebuilding the
// in-memory Delta. It applies the longest valid prefix: a torn tail record —
// short header, short payload, or checksum mismatch — ends the replay with
// Truncated set rather than an error, because that is exactly the state a
// crash mid-append leaves behind. An error is returned only when the log
// cannot belong to this base (a checksummed record references nodes the
// replayed state does not have) or the reader itself fails.
func Recover(base *Frozen, r io.Reader) (*Delta, RecoverStats, error) {
	d := NewDelta(base)
	stats, err := replay(d, r)
	return d, stats, err
}

func replay(d *Delta, r io.Reader) (RecoverStats, error) {
	var stats RecoverStats
	br := bufio.NewReader(r)
	var payload []byte
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return stats, nil // clean end on a record boundary
			}
			if err == io.ErrUnexpectedEOF {
				stats.Truncated = true
				return stats, nil // torn header
			}
			return stats, fmt.Errorf("graph: wal: read: %w", err)
		}
		n := binary.LittleEndian.Uint32(hdr[:4])
		if n > maxWALRecord {
			stats.Truncated = true // length prefix is garbage: corrupt tail
			return stats, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(br, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				stats.Truncated = true // torn payload
				return stats, nil
			}
			return stats, fmt.Errorf("graph: wal: read: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
			stats.Truncated = true // corrupt record: prefix ends here
			return stats, nil
		}
		if err := applyRecord(d, payload, stats.Records); err != nil {
			return stats, err
		}
		stats.Records++
		stats.Bytes += int64(len(hdr)) + int64(n)
	}
}

// walDec decodes one record payload.
type walDec struct {
	b  []byte
	ok bool
}

func (d *walDec) id() NodeID {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.ok = false
		return 0
	}
	d.b = d.b[n:]
	return NodeID(v)
}

func (d *walDec) str() string {
	n, w := binary.Uvarint(d.b)
	if w <= 0 || n > uint64(len(d.b)-w) {
		d.ok = false
		return ""
	}
	s := string(d.b[w : w+int(n)])
	d.b = d.b[w+int(n):]
	return s
}

// applyRecord replays one checksummed record. The validity probes mirror the
// Delta mutators' panic conditions exactly, so a log replayed over the wrong
// base fails with a diagnostic instead of a panic.
func applyRecord(d *Delta, payload []byte, idx int) error {
	bad := func(why string) error {
		return fmt.Errorf("graph: wal: record %d: %s (log does not match this base?)", idx, why)
	}
	if len(payload) == 0 {
		return bad("empty record")
	}
	dec := &walDec{b: payload[1:], ok: true}
	switch payload[0] {
	case walAddNode:
		label := dec.str()
		if !dec.ok {
			return bad("malformed AddNode")
		}
		d.AddNode(label)
	case walSetAttr:
		v := dec.id()
		attr, value := dec.str(), dec.str()
		if !dec.ok {
			return bad("malformed SetAttr")
		}
		if !d.Alive(v) {
			return bad(fmt.Sprintf("SetAttr on invalid or removed node %d", v))
		}
		d.SetAttr(v, attr, value)
	case walAddEdge:
		from, to := dec.id(), dec.id()
		label := dec.str()
		if !dec.ok {
			return bad("malformed AddEdge")
		}
		if !d.Alive(from) || !d.Alive(to) {
			return bad(fmt.Sprintf("AddEdge with invalid or removed endpoint %d->%d", from, to))
		}
		d.AddEdge(from, to, label)
	case walRemoveEdge:
		from, to := dec.id(), dec.id()
		label := dec.str()
		if !dec.ok {
			return bad("malformed RemoveEdge")
		}
		if !d.valid(from) || !d.valid(to) {
			return bad(fmt.Sprintf("RemoveEdge with invalid endpoint %d->%d", from, to))
		}
		d.RemoveEdge(from, to, label)
	case walRemoveNode:
		v := dec.id()
		if !dec.ok {
			return bad("malformed RemoveNode")
		}
		if !d.valid(v) {
			return bad(fmt.Sprintf("RemoveNode on invalid node %d", v))
		}
		d.RemoveNode(v)
	default:
		return bad(fmt.Sprintf("unknown op %d", payload[0]))
	}
	if len(dec.b) != 0 {
		return bad("trailing bytes in record")
	}
	return nil
}

// walOpenForRecover is RecoverFile's file-open seam. Production code opens
// the log with os.Open; the fault-injection tests swap it for a wrapper
// that injects read errors (EIO mid-record), proving such a failure
// surfaces as an error — never as a panic, and never as a truncating
// "repair" that would cut records a healthy retry could still read.
var walOpenForRecover = func(path string) (io.ReadCloser, error) { return os.Open(path) }

// RecoverFile replays the log file over the base and, when the log carries a
// torn or corrupt tail, truncates the file to the valid prefix so a new WAL
// can append after it. A missing file is an error that errors.Is matches
// against fs.ErrNotExist.
func RecoverFile(base *Frozen, path string) (*Delta, RecoverStats, error) {
	f, err := walOpenForRecover(path)
	if err != nil {
		return nil, RecoverStats{}, fmt.Errorf("graph: wal: %w", err)
	}
	d, stats, rerr := Recover(base, f)
	f.Close()
	if rerr != nil {
		return nil, stats, rerr
	}
	if stats.Truncated {
		if err := os.Truncate(path, stats.Bytes); err != nil {
			return nil, stats, fmt.Errorf("graph: wal: truncate torn tail: %w", err)
		}
	}
	return d, stats, nil
}
