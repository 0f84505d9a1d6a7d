package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// walFixtureBase is a small base snapshot with labeled nodes and edges for
// the WAL tests.
func walFixtureBase() *Frozen {
	b := NewBuilder(0)
	for i := 0; i < 6; i++ {
		b.AddNode([]string{"a", "b"}[i%2])
	}
	b.SetAttr(0, "k", "v0")
	for i := 0; i < 5; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1), "e")
	}
	b.AddEdge(0, 3, "f")
	return b.Freeze()
}

// walFixtureOps is a deterministic op stream covering every record kind,
// including ops that are no-ops or cancellations at the delta layer.
func walFixtureOps() []func(m Mutator) {
	return []func(m Mutator){
		func(m Mutator) { m.AddNode("c") },
		func(m Mutator) { m.SetAttr(6, "k", "v6") },
		func(m Mutator) { m.AddEdge(6, 0, "e") },
		func(m Mutator) { m.AddNodeWithAttrs("a", map[string]string{"x": "1", "y": "2"}) },
		func(m Mutator) { m.AddEdge(1, 7, "f") },
		func(m Mutator) { m.RemoveEdge(0, 1, "e") },
		func(m Mutator) { m.RemoveEdge(0, 1, "e") }, // no-op repeat
		func(m Mutator) { m.AddEdge(0, 1, "e") },    // cancels the removal
		func(m Mutator) { m.SetAttr(0, "k", "v0'") },
		func(m Mutator) { m.RemoveNode(4) },
		func(m Mutator) { m.RemoveEdge(2, 3, "absent") }, // unknown label no-op
		func(m Mutator) { m.AddEdge(7, 2, "g") },
		func(m Mutator) { m.RemoveNode(6) },
	}
}

// logOps drives the fixture ops through a WAL over an in-memory buffer and
// returns the log bytes plus the resulting delta.
func logOps(t *testing.T, base *Frozen, ops []func(Mutator)) ([]byte, *Delta) {
	t.Helper()
	var buf bytes.Buffer
	d := NewDelta(base)
	w := NewWAL(&buf, d)
	w.syncEvery = 3 // exercise the batch boundary mid-stream
	for _, op := range ops {
		op(w)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}
	return buf.Bytes(), d
}

// replayPrefix applies the first k fixture ops to a fresh delta directly.
func replayPrefix(base *Frozen, ops []func(Mutator), k int) *Delta {
	d := NewDelta(base)
	for _, op := range ops[:k] {
		op(d)
	}
	return d
}

// recordBoundaries parses the log's record framing, returning the byte
// offset after each record (and the op count each prefix holds).
func recordBoundaries(t *testing.T, log []byte) []int {
	t.Helper()
	bounds := []int{0}
	pos := 0
	for pos < len(log) {
		if pos+8 > len(log) {
			t.Fatalf("log framing broken at %d", pos)
		}
		n := int(binary.LittleEndian.Uint32(log[pos:]))
		pos += 8 + n
		bounds = append(bounds, pos)
	}
	if pos != len(log) {
		t.Fatalf("log framing overruns: %d vs %d", pos, len(log))
	}
	return bounds
}

// opsForRecords returns a delta holding the ops whose records make up the
// given record-count prefix, or nil when that boundary falls inside a
// multi-record op (AddNodeWithAttrs logs 1 + one SetAttr per attribute). It
// re-runs the stream through a scratch WAL, counting frames after each op.
func opsForRecords(t *testing.T, base *Frozen, ops []func(Mutator), records int) *Delta {
	t.Helper()
	if records == 0 {
		return NewDelta(base)
	}
	var buf bytes.Buffer
	w := NewWAL(&buf, NewDelta(base))
	for k, op := range ops {
		op(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		switch n := len(recordBoundaries(t, buf.Bytes())) - 1; {
		case n == records:
			return replayPrefix(base, ops, k+1)
		case n > records:
			return nil // boundary inside a multi-record op
		}
	}
	t.Fatalf("asked for %d records, stream has fewer", records)
	return nil
}

// TestWALRoundTrip recovers a complete log and checks the rebuilt delta is
// query-identical to the one the WAL fronted.
func TestWALRoundTrip(t *testing.T) {
	base := walFixtureBase()
	ops := walFixtureOps()
	log, want := logOps(t, base, ops)

	got, stats, err := Recover(base, bytes.NewReader(log))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Truncated {
		t.Fatal("clean log reported as truncated")
	}
	if stats.Bytes != int64(len(log)) {
		t.Fatalf("valid prefix %d, want %d", stats.Bytes, len(log))
	}
	checkReaderEquivalence(t, "recovered", want.Overlay(), got.Overlay(),
		[]string{"a", "b", "c"}, []string{"e", "f", "g"})
	if want.Len() != got.Len() || want.String() != got.String() {
		t.Fatalf("delta shape diverges: %v vs %v", want, got)
	}
}

// TestWALTornTailEveryOffset is the crash-injection property: the log cut at
// every byte offset recovers the longest valid record prefix — no error, no
// data loss before the tear, Truncated set exactly when the cut is not a
// record boundary.
func TestWALTornTailEveryOffset(t *testing.T) {
	base := walFixtureBase()
	ops := walFixtureOps()
	log, _ := logOps(t, base, ops)
	bounds := recordBoundaries(t, log)

	recordsBefore := func(cut int) int {
		n := 0
		for n+1 < len(bounds) && bounds[n+1] <= cut {
			n++
		}
		return n
	}
	for cut := 0; cut <= len(log); cut++ {
		d, stats, err := Recover(base, bytes.NewReader(log[:cut]))
		if err != nil {
			t.Fatalf("cut=%d: Recover: %v", cut, err)
		}
		wantRecords := recordsBefore(cut)
		if stats.Records != wantRecords {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, stats.Records, wantRecords)
		}
		if stats.Bytes != int64(bounds[wantRecords]) {
			t.Fatalf("cut=%d: valid prefix %d, want %d", cut, stats.Bytes, bounds[wantRecords])
		}
		atBoundary := cut == bounds[wantRecords]
		if stats.Truncated == atBoundary {
			t.Fatalf("cut=%d: Truncated=%v at boundary=%v", cut, stats.Truncated, atBoundary)
		}
		// Replaying the same prefix through Recover a second time must agree
		// with the first (prefix recovery is deterministic).
		d2, _, err := Recover(base, bytes.NewReader(log[:cut]))
		if err != nil {
			t.Fatalf("cut=%d: second prefix recovery failed: %v", cut, err)
		}
		if d.String() != d2.String() || d.Len() != d2.Len() {
			t.Fatalf("cut=%d: prefix recovery not deterministic", cut)
		}
	}
	// And full-prefix cuts at record boundaries equal a direct replay of the
	// records' ops (checked exactly where the boundary maps to a whole op).
	for rec := 0; rec+1 < len(bounds); rec++ {
		want := opsForRecords(t, base, ops, rec)
		if want == nil {
			continue
		}
		got, _, err := Recover(base, bytes.NewReader(log[:bounds[rec]]))
		if err != nil {
			t.Fatalf("records=%d: %v", rec, err)
		}
		if got.String() != want.String() {
			t.Fatalf("records=%d: recovered %v, want %v", rec, got, want)
		}
	}
}

// TestWALCorruptRecord flips one byte in a middle record: recovery stops at
// the corrupt record (longest valid prefix), without error.
func TestWALCorruptRecord(t *testing.T) {
	base := walFixtureBase()
	log, _ := logOps(t, base, walFixtureOps())
	bounds := recordBoundaries(t, log)
	mid := len(bounds) / 2
	bad := append([]byte(nil), log...)
	bad[bounds[mid]+8] ^= 0xff // first payload byte of record mid

	_, stats, err := Recover(base, bytes.NewReader(bad))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !stats.Truncated || stats.Records != mid || stats.Bytes != int64(bounds[mid]) {
		t.Fatalf("corrupt record %d: got records=%d bytes=%d truncated=%v",
			mid, stats.Records, stats.Bytes, stats.Truncated)
	}
}

// TestWALWrongBase replays a log over a base it cannot belong to: a
// checksummed record referencing an unknown node must error, not panic.
func TestWALWrongBase(t *testing.T) {
	base := walFixtureBase()
	log, _ := logOps(t, base, walFixtureOps())
	tiny := NewBuilder(0)
	tiny.AddNode("a")
	if _, _, err := Recover(tiny.Freeze(), bytes.NewReader(log)); err == nil {
		t.Fatal("recovery over a mismatched base succeeded")
	}
}

// TestWALFileLifecycle runs the durable flow end to end: OpenWAL, crash with
// a torn tail, RecoverFile truncating the tear, append more, recover again.
func TestWALFileLifecycle(t *testing.T) {
	base := walFixtureBase()
	path := filepath.Join(t.TempDir(), "updates.wal")

	if _, _, err := RecoverFile(base, path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("recover of a missing log: err = %v, want fs.ErrNotExist", err)
	}

	w, err := OpenWAL(path, NewDelta(base))
	if err != nil {
		t.Fatal(err)
	}
	w.syncEvery = 1
	id := w.AddNode("c")
	w.AddEdge(id, 0, "e")
	w.SetAttr(id, "k", "v")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash injection: a torn half-record lands at the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2})
	f.Close()

	d1, stats, err := RecoverFile(base, path)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if !stats.Truncated || stats.Records != 3 {
		t.Fatalf("post-crash recovery: %+v", stats)
	}
	if fi, _ := os.Stat(path); fi.Size() != stats.Bytes {
		t.Fatalf("torn tail not truncated: file %d bytes, valid prefix %d", fi.Size(), stats.Bytes)
	}
	if !d1.Alive(id) {
		t.Fatal("recovered delta lost the added node")
	}

	// The truncated log accepts appends and the union recovers.
	w2, err := OpenWAL(path, d1)
	if err != nil {
		t.Fatal(err)
	}
	w2.RemoveNode(1)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	d2, stats, err := RecoverFile(base, path)
	if err != nil || stats.Truncated {
		t.Fatalf("second recovery: %v %+v", err, stats)
	}
	if stats.Records != 4 || d2.Alive(1) || !d2.Alive(id) {
		t.Fatalf("second recovery state wrong: %+v alive(1)=%v", stats, d2.Alive(1))
	}
	if v, ok := d2.Overlay().Attr(id, "k"); !ok || v != "v" {
		t.Fatalf("recovered attr = %q,%v", v, ok)
	}
}

// FuzzWALRecover feeds arbitrary bytes to Recover: it must never panic, and
// any (delta, stats) it returns must satisfy the prefix contract
// (stats.Bytes <= input length, records consistent with Bytes > 0). The seed
// corpus covers a valid log, every-offset truncations of its tail record,
// and single-byte corruptions; CI replays the corpus on every run.
func FuzzWALRecover(f *testing.F) {
	base := walFixtureBase()
	log, _ := func() ([]byte, *Delta) {
		var buf bytes.Buffer
		d := NewDelta(base)
		w := NewWAL(&buf, d)
		for _, op := range walFixtureOps() {
			op(w)
		}
		if err := w.Close(); err != nil {
			f.Fatalf("building seed log: %v", err)
		}
		return buf.Bytes(), d
	}()
	f.Add(log)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	last := 0
	for pos := 0; pos+8 <= len(log); {
		n := int(binary.LittleEndian.Uint32(log[pos:]))
		last = pos
		pos += 8 + n
	}
	for cut := last; cut <= len(log); cut++ { // every offset of the final record
		f.Add(append([]byte(nil), log[:cut]...))
	}
	for i := 0; i < len(log); i += 13 {
		bad := append([]byte(nil), log...)
		bad[i] ^= 0x20
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, stats, err := Recover(base, bytes.NewReader(data))
		if err != nil {
			return // mismatched-base rejections are fine; panics are not
		}
		if stats.Bytes > int64(len(data)) || stats.Bytes < 0 {
			t.Fatalf("valid prefix %d outside input of %d bytes", stats.Bytes, len(data))
		}
		if (stats.Records > 0) != (stats.Bytes > 0) {
			t.Fatalf("records %d inconsistent with prefix bytes %d", stats.Records, stats.Bytes)
		}
		if d == nil {
			t.Fatal("nil delta without error")
		}
		_ = fmt.Sprintf("%v", d) // delta must be in a coherent state
	})
}
