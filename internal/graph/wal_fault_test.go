package graph

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph/faultio"
)

// walRecordsAfterOp counts, for each op-stream prefix, how many records the
// log holds (AddNodeWithAttrs logs several), by re-running the stream through
// a scratch WAL with a flush after every op.
func walRecordsAfterOp(t *testing.T, base *Frozen, ops []func(Mutator)) []int {
	t.Helper()
	recAfter := make([]int, len(ops)+1)
	var buf bytes.Buffer
	w := NewWAL(&buf, NewDelta(base))
	for k, op := range ops {
		op(w)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		recAfter[k+1] = len(recordBoundaries(t, buf.Bytes())) - 1
	}
	return recAfter
}

// TestWALWriteFaultEveryOp is the write-side crash/fault property: a
// persistent write or fsync failure injected at every op index of the WAL's
// destination stream (bufio flushes and fsyncs, with and without a torn
// half-delivered write) must surface from Close, stay sticky — later ops
// append nothing — and leave a log that recovers a valid record prefix
// covering at least every op a successful Sync acknowledged as durable.
func TestWALWriteFaultEveryOp(t *testing.T) {
	base := walFixtureBase()
	ops := walFixtureOps()
	recAfter := walRecordsAfterOp(t, base, ops)
	totalRecords := recAfter[len(ops)]

	// Count the destination op stream with a never-failing writer.
	counting := &faultio.Writer{W: io.Discard, FailAt: -1}
	cw := NewWAL(counting, NewDelta(base))
	cw.syncEvery = 3
	for _, op := range ops {
		op(cw)
	}
	if err := cw.Close(); err != nil {
		t.Fatalf("counting run: %v", err)
	}
	if counting.Ops == 0 {
		t.Fatal("counting run saw no destination ops; sweep is vacuous")
	}

	for failAt := 0; failAt < counting.Ops; failAt++ {
		for _, short := range []bool{false, true} {
			var buf bytes.Buffer
			fw := &faultio.Writer{W: &buf, FailAt: failAt, Short: short}
			w := NewWAL(fw, NewDelta(base))
			w.syncEvery = 3

			// Track the durability floor: after any op acknowledged without
			// error, every batch the syncEvery=3 policy has fsynced so far
			// (records at multiples of 3) is promised to survive.
			maxDurable := 0
			for k, op := range ops {
				op(w)
				if w.Err() == nil {
					maxDurable = 3 * (recAfter[k+1] / 3)
				}
			}

			errClose := w.Close()
			if !errors.Is(errClose, faultio.ErrInjected) {
				t.Fatalf("failAt=%d short=%v: Close = %v, want injected fault", failAt, short, errClose)
			}
			if !fw.Failed {
				t.Fatalf("failAt=%d short=%v: fault never fired", failAt, short)
			}

			// Sticky: the first error is the error, and nothing written after
			// it may reach the destination.
			if w.Err() == nil {
				t.Fatalf("failAt=%d short=%v: Err nil after failed Close", failAt, short)
			}
			first := w.Err()
			lenAfter, opsAfter := buf.Len(), fw.Ops
			ops[0](w) // mutates only the in-memory delta; the log must not move
			if err := w.Flush(); err != first {
				t.Fatalf("failAt=%d short=%v: Flush after fault = %v, want sticky %v", failAt, short, err, first)
			}
			if err := w.Sync(); err != first {
				t.Fatalf("failAt=%d short=%v: Sync after fault = %v, want sticky %v", failAt, short, err, first)
			}
			if buf.Len() != lenAfter || fw.Ops != opsAfter {
				t.Fatalf("failAt=%d short=%v: ops after the fault reached the destination (%d->%d bytes, %d->%d ops)",
					failAt, short, lenAfter, buf.Len(), opsAfter, fw.Ops)
			}

			// The surviving bytes recover without error to a record prefix at
			// least as long as the acknowledged-durable floor.
			rec, rstats, rerr := Recover(base, bytes.NewReader(buf.Bytes()))
			if rerr != nil {
				t.Fatalf("failAt=%d short=%v: recover after fault: %v", failAt, short, rerr)
			}
			if rstats.Records > totalRecords {
				t.Fatalf("failAt=%d short=%v: recovered %d records, stream has %d", failAt, short, rstats.Records, totalRecords)
			}
			if rstats.Records < maxDurable {
				t.Fatalf("failAt=%d short=%v: recovered %d records, durability floor is %d", failAt, short, rstats.Records, maxDurable)
			}
			if want := opsForRecords(t, base, ops, rstats.Records); want != nil {
				if rec.String() != want.String() || rec.Len() != want.Len() {
					t.Fatalf("failAt=%d short=%v: recovered delta %v, want op prefix %v", failAt, short, rec, want)
				}
			}
		}
	}
}

// TestWALStickyAfterFailedFsync pins the exact failed-fsync sequence end to
// end: the first flush delivers its batch, the fsync behind it fails, the
// error sticks to every later call, no later op reaches the destination, and
// the delivered batch still recovers.
func TestWALStickyAfterFailedFsync(t *testing.T) {
	base := walFixtureBase()
	ops := walFixtureOps()
	var buf bytes.Buffer
	// Destination op 0 is the first batch flush, op 1 its fsync.
	fw := &faultio.Writer{W: &buf, FailAt: 1}
	w := NewWAL(fw, NewDelta(base))
	w.syncEvery = 3
	for _, op := range ops {
		op(w)
	}
	first := w.Err()
	if !errors.Is(first, faultio.ErrInjected) {
		t.Fatalf("Err after the failed fsync = %v, want injected fault", first)
	}
	if err := w.Close(); err != first {
		t.Fatalf("Close = %v, want the sticky fsync error %v", err, first)
	}
	if err := w.Sync(); err != first {
		t.Fatalf("Sync after Close = %v, want the sticky fsync error %v", err, first)
	}

	// The flushed-but-unacknowledged batch is all that reached the disk, and
	// it recovers cleanly: ops 0..2 each log one record.
	got, stats, err := Recover(base, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if stats.Records != 3 || stats.Truncated {
		t.Fatalf("recovered %d records (truncated=%v), want the 3-record first batch", stats.Records, stats.Truncated)
	}
	want := replayPrefix(base, ops, 3)
	if got.String() != want.String() {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}

// TestWALRecoverReadFaultEveryByte is the read-side property: an EIO-style
// reader failure at every byte offset of the log must surface as an error —
// not a panic, and not a silent truncation — after replaying exactly the
// records that were fully delivered, with no partially-read record applied.
func TestWALRecoverReadFaultEveryByte(t *testing.T) {
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
	for limit := 0; limit < len(log); limit++ {
		d, stats, err := Recover(base, &faultio.Reader{R: bytes.NewReader(log), Limit: int64(limit)})
		if err == nil {
			t.Fatalf("limit=%d: a mid-log read fault must be an error, not a truncation", limit)
		}
		if !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("limit=%d: error %v does not wrap the injected fault", limit, err)
		}
		wantRecords := recordsBefore(limit)
		if stats.Records != wantRecords {
			t.Fatalf("limit=%d: replayed %d records before failing, want %d", limit, stats.Records, wantRecords)
		}
		if stats.Bytes != int64(bounds[wantRecords]) {
			t.Fatalf("limit=%d: valid prefix %d, want %d", limit, stats.Bytes, bounds[wantRecords])
		}
		if want := opsForRecords(t, base, ops, wantRecords); want != nil {
			if d.String() != want.String() || d.Len() != want.Len() {
				t.Fatalf("limit=%d: partial record leaked into the delta: %v vs %v", limit, d, want)
			}
		}
	}
}

// faultyLogFile adapts a budgeted faultio.Reader over an opened log file to
// the io.ReadCloser RecoverFile expects from its open seam.
type faultyLogFile struct {
	*faultio.Reader
	f *os.File
}

func (l *faultyLogFile) Close() error { return l.f.Close() }

// TestRecoverFileReadFault swaps RecoverFile's open seam for one that fails
// mid-read at every offset: the error must propagate (no delta returned) and
// the log file must keep its full length — a read fault is not a torn tail,
// so the truncating repair must not fire.
func TestRecoverFileReadFault(t *testing.T) {
	base := walFixtureBase()
	ops := walFixtureOps()
	log, want := logOps(t, base, ops)
	path := filepath.Join(t.TempDir(), "delta.wal")
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}

	orig := walOpenForRecover
	defer func() { walOpenForRecover = orig }()
	var limit int64
	walOpenForRecover = func(p string) (io.ReadCloser, error) {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		return &faultyLogFile{Reader: &faultio.Reader{R: f, Limit: limit}, f: f}, nil
	}

	for limit = 0; limit < int64(len(log)); limit++ {
		d, _, err := RecoverFile(base, path)
		if !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("limit=%d: RecoverFile = %v, want injected fault", limit, err)
		}
		if d != nil {
			t.Fatalf("limit=%d: failed recovery returned a delta", limit)
		}
		fi, serr := os.Stat(path)
		if serr != nil {
			t.Fatal(serr)
		}
		if fi.Size() != int64(len(log)) {
			t.Fatalf("limit=%d: read fault truncated the log to %d of %d bytes", limit, fi.Size(), len(log))
		}
	}

	// With the real opener back, the untouched file recovers in full.
	walOpenForRecover = orig
	got, stats, err := RecoverFile(base, path)
	if err != nil {
		t.Fatalf("recovery after restoring the opener: %v", err)
	}
	if stats.Truncated || stats.Bytes != int64(len(log)) {
		t.Fatalf("full recovery stats %+v, want the whole %d-byte log", stats, len(log))
	}
	if got.String() != want.String() {
		t.Fatalf("recovered %v, want %v", got, want)
	}
}
