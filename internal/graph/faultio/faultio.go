// Package faultio provides fault-injecting io wrappers for the persistence
// layer's error-path tests: a Writer that fails (optionally short-writing)
// at the Nth write/sync op of its stream, and a Reader that returns an
// error once a byte budget is spent — the EIO-mid-record case. The wrappers
// are deterministic, so a property test can sweep the fault across every op
// index of a workload and assert the recovery contracts (longest-valid-
// prefix WAL replay, atomic snapshot store, sticky error state) at each.
//
// The package lives under internal/graph so the WAL and snapshot tests can
// reach it, but it has no dependency on graph itself — it wraps plain
// io.Writer/io.Reader and is usable anywhere a failing byte stream is
// needed (the gfdio atomic-store tests thread it under os.File writes).
package faultio

import (
	"errors"
	"io"
)

// ErrInjected is the error the wrappers fail with unless overridden. Tests
// assert errors.Is against it to prove the injected fault — not some
// unrelated failure — is what surfaced.
var ErrInjected = errors.New("faultio: injected fault")

// Writer wraps an io.Writer and injects a persistent fault into its op
// stream. Ops are counted across Write and Sync calls (and WriteAt, for a
// WriterAt) in program order; the op at index FailAt and every op after it
// fail — a dead disk does not heal, so a caller that keeps writing past the
// first error is leaking unacknowledged data, which the sticky-error tests
// catch as bytes that should not exist.
type Writer struct {
	W io.Writer
	// FailAt is the 0-based index of the first failing op; negative never
	// fails (pass -1 to count a workload's ops via Ops).
	FailAt int
	// Short makes the first failing op, when it is a Write or a WriteAt,
	// deliver half its payload before reporting the error — the torn-write
	// case. Later failing ops deliver nothing.
	Short bool
	// Err overrides ErrInjected as the injected error.
	Err error

	// Ops counts the Write/WriteAt/Sync calls seen so far (including
	// failed ones).
	Ops int
	// Failed reports whether the fault has fired at least once.
	Failed bool
}

func (w *Writer) fail() error {
	if w.Err != nil {
		return w.Err
	}
	return ErrInjected
}

func (w *Writer) failing() bool {
	return w.FailAt >= 0 && w.Ops > w.FailAt
}

// Write delivers p to the wrapped writer, or fails (wholly, or after half
// of p with Short on the first failing op) once the op stream reaches
// FailAt.
func (w *Writer) Write(p []byte) (int, error) {
	return w.op(p, w.W.Write)
}

// op counts one write of p through deliver and applies the fault rules.
func (w *Writer) op(p []byte, deliver func([]byte) (int, error)) (int, error) {
	w.Ops++
	if !w.failing() {
		return deliver(p)
	}
	first := !w.Failed
	w.Failed = true
	if first && w.Short && len(p) > 1 {
		n, err := deliver(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, w.fail()
	}
	return 0, w.fail()
}

// WriterAt is a Writer over a W that is also an io.WriterAt (a file), so
// what writes through it may patch bytes it wrote before, as a streamed
// snapshot image patches its header. WriteAt counts as one op of the same
// stream and fails by the same FailAt and Short rules as Write.
type WriterAt struct{ Writer }

// WriteAt delivers p at off to the wrapped writer, or fails as Write does.
func (w *WriterAt) WriteAt(p []byte, off int64) (int, error) {
	return w.op(p, func(q []byte) (int, error) { return w.W.(io.WriterAt).WriteAt(q, off) })
}

// Sync counts as one op like Write does, fails at and after FailAt, and
// otherwise forwards to the wrapped writer's Sync when it has one. Writer
// always advertises Sync, so graph.NewWAL treats any faultio-wrapped
// destination as fsync-capable — exactly what the failed-fsync tests need
// over an in-memory buffer.
func (w *Writer) Sync() error {
	w.Ops++
	if w.failing() {
		w.Failed = true
		return w.fail()
	}
	if s, ok := w.W.(interface{ Sync() error }); ok {
		return s.Sync()
	}
	return nil
}

// Reader wraps an io.Reader and fails once Limit bytes have been
// delivered: reads within the budget pass through (clamped to it), the
// first read past it returns the injected error, as does every read after
// — EIO on a bad sector, not EOF. A source that ends before the budget is
// spent passes its own error (e.g. io.EOF) through untouched.
type Reader struct {
	R io.Reader
	// Limit is the number of bytes delivered before the fault.
	Limit int64
	// Err overrides ErrInjected as the injected error.
	Err error
}

func (r *Reader) fail() error {
	if r.Err != nil {
		return r.Err
	}
	return ErrInjected
}

func (r *Reader) Read(p []byte) (int, error) {
	if r.Limit <= 0 {
		return 0, r.fail()
	}
	if int64(len(p)) > r.Limit {
		p = p[:r.Limit]
	}
	n, err := r.R.Read(p)
	r.Limit -= int64(n)
	return n, err
}
