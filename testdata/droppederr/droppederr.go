// Package droppederr is the fixture of TestNoDroppedGraphError: a line with
// a want comment must be flagged with that text, every other line must not.
// It is type-checked against the real internal/graph.
package droppederr

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/graph"
)

func droppedStatements(w *graph.WAL, f *graph.Frozen, buf *bytes.Buffer) {
	w.Flush()            // want "error result of graph.WAL.Flush is dropped"
	w.Close()            // want "error result of graph.WAL.Close is dropped"
	f.WriteSnapshot(buf) // want "error result of graph.Frozen.WriteSnapshot is dropped"
}

func blankAssigns(w *graph.WAL, base *graph.Frozen, buf *bytes.Buffer) *graph.Delta {
	_ = w.Err() // want "error result of graph.WAL.Err is discarded with _"

	d, _, _ := graph.Recover(base, buf) // want "error result of graph.Recover is discarded with _"

	// Parallel assignment with a guarded call on the right.
	var n int
	n, _ = 1, w.Sync() // want "error result of graph.WAL.Sync is discarded with _"
	_ = n
	return d
}

func goAndDefer(w *graph.WAL) {
	go w.Flush()    // want "error result of graph.WAL.Flush is dropped by the go statement"
	defer w.Close() // want "error result of graph.WAL.Close is dropped by the deferred call"
}

// Checked errors are the rule; none of these is flagged.
func checkedErrors(base *graph.Frozen, buf *bytes.Buffer) error {
	w, err := graph.OpenWAL("wal.log", graph.NewDelta(base))
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if _, _, err := graph.Recover(base, buf); err != nil {
		return err
	}
	return w.Close()
}

// Only graph and gfdio errors are guarded: other packages' are left to
// general-purpose tools.
func otherPackagesNotGuarded(f *os.File) {
	fmt.Fprintln(os.Stdout, "x")
	f.Close()
}

// A graph call with no error result may be a statement.
func noErrorResult(d *graph.Delta) {
	d.AddEdge(1, 2, "knows")
}
