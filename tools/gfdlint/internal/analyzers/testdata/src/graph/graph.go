// Package graph is a stub of repro/internal/graph with the error-returning
// persistence shapes mutatorerr keys on. Bodies are trivial — only
// signatures and declaring-package identity matter to the analyzer.
package graph

import "io"

type NodeID uint32

// Frozen mimics the immutable CSR snapshot.
type Frozen struct{}

func (f *Frozen) WriteSnapshot(w io.Writer) error { return nil }

// Delta mimics the update batch a WAL fronts.
type Delta struct{}

func NewDelta(base *Frozen) *Delta                     { return &Delta{} }
func (d *Delta) AddEdge(from, to NodeID, label string) {}

// WAL mimics the write-ahead log fronting a Delta.
type WAL struct{ d *Delta }

func OpenWAL(path string, d *Delta) (*WAL, error) { return &WAL{d: d}, nil }
func (l *WAL) Err() error                         { return nil }
func (l *WAL) Flush() error                       { return nil }
func (l *WAL) Sync() error                        { return nil }
func (l *WAL) Close() error                       { return nil }

func Recover(base *Frozen, r io.Reader) (*Delta, int, error) { return &Delta{}, 0, nil }
