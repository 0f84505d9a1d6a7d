// Package graph is a stub of repro/internal/graph with the method shapes
// the contract analyzers key on: the Reader copy-contract pair, Mutator and
// WAL error returns, and the Delta/Overlay pairing. Bodies are trivial —
// only signatures and declaring-package identity matter to the analyzers.
package graph

import "io"

type NodeID uint32

// Frozen mimics the immutable CSR snapshot.
type Frozen struct{ n int }

func (f *Frozen) NumNodes() int { return f.n }
func (f *Frozen) AppendCandidates(dst []NodeID, label string) []NodeID {
	return dst
}

// Reader mimics the slice of the read interface CandidateNodes needs.
type Reader interface {
	AppendCandidates(dst []NodeID, label string) []NodeID
}

// CandidateNodes mimics the derived fresh-copy query.
func CandidateNodes(r Reader, label string) []NodeID { return r.AppendCandidates(nil, label) }
func (f *Frozen) WriteSnapshot(w io.Writer) error    { return nil }

// Remap mimics the node-ID remapping a compaction produces.
type Remap []NodeID

// RefreezeOptions mimics the compaction policy knob.
type RefreezeOptions struct{ CompactThreshold float64 }

func (f *Frozen) Refreeze(d *Delta) *Frozen { return &Frozen{} }
func (f *Frozen) RefreezeOpts(d *Delta, opt RefreezeOptions) (*Frozen, Remap) {
	return &Frozen{}, nil
}
func (f *Frozen) Compact() (*Frozen, Remap) { return &Frozen{}, nil }

// Delta mimics the mutable overlay log.
type Delta struct{ version uint64 }

func NewDelta(base *Frozen) *Delta { return &Delta{} }

func (d *Delta) AddNode(label string) NodeID { d.version++; return 0 }
func (d *Delta) AddNodeWithAttrs(label string, attrs map[string]string) NodeID {
	d.version++
	return 0
}
func (d *Delta) SetAttr(v NodeID, key, val string)        { d.version++ }
func (d *Delta) AddEdge(from, to NodeID, label string)    { d.version++ }
func (d *Delta) RemoveEdge(from, to NodeID, label string) { d.version++ }
func (d *Delta) RemoveNode(v NodeID)                      { d.version++ }
func (d *Delta) Overlay() *Overlay                        { return &Overlay{d: d} }

// Overlay mimics the version-pinned read view; Reader methods panic when
// the backing Delta has been mutated since the overlay was taken.
type Overlay struct{ d *Delta }

func (o *Overlay) NumNodes() int                            { return 0 }
func (o *Overlay) OutByLabelID(v NodeID, id int32) []NodeID { return nil }
func (o *Overlay) Delta() *Delta                            { return o.d }
func (o *Overlay) Base() *Frozen                            { return nil }

// WAL mimics the write-ahead log fronting a Delta.
type WAL struct{ d *Delta }

func NewWAL(w io.Writer, d *Delta) *WAL              { return &WAL{d: d} }
func OpenWAL(path string, d *Delta) (*WAL, error)    { return &WAL{d: d}, nil }
func (l *WAL) AddNode(label string) NodeID           { return l.d.AddNode(label) }
func (l *WAL) AddEdge(from, to NodeID, label string) { l.d.AddEdge(from, to, label) }
func (l *WAL) Err() error                            { return nil }
func (l *WAL) Flush() error                          { return nil }
func (l *WAL) Sync() error                           { return nil }
func (l *WAL) Close() error                          { return nil }

func Recover(base *Frozen, r io.Reader) (*Delta, int, error) { return &Delta{}, 0, nil }
func ReadSnapshot(r io.Reader) (*Frozen, error)              { return &Frozen{}, nil }
