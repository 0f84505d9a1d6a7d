// Binary snapshot I/O alongside the text graph format. The text format
// (ReadFrozenGraph/WriteGraph) stays the interchange and authoring format; the
// snapshot image (graph.WriteSnapshot) is the serving format — loading one
// skips parsing and the freeze sort entirely. ReadAnyGraph sniffs the magic
// bytes so tools accept either transparently.
package gfdio

import (
	"bufio"
	"io"

	"repro/internal/graph"
)

// WriteSnapshot serializes the frozen snapshot as a binary image; see
// graph.Frozen.WriteSnapshot for the format.
func WriteSnapshot(w io.Writer, f *graph.Frozen) error {
	return f.WriteSnapshot(w)
}

// ReadSnapshot loads a binary snapshot image.
func ReadSnapshot(r io.Reader) (*graph.Frozen, error) {
	return graph.ReadSnapshot(r)
}

// ReadAnyGraph loads a graph from either format, sniffing the snapshot
// magic: a binary image loads directly, anything else parses as the text
// format through the bulk-load path (ReadFrozenGraph). Either way the
// result is the immutable CSR snapshot the read-only pipelines consume.
func ReadAnyGraph(r io.Reader) (*graph.Frozen, error) {
	br := bufio.NewReaderSize(r, 64*1024)
	prefix, err := br.Peek(8)
	if err != nil && err != io.EOF {
		return nil, err
	}
	if graph.LooksLikeSnapshot(prefix) {
		return graph.ReadSnapshot(br)
	}
	return ReadFrozenGraph(br)
}
