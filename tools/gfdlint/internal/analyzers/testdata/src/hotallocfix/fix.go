// Fixture for hotalloc's mechanical -fix: the plain-reassignment shape
// `buf = graph.CandidateNodes(f, l)` rewrites to f.AppendCandidates(buf[:0], l).
// fix.go.golden holds the expected output.
package hotallocfix

import "fixtures/graph"

func reusableBuffer(f *graph.Frozen, labels []string) int {
	total := 0
	var buf []graph.NodeID
	for _, l := range labels {
		buf = graph.CandidateNodes(f, l) // want "allocates a fresh copy every loop iteration"
		total += len(buf)
	}
	return total
}

// The := shape needs the buffer hoisted by hand: flagged, but no auto-fix.
func freshDeclareEachIteration(f *graph.Frozen, labels []string) int {
	total := 0
	for _, l := range labels {
		cands := graph.CandidateNodes(f, l) // want "allocates a fresh copy every loop iteration"
		total += len(cands)
	}
	return total
}
