// Fixtures for the hotalloc analyzer: per-iteration Reader copies in loop
// bodies are flagged; copy-safe uses outside loops are not.
package hotalloc

import "fixtures/graph"

func perIterationCopies(f *graph.Frozen, labels []string) int {
	total := 0
	for i := 0; i < 10; i++ {
		cands := graph.CandidateNodes(f, "person") // want "allocates a fresh copy every loop iteration"
		total += len(cands)
	}
	for _, l := range labels {
		total += len(graph.CandidateNodes(f, l)) // want "allocates a fresh copy every loop iteration"
	}
	return total
}

// Closures defined in a loop body run per iteration; the copy still
// happens once per iteration.
func closureInLoop(f *graph.Frozen) {
	var thunks []func() int
	for i := 0; i < 3; i++ {
		thunks = append(thunks, func() int {
			return len(graph.CandidateNodes(f, "city")) // want "allocates a fresh copy every loop iteration"
		})
	}
	for _, th := range thunks {
		_ = th()
	}
}

// The copy contract makes a single call safe: the caller owns the returned
// slice. No loop, no finding.
func copySafeOutsideLoop(f *graph.Frozen) []graph.NodeID {
	return graph.CandidateNodes(f, "person")
}

// A call in the loop condition runs per iteration too, but the analyzer
// only claims loop bodies; the condition shape is left to review.
func callInLoopHeader(f *graph.Frozen) {
	for i := 0; i < len(graph.CandidateNodes(f, "x")); i++ {
		_ = i
	}
}

// Group-evaluation shape: shared multi-GFD validation iterates pattern
// groups and enumerates each group's pattern once. Fetching the seed
// candidates inside the group loop re-copies per group — exactly the
// allocation the grouped engines exist to avoid.
func groupEvaluationLoop(f *graph.Frozen, groups [][]int) int {
	total := 0
	for _, members := range groups {
		seeds := graph.CandidateNodes(f, "person") // want "allocates a fresh copy every loop iteration"
		for range members {
			total += len(seeds)
		}
	}
	return total
}

// The member fan-out inside a group is a nested loop; a copy taken there
// allocates once per (group, member) pair and is still flagged.
func memberFanOut(f *graph.Frozen, groups [][]int) int {
	total := 0
	for _, members := range groups {
		for range members {
			total += len(graph.CandidateNodes(f, "city")) // want "allocates a fresh copy every loop iteration"
		}
	}
	return total
}

// How the grouped engines do it: hoist one buffer for the whole sweep and
// refill it with AppendCandidates per group. Clean.
func groupEvaluationHoisted(f *graph.Frozen, groups [][]int) int {
	total := 0
	var buf []graph.NodeID
	for _, members := range groups {
		buf = f.AppendCandidates(buf[:0], "person")
		for range members {
			total += len(buf)
		}
	}
	return total
}

// Retained per-iteration copies are the documented escape hatch.
func retainedCopies(f *graph.Frozen, labels []string) [][]graph.NodeID {
	var parts [][]graph.NodeID
	for _, l := range labels {
		//gfdlint:allow hotalloc -- each part is retained; the copy is the point
		parts = append(parts, graph.CandidateNodes(f, l))
	}
	return parts
}
