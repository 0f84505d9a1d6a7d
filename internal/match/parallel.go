// Parallel candidate enumeration over sharded snapshots. The root variable
// of a search partitions the match set: every homomorphism assigns the root
// to exactly one candidate, so splitting the root candidate list and running
// one independent Search per part enumerates each match exactly once. A
// sharded snapshot cuts the ascending list at its stride boundaries
// (Sharded.Split), so concatenating the per-part results in order
// reproduces the sequential enumeration order exactly (pinned by the
// sharded equivalence tests).
package match

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// shardParts cuts the root variable's candidate list at the shard
// boundaries; shards owning no candidates contribute no part. A nil result
// means the fan-out does not apply and the caller must run a single
// sequential search: the pattern has no variables, no candidates exist, or
// the caller already fixed where the root frame comes from — RootCandidates
// restricts it to a caller's list, so overwriting it with the label
// candidates would enumerate a different match set.
func shardParts(p *pattern.Pattern, s *graph.Sharded, opts Options) [][]graph.NodeID {
	if opts.RootCandidates != nil {
		return nil
	}
	order := opts.Order
	if order == nil {
		order = DefaultOrder(p)
	}
	if len(order) == 0 {
		return nil
	}
	label := p.Label(order[0])
	return s.Split(s.AppendCandidates(make([]graph.NodeID, 0, s.LabelFrequency(label)), label))
}

// forEachPart runs body(i) for every part index across up to workers
// goroutines.
func forEachPart(parts [][]graph.NodeID, workers int, body func(int)) {
	if workers > len(parts) {
		workers = len(parts)
	}
	if workers < 1 {
		workers = 1
	}
	jobs := make(chan int, len(parts))
	for i := range parts {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	var panicMu sync.Mutex
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Panic isolation: capture the first worker panic and re-raise
			// it on the caller's goroutine after the join, so the engine's
			// recover guard (or the test binary) sees it instead of the
			// process dying on an unattended goroutine.
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = r
					}
					panicMu.Unlock()
				}
			}()
			for i := range jobs {
				body(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// FindAllSharded enumerates every homomorphism of p into the sharded
// snapshot with up to workers goroutines, one search per shard's slice of
// the root candidate set. The result equals FindAll on the flat snapshot,
// in the same order. Caller-supplied RootCandidates, which the fan-out
// cannot partition, degrade to a single sequential search, never to wrong
// results. Each part clones its matches on its own
// goroutine, so no view of a search crosses to another.
func FindAllSharded(p *pattern.Pattern, sv *graph.Sharded, workers int, opts Options) []Assignment {
	parts := shardParts(p, sv, opts)
	if len(parts) == 0 {
		return FindAllOpts(p, sv, opts)
	}
	results := make([][]Assignment, len(parts))
	forEachPart(parts, workers, func(i int) {
		po := opts
		po.RootCandidates = parts[i]
		results[i] = FindAllOpts(p, sv, po)
	})
	var out []Assignment
	for _, part := range results {
		out = append(out, part...)
	}
	return out
}

// CountSharded is FindAllSharded without materializing matches.
func CountSharded(p *pattern.Pattern, sv *graph.Sharded, workers int, opts Options) int {
	parts := shardParts(p, sv, opts)
	if len(parts) == 0 {
		return NewSearch(p, sv, opts).CountAll()
	}
	counts := make([]int, len(parts))
	forEachPart(parts, workers, func(i int) {
		po := opts
		po.RootCandidates = parts[i]
		counts[i] = NewSearch(p, sv, po).CountAll()
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// FindAllOpts is FindAll with options (FindAll predates Options-carrying
// call sites and keeps its one-argument shape for the tests that use it).
// It returns copies: the result outlives the search.
func FindAllOpts(p *pattern.Pattern, g graph.Reader, opts Options) []Assignment {
	s := NewSearch(p, g, opts)
	var out []Assignment
	for {
		h, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, h.Clone())
	}
}
