// Fixtures for the ctxpoll analyzer: unbounded `for {}` loops must reach a
// cancellation poll on every path through an iteration. Polls are channel
// operations, ctx.Err/Done, Search.Next/Err, stop-flag Loads, dynamic
// calls, and in-package helpers that themselves poll (call-graph fixpoint).
package ctxpoll

import (
	"context"
	"sync/atomic"

	"fixtures/match"
)

func work(n int) int { return n + 1 }

// canceled polls one call deep: the fixpoint marks it a poll.
func canceled(ctx context.Context) bool { return ctx.Err() != nil }

var ready atomic.Bool
var stopped atomic.Bool

// A spin loop with no poll anywhere: an iteration can run with the context
// already canceled.
func busySpin() {
	n := 0
	for { // want "without polling cancellation"
		n = work(n)
	}
}

// The poll sits behind a condition: the other arm completes an iteration
// without it.
func pollOnOnePath(ctx context.Context) int {
	n := 0
	for { // want "without polling cancellation"
		if n%2 == 0 {
			if ctx.Err() != nil {
				return n
			}
		}
		n = work(n)
	}
}

// A continue can bypass the select at the bottom of the body.
func continueSkipsPoll(ctx context.Context, ch chan int) int {
	n := 0
	for { // want "without polling cancellation"
		n = work(n)
		if n%3 == 0 {
			continue
		}
		select {
		case <-ctx.Done():
			return n
		case ch <- n:
		}
	}
}

// Sending does not observe cancellation: a send-only loop still spins the
// contract.
func sendIsNotAPoll(ch chan int) {
	n := 0
	for { // want "without polling cancellation"
		n = work(n)
		ch <- n
	}
}

// Load only counts when the receiver names a cancellation flag; "ready"
// does not.
func loadNotStopNamed() {
	n := 0
	for { // want "without polling cancellation"
		if ready.Load() {
			n = work(n)
		}
	}
}

// --- clean shapes ---

// The canonical engine loop: a select in every iteration.
func selectLoop(ctx context.Context, ch chan int) int {
	n := 0
	for {
		select {
		case <-ctx.Done():
			return n
		case v := <-ch:
			n += v
		}
	}
}

// An unconditional ctx.Err check dominates the back-edge.
func errCheckEveryIteration(ctx context.Context) int {
	n := 0
	for {
		if ctx.Err() != nil {
			return n
		}
		n = work(n)
	}
}

// Search.Next polls internally: stepping the iterator is a poll.
func drainSearch(s *match.Search) int {
	n := 0
	for {
		if !s.Next() {
			return n
		}
		n++
	}
}

// The poll hides one in-package call deep; the call-graph summary finds it.
func pollsThroughHelper(ctx context.Context) int {
	n := 0
	for {
		if canceled(ctx) {
			return n
		}
		n = work(n)
	}
}

// The helper is a method of a generic type, reached through an
// instantiation: the summary must resolve it to its declaration.
type rounds[T any] struct{ ctx context.Context }

func (r *rounds[T]) run() bool { return r.ctx.Err() != nil }

func pollsThroughGenericMethod(r *rounds[int]) int {
	n := 0
	for {
		if r.run() {
			return n
		}
		n = work(n)
	}
}

// A stop-named flag Load is the engine's lock-free cancellation check.
func stopFlagLoop() int {
	n := 0
	for {
		if stopped.Load() {
			return n
		}
		n = work(n)
	}
}

// A call through a function value conservatively counts as a poll.
func dynamicCallConservative(step func() bool) int {
	n := 0
	for {
		if step() {
			return n
		}
		n++
	}
}

// Conditioned and range loops state their own exit: out of scope.
func conditionedLoop(n int) int {
	total := 0
	for total < n {
		total += 2
	}
	return total
}

func rangeOverChannel(ch chan int) int {
	n := 0
	for v := range ch {
		n += v
	}
	return n
}
