package match

import (
	"context"
	"testing"

	"repro/internal/graph"
	"repro/internal/oracle"
)

// TestSearchCanceledBeforeStart pins the entry check: a search handed an
// already-canceled context yields nothing and reports the context's error.
func TestSearchCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSearch(edgePattern("n", "n", "e"), triangleData(), Options{Ctx: ctx})
	if _, ok := s.Next(); ok {
		t.Fatal("canceled search produced a match")
	}
	if err := s.Err(); err != context.Canceled {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	// Once fired, the search is permanently exhausted.
	if _, ok := s.Next(); ok {
		t.Fatal("canceled search resumed")
	}
}

// TestSearchCancelBetweenMatches cancels after the first match: the next
// Next call observes the context at entry and ends the enumeration.
func TestSearchCancelBetweenMatches(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSearch(edgePattern("n", "n", "e"), triangleData(), Options{Ctx: ctx})
	if _, ok := s.Next(); !ok {
		t.Fatal("triangle has matches; first Next came up empty")
	}
	cancel()
	if _, ok := s.Next(); ok {
		t.Fatal("Next after cancel produced a match")
	}
	if s.Err() == nil {
		t.Fatal("Err not set after cancel")
	}
}

// countdownCtx is a context whose Err starts firing after a fixed number of
// polls, making the in-loop cancellation check deterministic to hit: the
// entry check passes, then a long candidate scan crosses the poll budget.
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestSearchCancelMidScan pins the budgeted in-loop check: a single Next
// call scanning far more than ctxCheckEvery candidates must notice a cancel
// that fires mid-scan, without waiting for the scan to end.
func TestSearchCancelMidScan(t *testing.T) {
	// ~3x ctxCheckEvery root candidates that each dead-end one frame down:
	// every "n" node has an e-edge (so signature pruning keeps it in the
	// root frame), but only to an "m" node, which y's label rejects. One
	// Next call walks them all and would return ok=false with no error —
	// unless the in-loop check fires first.
	g := graph.New()
	sink := g.AddNode("m")
	for i := 0; i < 3*ctxCheckEvery; i++ {
		g.AddEdge(g.AddNode("n"), sink, "e")
	}
	p := edgePattern("n", "n", "e")
	if got := oracle.Matches(p, g); len(got) != 0 {
		t.Fatalf("workload broken: the oracle finds %d matches, want none", len(got))
	}
	ctx := &countdownCtx{Context: context.Background(), polls: 1}
	s := NewSearch(p, g, Options{Ctx: ctx})
	if _, ok := s.Next(); ok {
		t.Fatal("dead-end graph produced a match")
	}
	if err := s.Err(); err != context.Canceled {
		t.Fatalf("Err = %v, want the mid-scan cancel", err)
	}
}

// TestSearchNilCtx pins that a context-free search is unchanged: full
// enumeration, no error.
func TestSearchNilCtx(t *testing.T) {
	s := NewSearch(edgePattern("n", "n", "e"), triangleData(), Options{})
	n := 0
	for _, ok := s.Next(); ok; _, ok = s.Next() {
		n++
	}
	if n != 3 {
		t.Fatalf("enumerated %d matches, want 3", n)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Err = %v on an uncanceled search", err)
	}
}
