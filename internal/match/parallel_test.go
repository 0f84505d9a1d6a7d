package match

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// TestForEachPartReraisesWorkerPanic pins forEachPart's panic isolation: a
// part whose body panics does not kill the process from its worker
// goroutine; the value is re-raised on the caller's goroutine, and only
// after every worker has joined — the other parts all ran and no worker is
// left behind.
func TestForEachPartReraisesWorkerPanic(t *testing.T) {
	before := runtime.NumGoroutine()
	parts := make([][]graph.NodeID, 8)
	var ran atomic.Int32
	fired := make(chan struct{})
	got := func() (r any) {
		defer func() { r = recover() }()
		forEachPart(parts, 4, func(i int) {
			switch i {
			case 0:
				<-fired // part 0 is still running when part 5 panics
			case 5:
				ran.Add(1)
				close(fired)
				panic("boom")
			}
			ran.Add(1)
		})
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v on the caller's goroutine, want the worker's panic value boom", got)
	}
	if n := ran.Load(); n != int32(len(parts)) {
		t.Fatalf("re-raised after %d of %d parts ran; want every worker joined first", n, len(parts))
	}
	for deadline := time.Now().Add(3 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
