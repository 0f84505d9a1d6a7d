package core

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
)

// pool is the one worker pool of internal/core: the dynamic-assignment
// scheduler behind every fan-out of ParSat/ParImp (planning pass, work
// phase, finalize rounds), of Revalidate and of validation
// (ViolationsOpts). Each of its p workers owns a deque; a worker pops its
// own front, steals from the back of a peer when dry, and otherwise blocks
// on a condition variable (with a wake sequence number so a wakeup between
// a worker's empty scan and its wait is never lost) until a task pushes new
// work, the last task retires, or the run stops. There is no busy-polling
// and no coordinator goroutine.
//
// A run ends in exactly one of three ways: every task retired (nil), a task
// returned an error or panicked (that error — first one wins, the remaining
// tasks are abandoned), or the context fired (ErrCanceled or the deadline
// error). Abandoned work therefore always surfaces as an error, never as
// quiescence.
type pool[T any] struct {
	ctx    context.Context
	deques []*cluster.Deque[T]
	// stolen[w] counts the tasks worker w took from a peer's deque; read it
	// after run returns.
	stolen  []int
	pending atomic.Int64 // tasks queued or in flight
	stopped atomic.Bool  // set by fail and by context cancellation
	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint64 // bumped under mu by every wake
	err     error  // first failure; guarded by mu
}

// newPool returns a pool of p workers (at least one) bound to ctx; a nil ctx
// never cancels.
func newPool[T any](ctx context.Context, p int) *pool[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	if p < 1 {
		p = 1
	}
	pl := &pool[T]{ctx: ctx, deques: make([]*cluster.Deque[T], p), stolen: make([]int, p)}
	for i := range pl.deques {
		pl.deques[i] = cluster.NewDeque[T]()
	}
	pl.cond = sync.NewCond(&pl.mu)
	return pl
}

// indexes returns 0, 1, …, n-1: the seed of a pool whose tasks are positions
// in some slice.
func indexes(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

// size returns the number of workers.
func (pl *pool[T]) size() int { return len(pl.deques) }

// run stripes seed round-robin across the worker deques (so seed order is
// the blended execution order), runs fn on every task — including tasks
// pushed from inside fn — and returns once all workers have exited. A pool
// may run again after a nil return (the finalize rounds do); after an error
// it is spent.
func (pl *pool[T]) run(seed []T, fn func(worker int, task T) error) error {
	if err := pl.ctx.Err(); err != nil {
		return canceledErr(err)
	}
	p := len(pl.deques)
	pl.pending.Store(int64(len(seed)))
	for i, t := range seed {
		pl.deques[i%p].PushBack(t)
	}
	// Workers blocked on the condvar re-check stopped only when woken, so
	// cancellation has to arrive as a wake.
	defer context.AfterFunc(pl.ctx, pl.stop)()
	var wg sync.WaitGroup
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Panic isolation: a panic anywhere under fn (e.g. a
			// search on a stale plan) fails the run with a *PanicError and
			// stops the siblings instead of crashing the process.
			defer func() {
				if r := recover(); r != nil {
					pl.fail(&PanicError{Worker: id, Value: r, Stack: debug.Stack()})
				}
			}()
			for {
				t, ok := pl.take(id)
				if !ok {
					return
				}
				if err := fn(id, t); err != nil {
					pl.fail(err)
					return
				}
				// The last task to retire wakes the waiters so they observe
				// quiescence.
				if pl.pending.Add(-1) == 0 {
					pl.wake()
				}
			}
		}(w)
	}
	wg.Wait()
	pl.mu.Lock()
	err := pl.err
	pl.mu.Unlock()
	if err == nil {
		// Tasks cut short by the context retire normally, so a drained pool
		// is only a completed one if the context is still live.
		if cerr := pl.ctx.Err(); cerr != nil {
			err = canceledErr(cerr)
		}
	}
	return err
}

// push makes tasks available on worker owner's deque front (depth-first:
// split branches run on the arrays their parent just warmed). It is called
// from inside a task, whose own pending count keeps the pool from quiescing
// before the new work is published.
func (pl *pool[T]) push(owner int, tasks []T) {
	pl.pending.Add(int64(len(tasks)))
	pl.deques[owner].PushFront(tasks...)
	pl.wake()
}

// fail ends the run with err unless an earlier failure already did, and
// stops every worker at its next task boundary.
func (pl *pool[T]) fail(err error) {
	pl.mu.Lock()
	if pl.err == nil {
		pl.err = err
	}
	pl.mu.Unlock()
	pl.stop()
}

// stopping reports whether the run is ending early; long tasks poll it.
func (pl *pool[T]) stopping() bool { return pl.stopped.Load() }

func (pl *pool[T]) stop() {
	pl.stopped.Store(true)
	pl.wake()
}

// wake bumps the sequence number and wakes every waiter.
func (pl *pool[T]) wake() {
	pl.mu.Lock()
	pl.seq++
	pl.cond.Broadcast()
	pl.mu.Unlock()
}

// grab returns a task from worker id's own deque front, else from the back
// of the first non-empty peer deque (scanning from the next worker up, so
// victims spread).
func (pl *pool[T]) grab(id int) (T, bool) {
	if t, ok := pl.deques[id].PopFront(); ok {
		return t, true
	}
	p := len(pl.deques)
	for i := 1; i < p; i++ {
		if t, ok := pl.deques[(id+i)%p].PopBack(); ok {
			pl.stolen[id]++
			return t, true
		}
	}
	var zero T
	return zero, false
}

// take returns the next task for worker id, blocking while every deque is
// empty but tasks are still in flight (they may yet push new work). It
// returns ok=false on quiescence or when the run is stopping. The
// sequence-number handshake with wake closes the scan-then-sleep race: a
// push between the empty scan and the wait bumps seq, so the wait is
// skipped.
func (pl *pool[T]) take(id int) (T, bool) {
	var zero T
	for {
		if pl.stopped.Load() {
			return zero, false
		}
		if t, ok := pl.grab(id); ok {
			return t, true
		}
		pl.mu.Lock()
		seq := pl.seq
		pl.mu.Unlock()
		if t, ok := pl.grab(id); ok {
			return t, true
		}
		if pl.pending.Load() == 0 {
			return zero, false
		}
		pl.mu.Lock()
		for pl.seq == seq && pl.pending.Load() > 0 && !pl.stopped.Load() {
			pl.cond.Wait()
		}
		pl.mu.Unlock()
	}
}
