package core

import (
	"context"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// pool is the one worker pool of internal/core: the scheduler behind every
// fan-out of ParSat/ParImp (the planning pass, ParSat's chunks, ParImp's
// enumeration), of Revalidate and of validation (ViolationsOpts). The tasks
// are all known when a run starts and no task adds work, so the paper's
// coordinator queue W is one shared cursor over them: an idle worker takes
// the next task index, and tasks start in exactly their given order. There
// is no busy-polling and no coordinator goroutine.
//
// A run ends in exactly one of three ways: every task retired (nil), a task
// returned an error or panicked (that error — first one wins, the remaining
// tasks are abandoned), or the context fired (ErrCanceled or the deadline
// error). Abandoned work therefore always surfaces as an error, never as
// quiescence.
type pool struct {
	ctx     context.Context
	workers int
	stopped atomic.Bool // set by fail and by context cancellation
	mu      sync.Mutex
	err     error // first failure; guarded by mu
}

// newPool returns a pool of p workers (at least one) bound to ctx; a nil ctx
// never cancels.
func newPool(ctx context.Context, p int) *pool {
	if ctx == nil {
		ctx = context.Background()
	}
	return &pool{ctx: ctx, workers: max(p, 1)}
}

// size returns the number of workers.
func (pl *pool) size() int { return pl.workers }

// run runs fn on the tasks 0, 1, …, n-1, handing them out in that order, and
// returns once all workers have exited. A pool may run again after a nil
// return; after an error it is spent.
func (pl *pool) run(n int, fn func(worker, i int) error) error {
	if err := pl.ctx.Err(); err != nil {
		return canceledErr(err)
	}
	defer context.AfterFunc(pl.ctx, pl.stop)()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range pl.workers {
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
			for !pl.stopped.Load() {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(id, i); err != nil {
					pl.fail(err)
					return
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

// fail ends the run with err unless an earlier failure already did, and
// stops every worker at its next task boundary.
func (pl *pool) fail(err error) {
	pl.mu.Lock()
	if pl.err == nil {
		pl.err = err
	}
	pl.mu.Unlock()
	pl.stop()
}

// stopping reports whether the run is ending early; long tasks poll it.
func (pl *pool) stopping() bool { return pl.stopped.Load() }

func (pl *pool) stop() { pl.stopped.Store(true) }
