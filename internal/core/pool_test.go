package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// runWithin fails the test if the pool run does not return in time: a lost
// wakeup shows up as a hang, and a hang should name itself.
func runWithin(t *testing.T, pl *pool, n int, fn func(worker, i int) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- pl.run(n, fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("pool.run did not return")
		return nil
	}
}

func TestPoolRunsEverySeedOnce(t *testing.T) {
	before := runtime.NumGoroutine()
	const n = 10
	for _, p := range []int{0, 1, 4, 16} { // 0 clamps to 1; 16 > n
		var ran [n]atomic.Int32
		pl := newPool(nil, p)
		if want := max(p, 1); pl.size() != want {
			t.Fatalf("p=%d: size %d, want %d", p, pl.size(), want)
		}
		if err := runWithin(t, pl, n, func(_, i int) error { ran[i].Add(1); return nil }); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Fatalf("p=%d: task %d ran %d times", p, i, c)
			}
		}
		// A drained pool runs again.
		if err := runWithin(t, pl, 3, func(_, i int) error { ran[i].Add(1); return nil }); err != nil {
			t.Fatalf("p=%d: second run: %v", p, err)
		}
		if ran[0].Load() != 2 || ran[3].Load() != 1 {
			t.Fatalf("p=%d: second run did not run exactly its own tasks", p)
		}
	}
	// One worker takes the tasks in order.
	var order []int
	if err := runWithin(t, newPool(nil, 1), n, func(_, i int) error { order = append(order, i); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(order) != n {
		t.Fatalf("p=1: ran %d tasks, want %d", len(order), n)
	}
	for k, i := range order {
		if i != k {
			t.Fatalf("p=1: task order %v, want 0…%d", order, n-1)
		}
	}
	assertGoroutineBaseline(t, before)
}

func TestPoolFirstErrorWins(t *testing.T) {
	before := runtime.NumGoroutine()
	errA, errB := errors.New("A"), errors.New("B")
	const n = 8
	// One worker runs the tasks in order: task 2 fails, nothing after it runs.
	var ran atomic.Int32
	err := runWithin(t, newPool(nil, 1), n, func(_, i int) error {
		ran.Add(1)
		if i == 2 {
			return errA
		}
		return nil
	})
	if err != errA || ran.Load() != 3 {
		t.Fatalf("p=1: err=%v after %d tasks, want A after 3", err, ran.Load())
	}
	// Several workers: B is held back until A has been recorded, so A wins
	// even though both fail, and the rest of the tasks are abandoned.
	pl := newPool(nil, 4)
	ran.Store(0)
	err = runWithin(t, pl, n, func(_, i int) error {
		ran.Add(1)
		switch i {
		case 0:
			return errA
		case 1:
			for !pl.stopping() {
				runtime.Gosched()
			}
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("p=4: err=%v, want the first failure A", err)
	}
	if int(ran.Load()) > n {
		t.Fatalf("p=4: %d task executions for %d tasks", ran.Load(), n)
	}
	assertGoroutineBaseline(t, before)
}

func TestPoolPanicBecomesPanicError(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, p := range []int{1, 4} {
		var panicker atomic.Int32
		err := runWithin(t, newPool(nil, p), 6, func(w, i int) error {
			if i == 3 {
				panicker.Store(int32(w))
				panic(fmt.Sprintf("boom-%d", i))
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("p=%d: err = %v, want *PanicError", p, err)
		}
		if pe.Value != "boom-3" || pe.Worker != int(panicker.Load()) {
			t.Fatalf("p=%d: PanicError{Worker: %d, Value: %v}, want worker %d, boom-3", p, pe.Worker, pe.Value, panicker.Load())
		}
		if !strings.Contains(string(pe.Stack), "TestPoolPanicBecomesPanicError") {
			t.Fatalf("p=%d: stack does not reach the panicking task:\n%s", p, pe.Stack)
		}
	}
	assertGoroutineBaseline(t, before)
}

// TestPoolCancelWakesIdleWorkers: three workers find nothing to take while
// the one task in flight waits for the cancellation to reach the pool as a
// stop. The run must return ErrCanceled — the task retiring "normally" after
// being cut short is not quiescence.
func TestPoolCancelWakesIdleWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pl := newPool(ctx, 4)
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	err := runWithin(t, pl, 1, func(int, int) error {
		close(started)
		<-ctx.Done()
		for !pl.stopping() {
			runtime.Gosched()
		}
		return nil
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	// Pre-canceled: nothing runs at all.
	if err := pl.run(1, func(int, int) error { t.Error("task ran on a canceled pool"); return nil }); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled err = %v, want ErrCanceled", err)
	}
	assertGoroutineBaseline(t, before)
}

// TestPoolStopsTakingAfterFailure: once a run is failing, a worker that
// finishes its task takes no further one. Task 0 fails while task 1 is in
// flight on the other worker; task 1 retires normally once it sees the stop,
// and its worker must then leave the remaining tasks alone rather than run
// them to the end of the list.
func TestPoolStopsTakingAfterFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	errA := errors.New("A")
	pl := newPool(nil, 2)
	inFlight := make(chan struct{})
	var ran atomic.Int32
	err := runWithin(t, pl, 10, func(_, i int) error {
		ran.Add(1)
		switch i {
		case 0:
			<-inFlight
			return errA
		case 1:
			close(inFlight)
			for !pl.stopping() {
				runtime.Gosched()
			}
		}
		return nil
	})
	if err != errA {
		t.Fatalf("err = %v, want A", err)
	}
	if n := ran.Load(); n != 2 {
		t.Fatalf("%d tasks ran, want 2: a worker took tasks after the run failed", n)
	}
	assertGoroutineBaseline(t, before)
}
