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
func runWithin[T any](t *testing.T, pl *pool[T], seed []T, fn func(int, T) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- pl.run(seed, fn) }()
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
	seed := make([]int, n)
	for i := range seed {
		seed[i] = i
	}
	for _, p := range []int{0, 1, 4, 16} { // 0 clamps to 1; 16 > len(seed)
		var ran [n]atomic.Int32
		pl := newPool[int](nil, p)
		if want := max(p, 1); pl.size() != want {
			t.Fatalf("p=%d: size %d, want %d", p, pl.size(), want)
		}
		if err := runWithin(t, pl, seed, func(_, i int) error { ran[i].Add(1); return nil }); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		stolen := 0
		for _, s := range pl.stolen {
			stolen += s
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Fatalf("p=%d: task %d ran %d times", p, i, c)
			}
		}
		if stolen < 0 || stolen > n {
			t.Fatalf("p=%d: %d steals for %d tasks", p, stolen, n)
		}
		// A drained pool runs again.
		if err := runWithin(t, pl, seed[:3], func(_, i int) error { ran[i].Add(1); return nil }); err != nil {
			t.Fatalf("p=%d: second run: %v", p, err)
		}
		if ran[0].Load() != 2 || ran[3].Load() != 1 {
			t.Fatalf("p=%d: second run did not run exactly its own seed", p)
		}
	}
	assertGoroutineBaseline(t, before)
}

func TestPoolFirstErrorWins(t *testing.T) {
	before := runtime.NumGoroutine()
	errA, errB := errors.New("A"), errors.New("B")
	seed := []int{0, 1, 2, 3, 4, 5, 6, 7}
	// One worker runs the seed in order: task 2 fails, nothing after it runs.
	var ran atomic.Int32
	err := runWithin(t, newPool[int](nil, 1), seed, func(_, i int) error {
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
	// even though both fail, and the rest of the seed is abandoned.
	pl := newPool[int](nil, 4)
	ran.Store(0)
	err = runWithin(t, pl, seed, func(_, i int) error {
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
	if int(ran.Load()) > len(seed) {
		t.Fatalf("p=4: %d task executions for %d tasks", ran.Load(), len(seed))
	}
	assertGoroutineBaseline(t, before)
}

func TestPoolPanicBecomesPanicError(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, p := range []int{1, 4} {
		var panicker atomic.Int32
		err := runWithin(t, newPool[int](nil, p), []int{0, 1, 2, 3, 4, 5}, func(w, i int) error {
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
	pl := newPool[int](ctx, 4)
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	err := runWithin(t, pl, []int{0}, func(int, int) error {
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
	if err := pl.run([]int{0}, func(int, int) error { t.Error("task ran on a canceled pool"); return nil }); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled err = %v, want ErrCanceled", err)
	}
	assertGoroutineBaseline(t, before)
}
