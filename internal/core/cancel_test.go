package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// satSet builds a known-satisfiable set with one unit of work per GFD: the
// consequences land on distinct attributes with a single value each, so no
// two rules can conflict and a canceled run can never be saved by an early
// legitimate UNSAT answer.
func satSet(n int) *gfd.Set {
	set := gfd.NewSet()
	for i := 0; i < n; i++ {
		set.Add(gfd.MustNew(fmt.Sprintf("c%d", i), q6(), nil,
			[]gfd.Literal{gfd.Const(0, fmt.Sprintf("k%d", i), "v")}))
	}
	return set
}

// assertGoroutineBaseline retries until the goroutine count settles back to
// the pre-run baseline: a canceled or panicked run must not strand workers
// or watchers.
func assertGoroutineBaseline(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestParPreCanceled pins the entry check on both engines: a context
// canceled before the call returns ErrCanceled without starting — no group
// is planned, no unit is run.
func TestParPreCanceled(t *testing.T) {
	before := runtime.NumGoroutine()
	set := satSet(4)
	target := gfd.MustNew("t", q6(), nil, []gfd.Literal{gfd.Const(0, "fresh", "x")})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := DefaultParOptions(2)
	opt.Ctx = ctx
	opt.testHookUnitStart = func(int) { t.Error("a unit started under a pre-canceled context") }
	if res := ParSat(set, opt); !errors.Is(res.Err, ErrCanceled) || res.Stats.UnitsRun != 0 {
		t.Fatalf("ParSat: Err = %v, UnitsRun = %d; want ErrCanceled, 0", res.Err, res.Stats.UnitsRun)
	}
	if res := ParImp(set, target, opt); !errors.Is(res.Err, ErrCanceled) || res.Stats.UnitsRun != 0 {
		t.Fatalf("ParImp: Err = %v, UnitsRun = %d; want ErrCanceled, 0", res.Err, res.Stats.UnitsRun)
	}
	eng := newSatEngine(opt, set)
	eng.testHookGroupPlan = func(int) { t.Error("a group was planned under a pre-canceled context") }
	if res := eng.sat(1); !errors.Is(res.Err, ErrCanceled) {
		t.Fatalf("engine run: err = %v, want ErrCanceled", res.Err)
	}
	assertGoroutineBaseline(t, before)
}

// manualDeadline is a context whose deadline fires when the test says so,
// standing in for a timer without a wall-clock wait.
type manualDeadline struct {
	context.Context
	done  chan struct{}
	fired atomic.Bool
}

func (c *manualDeadline) Done() <-chan struct{} { return c.done }

func (c *manualDeadline) Err() error {
	if c.fired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *manualDeadline) fire() {
	if c.fired.CompareAndSwap(false, true) {
		close(c.done)
	}
}

// TestParDeadlineDuringBuildUnits fires the deadline from inside the
// planning pass: the run must end there with the deadline error — no unit
// run — instead of first looking at the context once the work phase starts.
// With one worker the pass must stop at the very next group.
func TestParDeadlineDuringBuildUnits(t *testing.T) {
	before := runtime.NumGoroutine()
	// 12 structurally distinct patterns (paths of 2..13 variables), so Σ has
	// 12 pattern groups and the planning pass 12 tasks.
	set := gfd.NewSet()
	for i := 0; i < 12; i++ {
		p := pattern.New()
		last := p.AddVar("x0", "n")
		for j := 1; j <= i+1; j++ {
			next := p.AddVar(fmt.Sprintf("x%d", j), "n")
			p.AddEdge(last, next, "e")
			last = next
		}
		set.Add(gfd.MustNew(fmt.Sprintf("path%d", i), p, nil, []gfd.Literal{gfd.Const(0, fmt.Sprintf("k%d", i), "v")}))
	}
	if n := len(set.Groups()); n != 12 {
		t.Fatalf("workload broken: %d pattern groups, want 12", n)
	}
	for _, workers := range []int{1, 4} {
		ctx := &manualDeadline{Context: context.Background(), done: make(chan struct{})}
		opt := DefaultParOptions(workers)
		opt.Ctx = ctx
		opt.testHookUnitStart = func(int) { t.Error("a unit started after the deadline fired in buildUnits") }
		eng := newSatEngine(opt, set)
		var planned atomic.Int64
		eng.testHookGroupPlan = func(int) {
			planned.Add(1)
			ctx.fire()
		}
		res := eng.sat(1)
		if !errors.Is(res.Err, context.DeadlineExceeded) {
			t.Fatalf("p=%d: err = %v, want context.DeadlineExceeded", workers, res.Err)
		}
		if n := planned.Load(); n < 1 || n > int64(workers) {
			t.Fatalf("p=%d: %d groups planned; each worker must stop at its first poll after the deadline", workers, n)
		}
		if res.Stats.UnitsRun != 0 {
			t.Fatalf("p=%d: %d units run after a deadline during the planning pass", workers, res.Stats.UnitsRun)
		}
	}
	assertGoroutineBaseline(t, before)
}

// TestParSatCancelMidFlight cancels from inside the first work unit, at one
// worker and at four: the run must come back with ErrCanceled — abandoned
// units can never conclude as a SATISFIABLE answer — and leave no goroutine
// behind.
func TestParSatCancelMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	set := satSet(24)
	for _, p := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		opt := ParOptions{Workers: p, Ctx: ctx, testHookUnitStart: func(int) { cancel() }}
		res := ParSat(set, opt)
		cancel()
		if !errors.Is(res.Err, ErrCanceled) {
			t.Fatalf("p=%d: ParSat.Err = %v, want ErrCanceled", p, res.Err)
		}
	}
	assertGoroutineBaseline(t, before)
}

// TestParImpCancelMidFlight is the implication twin, on a NOT-IMPLIED
// instance so the only legitimate conclusion is the full quiescence the
// cancel preempts.
func TestParImpCancelMidFlight(t *testing.T) {
	before := runtime.NumGoroutine()
	set := satSet(8)
	target := gfd.MustNew("t", q6(), nil, []gfd.Literal{gfd.Const(0, "fresh", "x")})
	for _, p := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		opt := ParOptions{Workers: p, Ctx: ctx, testHookUnitStart: func(int) { cancel() }}
		res := ParImp(set, target, opt)
		cancel()
		if !errors.Is(res.Err, ErrCanceled) {
			t.Fatalf("p=%d: ParImp.Err = %v, want ErrCanceled", p, res.Err)
		}
		if res.Implied {
			t.Fatalf("p=%d: canceled run claims IMPLIED", p)
		}
	}
	assertGoroutineBaseline(t, before)
}

// TestParDeadlineExceeded pins the error mapping: a deadline firing
// surfaces as context.DeadlineExceeded, not as ErrCanceled.
func TestParDeadlineExceeded(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	opt := DefaultParOptions(2)
	opt.Ctx = ctx
	res := ParSat(satSet(8), opt)
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("ParSat.Err = %v, want context.DeadlineExceeded", res.Err)
	}
	assertGoroutineBaseline(t, before)
}

// TestParSatPanicIsolation injects a panic into a work unit, at one worker
// and at four: the run must fail with a *PanicError carrying the value and a
// stack — the process stays alive, siblings are canceled, nothing leaks.
func TestParSatPanicIsolation(t *testing.T) {
	before := runtime.NumGoroutine()
	set := satSet(24)
	for _, p := range []int{1, 4} {
		vname := fmt.Sprintf("p=%d", p)
		opt := ParOptions{Workers: p, testHookUnitStart: func(int) { panic("boom-42") }}
		res := ParSat(set, opt)
		if res.Err == nil {
			t.Fatalf("%s: panicking unit produced no error", vname)
		}
		var pe *PanicError
		if !errors.As(res.Err, &pe) {
			t.Fatalf("%s: ParSat.Err = %v, want *PanicError", vname, res.Err)
		}
		if pe.Value != "boom-42" {
			t.Fatalf("%s: panic value %v, want boom-42", vname, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("%s: panic error carries no stack", vname)
		}
		if res.Satisfiable {
			t.Fatalf("%s: panicked run claims SATISFIABLE", vname)
		}
	}
	assertGoroutineBaseline(t, before)
}

// TestParImpPanicIsolation is the implication twin, with the panic raised
// once in a worker's search and once in the chase, which a worker takes over
// as it completes the next unit in order: either way the run fails with a
// *PanicError, claims no answer and leaves no goroutine behind.
func TestParImpPanicIsolation(t *testing.T) {
	before := runtime.NumGoroutine()
	set := satSet(8)
	target := gfd.MustNew("t", q6(), nil, []gfd.Literal{gfd.Const(0, "fresh", "x")})
	for _, p := range []int{1, 4} {
		for _, where := range []string{"search", "chase"} {
			cp, sub, res := startImp(set, target)
			if res != nil {
				t.Fatalf("setup: answered without a chase: %+v", res)
			}
			opt := ParOptions{Workers: p}
			if where == "search" {
				opt.testHookUnitStart = func(int) { panic("imp-boom") }
			} else {
				opt.testHookChase = func(int) { panic("imp-boom") }
			}
			r := newParEngine(opt, sub, cp.Graph).imp(cp)
			var pe *PanicError
			if !errors.As(r.Err, &pe) || pe.Value != "imp-boom" || len(pe.Stack) == 0 {
				t.Fatalf("p=%d, panic in the %s: Err = %v, want *PanicError(imp-boom) with a stack", p, where, r.Err)
			}
			if r.Implied {
				t.Fatalf("p=%d, panic in the %s: panicked run claims IMPLIED", p, where)
			}
		}
	}
	assertGoroutineBaseline(t, before)
}

// revalidateCancelFixture builds a revalidation workload with enough GFDs
// that a cancel or panic injected at the first task start preempts the run.
func revalidateCancelFixture() (*gfd.Set, *graph.Delta, []Violation) {
	gr := gen.New(gen.Config{N: 12, K: 4, L: 2, WildcardRate: 0.2, Seed: 3})
	set := gr.Set()
	g := gr.ConsistentGraph(80)
	base := g.Frozen()
	prev := Violations(base, set)
	d := gr.DenseDelta(base, 20)
	return set, d, prev
}

// TestRevalidateCancel covers the revalidation paths: pre-canceled and
// canceled-from-the-first-task contexts return ErrCanceled from a
// one-worker and a four-worker pool.
func TestRevalidateCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	set, d, prev := revalidateCancelFixture()
	for _, workers := range []int{0, 4} {
		pre, cancelPre := context.WithCancel(context.Background())
		cancelPre()
		_, _, err := RevalidateDelta(set, d, prev, RevalidateOptions{Workers: workers, Ctx: pre})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: pre-canceled err = %v, want ErrCanceled", workers, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		opt := RevalidateOptions{Workers: workers, Ctx: ctx}
		opt.testHookUnitStart = func(int) { cancel() }
		_, _, err = RevalidateDelta(set, d, prev, opt)
		cancel()
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: mid-flight err = %v, want ErrCanceled", workers, err)
		}
	}
	assertGoroutineBaseline(t, before)
}

// countdownCtx is a context whose Err starts firing after a fixed number of
// polls, so a test can make a cancel land at a chosen depth of a run.
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

// TestRevalidateCancelsInsideGroup pins that a cancel reaching the one
// group's re-enumeration stops that search, not just the next group
// boundary: the countdown is armed as the task starts, lets the task's entry
// poll and a few of the search's polls pass, and then fires with most of the
// hub's matches still ahead.
func TestRevalidateCancelsInsideGroup(t *testing.T) {
	p := pattern.New()
	x := p.AddVar("x", "n")
	y := p.AddVar("y", "n")
	p.AddEdge(x, y, "e")
	set := gfd.NewSet()
	set.Add(gfd.MustNew("hub", p, nil, []gfd.Literal{gfd.Const(y, "k", "v")}))
	// A star into hub h: touching h touches every leaf's match x→h, and the
	// search rooted at h visits the leaves one frame each.
	b := graph.NewBuilder(1000)
	h := b.AddNode("n")
	for i := 0; i < 1000; i++ {
		b.AddEdge(b.AddNode("n"), h, "e")
	}
	base := b.Freeze()
	prev := Violations(base, set)
	d := graph.NewDelta(base)
	d.SetAttr(h, "k", "v")

	_, full, err := RevalidateDelta(set, d, prev, RevalidateOptions{Workers: 1})
	if err != nil || full.Reenumerated < 1000 {
		t.Fatalf("uncancelled run: err %v, stats %+v; want every match at the hub re-enumerated", err, full)
	}
	// A copy of prev does not continue the uncancelled call's chain, so the
	// canceled run re-enumerates the same matches from the base.
	ctx := &countdownCtx{Context: context.Background(), polls: math.MaxInt}
	opt := RevalidateOptions{Workers: 1, Ctx: ctx}
	opt.testHookUnitStart = func(int) { ctx.polls = 1 + 8 }
	_, stats, err := RevalidateDelta(set, d, slices.Clone(prev), opt)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if stats.Reenumerated == 0 || stats.Reenumerated >= full.Reenumerated {
		t.Fatalf("canceled run re-enumerated %d matches; want some, and fewer than the uncancelled %d",
			stats.Reenumerated, full.Reenumerated)
	}
}

// TestRevalidatePanicIsolation panics inside a revalidation task: the pool
// must convert it into a *PanicError and shut down cleanly.
func TestRevalidatePanicIsolation(t *testing.T) {
	before := runtime.NumGoroutine()
	set, d, prev := revalidateCancelFixture()
	opt := RevalidateOptions{Workers: 4}
	opt.testHookUnitStart = func(int) { panic("reval-boom") }
	_, _, err := RevalidateDelta(set, d, prev, opt)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "reval-boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error incomplete: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
	assertGoroutineBaseline(t, before)
}

// TestViolationsCtx pins the validation entry point: a canceled context
// stops the GFD sweep with ErrCanceled, and a live one reproduces
// Violations exactly.
func TestViolationsCtx(t *testing.T) {
	gr := gen.New(gen.Config{N: 8, K: 4, L: 2, WildcardRate: 0.2, Seed: 9})
	set := gr.Set()
	g := gr.ConsistentGraph(60).Frozen()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ViolationsCtx(ctx, g, set); !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled ViolationsCtx err = %v, want ErrCanceled", err)
	}

	got, err := ViolationsCtx(context.Background(), g, set)
	if err != nil {
		t.Fatalf("live ViolationsCtx: %v", err)
	}
	if want := Violations(g, set); !violationsEqual(got, want) {
		t.Fatalf("ViolationsCtx diverges from Violations: %d vs %d", len(got), len(want))
	}
}

// TestViolationsPanicIsIsolated panics inside a validation task, in a
// middle pattern group: validation must return a *PanicError instead of
// crashing the process, and leave no worker behind.
func TestViolationsPanicIsIsolated(t *testing.T) {
	gr := gen.New(gen.Config{N: 8, K: 4, L: 2, WildcardRate: 0.2, Seed: 9})
	set := gr.Set()
	g := gr.ConsistentGraph(60).Frozen()
	groups := len(set.Groups())
	if groups < 3 {
		t.Fatalf("setup: %d pattern groups; the panic would not land in a middle one", groups)
	}

	before := runtime.NumGoroutine()
	mid := set.Groups()[groups/2].Members[0]
	opt := ParOptions{Workers: runtime.GOMAXPROCS(0), testHookUnitStart: func(first int) {
		if first == mid {
			panic("group-boom")
		}
	}}
	_, _, err := violations(g, set, opt)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pe.Value != "group-boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic error incomplete: value=%v stack=%d bytes", pe.Value, len(pe.Stack))
	}
	assertGoroutineBaseline(t, before)
}
