package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gfd"
	"repro/internal/gfdio"
	"repro/internal/graph"
)

// inProcess redoes the workload's operation inside this process, file in to
// answer out, calling the same exported entry points cmd/gfdreason calls
// with the same default options. With a tracer it records a span around
// each call into a layer, nested under one span per operation; with nil it
// is the untraced twin the tracing overhead is measured against.
func inProcess(w workload, in *inputs, p int, tr *tracer) (tally, error) {
	switch w.group {
	case groupSat:
		return inProcessSat(w, in, p, tr)
	case groupImp:
		return inProcessImp(w, in, p, tr)
	case groupCheck:
		return inProcessCheck(in, tr)
	default:
		return inProcessStore(in, p, tr)
	}
}

func readGFDs(path string, tr *tracer) (*gfd.Set, error) {
	defer tr.begin("gfdio.read_gfds")()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gfdio.ReadGFDs(f)
}

func readGraph(path string, tr *tracer) (*graph.Frozen, error) {
	defer tr.begin("gfdio.read_graph")()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gfdio.ReadAnyGraph(f)
}

func writeSnapshot(path string, g *graph.Frozen, tr *tracer) error {
	defer tr.begin("gfdio.write_snapshot")()
	return gfdio.WriteSnapshotAtomic(path, g)
}

func inProcessSat(w workload, in *inputs, p int, tr *tracer) (tally, error) {
	var t tally
	defer tr.begin("op sat")()
	set, err := readGFDs(in.sigmaPath, tr)
	if err != nil {
		return t, err
	}
	var res *core.SatResult
	if w.mode == "seq" {
		end := tr.begin("core.seqsat")
		res = core.SeqSat(set)
		end()
	} else {
		if w.mode == "p1" {
			p = 1
		}
		end := tr.begin("core.parsat")
		res = core.ParSat(set, core.DefaultParOptions(p))
		end()
	}
	t.check(res.Err == nil && res.Satisfiable, "in-process sat: satisfiable=%v err=%v", res.Satisfiable, res.Err)
	return t, nil
}

// tracedTargets caps the in-process implication queries: the per-query
// profile is the same for every target, and the traced run has the layer
// probes to fit in as well.
const tracedTargets = 10

func inProcessImp(w workload, in *inputs, p int, tr *tracer) (tally, error) {
	var t tally
	targets := in.targets
	if len(targets) > tracedTargets {
		targets = targets[:tracedTargets]
	}
	for _, tg := range targets {
		endOp := tr.begin("op imp")
		set, err := readGFDs(in.sigmaPath, tr)
		if err != nil {
			endOp()
			return t, err
		}
		phis, err := readGFDs(tg.path, tr)
		if err != nil {
			endOp()
			return t, err
		}
		var implied bool
		var runErr error
		if w.mode == "seq" {
			end := tr.begin("core.seqimp")
			implied = core.SeqImp(set, phis.GFDs[0]).Implied
			end()
		} else {
			end := tr.begin("core.parimp")
			r := core.ParImp(set, phis.GFDs[0], core.DefaultParOptions(p))
			end()
			implied, runErr = r.Implied, r.Err
		}
		endOp()
		t.check(runErr == nil && implied == tg.implied, "in-process imp %s: implied=%v err=%v, want %v", tg.phi.Name, implied, runErr, tg.implied)
	}
	return t, nil
}

func inProcessCheck(in *inputs, tr *tracer) (tally, error) {
	var t tally
	defer tr.begin("op check")()
	set, err := readGFDs(in.sigmaPath, tr)
	if err != nil {
		return t, err
	}
	g, err := readGraph(in.graphPath, tr)
	if err != nil {
		return t, err
	}
	end := tr.begin("core.violations")
	vs, _, err := core.ViolationsOpts(context.Background(), g, set, core.VerifyOptions{})
	end()
	if err != nil {
		return t, err
	}
	end = tr.begin("format")
	lines := violationLines(vs)
	end()
	t.check(slices.Equal(lines, in.wantViolations), "in-process check: %d violations, want %d", len(lines), len(in.wantViolations))
	return t, nil
}

// inProcessStore is storePass with every child replaced by the calls it
// makes. The file names differ from the untraced pass so the two can never
// read each other's stores.
func inProcessStore(in *inputs, p int, tr *tracer) (tally, error) {
	var t tally
	store, wal, next := in.path("traced-store.snap"), in.path("traced-updates.wal"), in.path("traced-next.snap")
	if err := removeFiles(store, wal, next); err != nil {
		return t, err
	}
	defer tr.begin("op store-lifecycle")()

	end := tr.begin("snapshot")
	g, err := readGraph(in.graphPath, tr)
	if err == nil {
		err = writeSnapshot(store, g, tr)
	}
	end()
	if err != nil {
		return t, err
	}

	end = tr.begin("writer")
	incremental, _, err := writerLoop(in, store, wal, p, tr)
	end()
	if err != nil {
		return t, err
	}
	want := violationLines(incremental)

	end = tr.begin("check -wal")
	set, err := readGFDs(in.sigmaPath, tr)
	var base *graph.Frozen
	if err == nil {
		base, err = readGraph(store, tr)
	}
	var d *graph.Delta
	if err == nil {
		d, err = recoverLog(base, wal, tr)
	}
	var viaLog []core.Violation
	if err == nil {
		e := tr.begin("graph.overlay_derive")
		ov := d.Overlay()
		e()
		e = tr.begin("core.violations")
		viaLog, err = core.ViolationsCtx(context.Background(), ov, set)
		e()
	}
	end()
	if err != nil {
		return t, err
	}
	t.check(slices.Equal(violationLines(viaLog), want), "in-process check -wal: %d violations, the writer has %d", len(viaLog), len(want))

	end = tr.begin("recover")
	base, err = readGraph(store, tr)
	if err == nil {
		d, err = recoverLog(base, wal, tr)
	}
	if err == nil {
		e := tr.begin("graph.refreeze")
		// The threshold cmd/gfdreason recover applies by default.
		nf, _ := base.RefreezeOpts(d, graph.RefreezeOptions{CompactThreshold: graph.DefaultCompactThreshold})
		e()
		err = writeSnapshot(next, nf, tr)
	}
	end()
	if err != nil {
		return t, err
	}

	end = tr.begin("check")
	set, err = readGFDs(in.sigmaPath, tr)
	if err == nil {
		base, err = readGraph(next, tr)
	}
	var after []core.Violation
	if err == nil {
		e := tr.begin("core.violations")
		after, err = core.ViolationsCtx(context.Background(), base, set)
		e()
	}
	end()
	if err != nil {
		return t, err
	}
	t.check(slices.Equal(violationLines(after), want), "in-process check after recover: %d violations, the writer has %d", len(after), len(want))
	return t, nil
}

func recoverLog(base *graph.Frozen, path string, tr *tracer) (*graph.Delta, error) {
	defer tr.begin("graph.recover")()
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, _, err := graph.Recover(base, f)
	return d, err
}

// checkSelfTimes verifies the trace's own arithmetic: over each operation's
// span tree the self times must add up to the operation span (within 1%).
func checkSelfTimes(tr *tracer) (t tally) {
	self := tr.selfTimes()
	sum := map[int]time.Duration{}
	for i, s := range tr.spans {
		if !s.probe {
			sum[s.op] += self[i]
		}
	}
	for i, s := range tr.spans {
		if s.probe || s.parent >= 0 {
			continue
		}
		total := s.end - s.start
		diff := math.Abs(float64(sum[s.op] - total))
		t.check(diff <= 0.01*float64(total), "trace op %d (span %d %q): self times sum to %v, the span is %v", s.op, i, s.name, sum[s.op], total)
	}
	return t
}

// traceOverhead times the operation untraced and traced, reps times each,
// swapping which goes first every repetition (the second of a pair runs on
// warmer caches), and returns (traced − untraced) / untraced over the medians
// together with the tracer of the last traced run.
func traceOverhead(w workload, in *inputs, p int, reps int) (frac float64, tr *tracer, t tally, err error) {
	var plain, traced sample
	timed := func(with *tracer, into *sample) error {
		start := time.Now()
		pt, opErr := inProcess(w, in, p, with)
		*into = append(*into, float64(time.Since(start)))
		t.add(pt)
		return opErr
	}
	for i := 0; i < reps; i++ {
		tr = newTracer()
		if i%2 == 0 {
			err = timed(nil, &plain)
			if err == nil {
				err = timed(tr, &traced)
			}
		} else {
			err = timed(tr, &traced)
			if err == nil {
				err = timed(nil, &plain)
			}
		}
		if err != nil {
			return 0, nil, t, fmt.Errorf("in-process pass: %w", err)
		}
	}
	return (traced.median() - plain.median()) / plain.median(), tr, t, nil
}
