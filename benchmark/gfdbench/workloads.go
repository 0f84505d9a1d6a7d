package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gfdio"
	"repro/internal/graph"
)

// workload is one row of BENCHMARK.json: an input family run in one mode.
// The reasoning families appear once per engine because every workload must
// report the same metrics: `sat -seq` next to `sat -p P` is two workloads
// with one wall_s each, and the paper's ratios (Fig. 5, Fig. 6(a–d)) are
// quotients of those (see derived in report.go).
type workload struct {
	name  string
	group string
	mode  string // "par" (-p P), "p1" (-p 1), "seq" (-seq); "" where the command has no engine choice
}

// BENCHMARK.json and README.md say why each one exists.
var workloads = []workload{
	{"sat-dbpedia", groupSat, "par"},
	{"sat-dbpedia-p1", groupSat, "p1"},
	{"sat-dbpedia-seq", groupSat, "seq"},
	{"imp-batch", groupImp, "par"},
	{"imp-batch-seq", groupImp, "seq"},
	{"check-dense", groupCheck, ""},
	{"store-lifecycle", groupStore, ""},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// engineFlags are the gfdreason flags selecting the workload's engine.
func (w workload) engineFlags(p int) []string {
	switch w.mode {
	case "p1":
		return []string{"-p", "1"}
	case "seq":
		return []string{"-seq"}
	default:
		return []string{"-p", strconv.Itoa(p)}
	}
}

// tally counts operations against the answers they should have given.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"` // the first few, for the report
}

func (t *tally) check(ok bool, format string, args ...any) {
	t.Attempted++
	if ok {
		return
	}
	t.Failed++
	if len(t.Failures) < 5 {
		t.Failures = append(t.Failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, f := range o.Failures {
		if len(t.Failures) < 5 {
			t.Failures = append(t.Failures, f)
		}
	}
}

// passResult is one pass of a workload: one full operation as a user would
// run it (a batch of queries and a store lifecycle count as one).
type passResult struct {
	wall       time.Duration
	cpu        time.Duration
	rssMB      float64         // largest child
	ops        []time.Duration // per-operation latencies where a pass has many
	storeBytes int64           // store-lifecycle: snapshot + WAL + next snapshot
	tally
}

func (r *passResult) charge(c childResult) {
	r.cpu += c.cpu
	if c.rssMB > r.rssMB {
		r.rssMB = c.rssMB
	}
}

// pass runs the workload once, closed loop: one child at a time, the next
// starts when the previous has answered.
func (e env) pass(w workload, in *inputs) (passResult, error) {
	start := time.Now()
	var r passResult
	var err error
	switch w.group {
	case groupSat:
		err = e.satPass(w, in, &r)
	case groupImp:
		err = e.impPass(w, in, &r)
	case groupCheck:
		err = e.checkPass(in, &r)
	case groupStore:
		err = e.storePass(in, &r)
	}
	r.wall = time.Since(start)
	return r, err
}

func (e env) satPass(w workload, in *inputs, r *passResult) error {
	c, err := e.run(append(append([]string{"sat"}, w.engineFlags(e.p)...), in.sigmaPath)...)
	if err != nil {
		return err
	}
	r.charge(c)
	r.check(c.exit == 0 && c.stdout == "SATISFIABLE\n", "sat: exit %d, stdout %q", c.exit, c.stdout)
	return nil
}

func (e env) impPass(w workload, in *inputs, r *passResult) error {
	flags := append([]string{"imp"}, w.engineFlags(e.p)...)
	for _, t := range in.targets {
		c, err := e.run(append(append([]string(nil), flags...), in.sigmaPath, t.path)...)
		if err != nil {
			return err
		}
		r.charge(c)
		r.ops = append(r.ops, c.wall)
		if t.implied {
			r.check(c.exit == 0 && strings.HasPrefix(c.stdout, "IMPLIED"), "imp %s: want IMPLIED, exit %d, stdout %q", filepath.Base(t.path), c.exit, c.stdout)
		} else {
			r.check(c.exit == 1 && c.stdout == "NOT-IMPLIED\n", "imp %s: want NOT-IMPLIED, exit %d, stdout %q", filepath.Base(t.path), c.exit, c.stdout)
		}
	}
	return nil
}

func (e env) checkPass(in *inputs, r *passResult) error {
	c, err := e.run("check", in.sigmaPath, in.graphPath)
	if err != nil {
		return err
	}
	r.charge(c)
	r.check(c.exit == 1 && slices.Equal(c.violations(), in.wantViolations),
		"check: exit %d, %d violation lines, want exit 1 and %d", c.exit, len(c.violations()), len(in.wantViolations))
	return nil
}

// storePass walks one store through its life: ingest the text graph into a
// snapshot, act as the writer application (open the store, append update
// batches through the WAL with a sync and an incremental revalidation per
// batch), then validate store+log, fold the log into the next snapshot, and
// validate that. The three violation lists must agree.
func (e env) storePass(in *inputs, r *passResult) error {
	store, wal, next := in.path("store.snap"), in.path("updates.wal"), in.path("next.snap")
	if err := removeFiles(store, wal, next); err != nil {
		return err
	}
	c, err := e.run("snapshot", in.graphPath, store)
	if err != nil {
		return err
	}
	r.charge(c)
	r.check(c.exit == 0, "snapshot: exit %d", c.exit)

	cpu0 := selfCPU()
	incremental, lats, err := writerLoop(in, store, wal, e.p, nil)
	if err != nil {
		return err
	}
	r.cpu += selfCPU() - cpu0
	r.ops = lats
	want := violationLines(incremental)
	r.check(len(want) > 0, "writer: the final violation list is empty, so comparing the three lists checks nothing")
	wantExit := 0
	if len(want) > 0 {
		wantExit = 1
	}

	c, err = e.run("check", "-wal", wal, in.sigmaPath, store)
	if err != nil {
		return err
	}
	r.charge(c)
	r.check(c.exit == wantExit && slices.Equal(c.violations(), want),
		"check -wal: exit %d, %d violation lines; the writer's incremental list has %d", c.exit, len(c.violations()), len(want))

	c, err = e.run("recover", "-o", next, store, wal)
	if err != nil {
		return err
	}
	r.charge(c)
	r.check(c.exit == 0, "recover: exit %d", c.exit)

	c, err = e.run("check", in.sigmaPath, next)
	if err != nil {
		return err
	}
	r.charge(c)
	r.check(c.exit == wantExit && slices.Equal(c.violations(), want),
		"check after recover: exit %d, %d violation lines; the writer's incremental list has %d", c.exit, len(c.violations()), len(want))

	for _, p := range []string{store, wal, next} {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		r.storeBytes += st.Size()
	}
	return nil
}

// removeFiles deletes what a previous pass left; a WAL in particular is
// opened for append.
func removeFiles(paths ...string) error {
	for _, p := range paths {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// writerLoop is the writer application of store-lifecycle: it opens the
// store, validates it once, then applies the update stream in batches —
// every batch goes through the WAL, is synced, and is followed by an
// incremental revalidation against the store's base. It returns the final
// violation list and each batch's latency.
func writerLoop(in *inputs, storePath, walPath string, workers int, tr *tracer) ([]core.Violation, []time.Duration, error) {
	end := tr.begin("gfdio.read_snapshot")
	f, err := os.Open(storePath)
	if err != nil {
		return nil, nil, err
	}
	base, err := gfdio.ReadSnapshot(f)
	f.Close()
	end()
	if err != nil {
		return nil, nil, fmt.Errorf("open store: %w", err)
	}

	end = tr.begin("core.violations")
	baseline := core.Violations(base, in.set)
	end()

	g, _ := storeGenerator()
	d := graph.NewDelta(base)
	wal, err := graph.OpenWAL(walPath, d)
	if err != nil {
		return nil, nil, err
	}
	writer := renamingMutator{wal, in.names}
	current := baseline
	lats := make([]time.Duration, 0, in.size.StoreBatches)
	for b := 0; b < in.size.StoreBatches; b++ {
		endBatch := tr.begin("batch")
		t := time.Now()
		end = tr.begin("graph.wal_append")
		g.MutateDelta(writer, in.size.StoreBatchOps)
		end()
		end = tr.begin("graph.wal_sync")
		err = wal.Sync()
		end()
		if err == nil {
			end = tr.begin("core.revalidate")
			current, _, err = core.RevalidateDelta(in.set, d, baseline, core.RevalidateOptions{Workers: workers})
			end()
		}
		lats = append(lats, time.Since(t))
		endBatch()
		if err != nil {
			return nil, nil, fmt.Errorf("writer batch %d: %w", b, errors.Join(err, wal.Close()))
		}
	}
	if err := wal.Close(); err != nil {
		return nil, nil, fmt.Errorf("close wal: %w", err)
	}
	return current, lats, nil
}

// smoke runs the two untimed operations that pin the CLI's negative exits:
// a set made unsatisfiable by construction must answer UNSATISFIABLE with
// exit 1, and a run cut off by -timeout must exit 3.
func (e env) smoke(in *inputs) (tally, error) {
	var t tally
	c, err := e.run("sat", "-p", strconv.Itoa(e.p), in.unsatPath)
	if err != nil {
		return t, err
	}
	t.check(c.exit == 1 && strings.HasPrefix(c.stdout, "UNSATISFIABLE"), "smoke unsat: exit %d, stdout %q", c.exit, c.stdout)
	c, err = e.run("sat", "-timeout", "1ms", "-p", strconv.Itoa(e.p), in.sigmaPath)
	if err != nil {
		return t, err
	}
	t.check(c.exit == 3, "smoke timeout: exit %d, stdout %q", c.exit, c.stdout)
	return t, nil
}
