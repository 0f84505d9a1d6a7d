package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number. Value is the median of N measurements
// taken within the run; the quartiles are those of the same measurements.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
}

func metricOf(s sample, unit string) metric {
	q1, q3 := s.quartiles()
	return metric{Value: s.median(), Unit: unit, N: len(s), Q1: q1, Q3: q3}
}

// runResult is one workload's run: either its end-to-end metrics (tracing
// off) or its per-layer metrics (the traced pass).
type runResult struct {
	Workload string `json:"workload"`
	Input    string `json:"input"`
	Digest   string `json:"digest"`
	// Metrics are the declared ones: every end_to_end name of
	// BENCHMARK.json, or every per_layer name.
	Metrics map[string]metric `json:"metrics"`
	// Info carries what only some workloads define (per-operation
	// latencies, store size) and so cannot be a declared metric.
	Info      map[string]metric `json:"info,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
	tally                       // every operation whose answer was checked
}

// setUp builds gfdreason and generates the workload's inputs, reps times,
// and returns the inputs with the per-repetition times.
func (e env) setUp(w workload, seed int64, sz sizes, reps int) (*inputs, sample, error) {
	var in *inputs
	var times sample
	before := calibrate()
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := e.buildReasoner(); err != nil {
			return nil, nil, err
		}
		var err error
		if in, err = generate(w.group, filepath.Join(e.work, w.group), seed, sz); err != nil {
			return nil, nil, err
		}
		took := time.Since(start)
		after := calibrate()
		times = append(times, seconds(calibrated(took, before, after)))
		before = after
	}
	if err := in.expect(); err != nil {
		return nil, nil, err
	}
	return in, times, nil
}

// endToEnd measures the workload as its user sees it: through the built
// binary, tracing off, for at least dur (the pass in progress is finished).
func (e env) endToEnd(w workload, seed int64, sz sizes, dur time.Duration) (*runResult, error) {
	in, setup, err := e.setUp(w, seed, sz, sz.SetupReps)
	if err != nil {
		return nil, err
	}
	res, err := newResult(e, w, in)
	if err != nil {
		return nil, err
	}
	if w.group == groupSat {
		t, err := e.smoke(in)
		if err != nil {
			return nil, err
		}
		res.add(t)
	}

	var wall, cpu, rss, ops, rawWall, calib sample
	var storeBytes int64
	start := time.Now()
	before := calibrate()
	for len(wall) == 0 || time.Since(start) < dur {
		p, err := e.pass(w, in)
		if err != nil {
			return nil, err
		}
		after := calibrate()
		res.add(p.tally)
		wall = append(wall, seconds(calibrated(p.wall, before, after)))
		cpu = append(cpu, seconds(calibrated(p.cpu, before, after)))
		rawWall = append(rawWall, seconds(p.wall))
		calib = append(calib, millis(after))
		before = after
		rss = append(rss, p.rssMB)
		for _, o := range p.ops {
			ops = append(ops, millis(o))
		}
		storeBytes = p.storeBytes
	}
	res.Metrics = map[string]metric{
		"setup_s":     metricOf(setup, "s"),
		"wall_s":      metricOf(wall, "s"),
		"cpu_s":       metricOf(cpu, "s"),
		"peak_rss_mb": metricOf(rss, "MB"),
	}
	res.Info = map[string]metric{
		"raw_wall_s": metricOf(rawWall, "s"),
		"calib_ms":   metricOf(calib, "ms"),
	}
	if len(ops) > 0 {
		res.Info["op_p50_ms"] = metricOf(ops, "ms")
		if pct, v, ok := tailPercentile(ops); ok {
			res.Info["op_tail_ms"] = metric{Value: v, Unit: "ms", N: len(ops)}
			res.Info["op_tail_pct"] = metric{Value: float64(pct), Unit: "%", N: len(ops)}
		}
	}
	if storeBytes > 0 {
		res.Info["store_mb"] = metric{Value: float64(storeBytes) / (1 << 20), Unit: "MB", N: 1}
	}
	return res, nil
}

// traced makes the traced pass: the operation redone in-process with spans,
// then every layer probe, then the trace file.
func (e env) traced(w workload, seed int64, sz sizes) (*runResult, error) {
	in, _, err := e.setUp(w, seed, sz, 1)
	if err != nil {
		return nil, err
	}
	res, err := newResult(e, w, in)
	if err != nil {
		return nil, err
	}
	calibStart := calibrate()
	overhead, tr, t, err := traceOverhead(w, in, e.p, 2)
	if err != nil {
		return nil, err
	}
	res.add(t)
	res.add(checkSelfTimes(tr))

	ctx, err := newProbeCtx(w, in, e.p)
	if err != nil {
		return nil, err
	}
	if res.Metrics, err = runProbes(ctx, tr); err != nil {
		return nil, err
	}
	res.Metrics["bench.trace_overhead_frac"] = metric{Value: overhead, Unit: "ratio", N: 2}
	res.Metrics["bench.calib_ms_start"] = metric{Value: millis(calibStart), Unit: "ms", N: 1}
	res.Metrics["bench.calib_ms_end"] = metric{Value: millis(calibrate()), Unit: "ms", N: 1}

	res.Info = map[string]metric{}
	for name, d := range tr.selfByName() {
		res.Info["self_ms."+name] = metric{Value: millis(d), Unit: "ms", N: 1}
	}
	res.TraceFile = filepath.Join(e.out, "trace-"+w.name+".json")
	if err := tr.write(res.TraceFile); err != nil {
		return nil, err
	}
	return res, nil
}

func newResult(e env, w workload, in *inputs) (*runResult, error) {
	digest := in.digest()
	if err := checkPin(e.root, in, digest); err != nil {
		return nil, err
	}
	return &runResult{Workload: w.name, Input: in.desc, Digest: digest}, nil
}

// checkPin compares the seed-1 full-size input digest with the one recorded
// in benchmark/pins.json, so an edit to the generators cannot silently
// change what the benchmark measures.
func checkPin(root string, in *inputs, digest string) error {
	if in.seed != 1 || in.size.Name != fullSizes.Name {
		return nil
	}
	path := filepath.Join(root, "benchmark", "pins.json")
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("input pins: %w", err)
	}
	var pins map[string]string
	if err := json.Unmarshal(data, &pins); err != nil {
		return fmt.Errorf("input pins %s: %w", path, err)
	}
	if want := pins[in.group]; want != digest {
		return fmt.Errorf("seed 1 no longer generates the pinned %s input: digest %s, %s records %q. "+
			"A change to internal/gen, internal/dataset or internal/gfdio changed the workload; "+
			"if that is intended, record the new digest and re-measure the baseline", in.group, digest, path, want)
	}
	return nil
}
