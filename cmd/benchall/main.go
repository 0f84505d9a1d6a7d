// Command benchall runs the paper's experiments (Fig. 5 and Fig. 6(a)–(l))
// and prints each as a text table. DESIGN.md "Per-experiment index" maps
// each runner to its paper figure.
//
// Usage:
//
//	benchall [-scale 0.025] [-reps 3] [-seed 1] [-only fig6e]
//	benchall -ci BENCH_ci.json [-baseline BENCH_baseline.json] [-tolerance 0.25]
//	benchall ... [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// The -ci form runs the benchmark-regression metric suite instead of the
// paper experiments, writes the JSON report to the given path, and — when
// -baseline names a previous report — exits 1 if any gating metric
// regressed beyond the tolerance (all regressed metrics are reported in one
// failure message). CI uses it both ways: the checked-in BENCH_baseline.json
// is regenerated with `-ci BENCH_baseline.json` on a quiet machine, and
// every pipeline run emits BENCH_ci.json as an artifact gated against that
// baseline. -cpuprofile/-memprofile write pprof profiles of the run (either
// form), uploaded alongside the report so per-run perf trajectories are
// inspectable with `go tool pprof`. Profiles and the BENCH_ci.json report
// are both flushed before any nonzero exit, so a gated failure still
// uploads its evidence.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	os.Exit(run())
}

// run carries the whole invocation so deferred profile flushes execute
// before the process exits with a nonzero status.
func run() int {
	scale := flag.Float64("scale", 0.025, "fraction of the paper's workload sizes (1.0 = paper scale)")
	reps := flag.Int("reps", 3, "repetitions per cell (median reported)")
	seed := flag.Int64("seed", 1, "workload seed")
	only := flag.String("only", "", "run a single experiment (e.g. fig5, fig6a ... fig6l, sharded, incremental, persist)")
	ciOut := flag.String("ci", "", "run the CI benchmark-regression suite and write its JSON report to this path")
	baseline := flag.String("baseline", "", "with -ci: compare against this baseline report, exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.25, "with -baseline: allowed fractional regression per gating metric")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *cpuprofile, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memprofile)

	cfg := bench.Config{Scale: *scale, Reps: *reps, Seed: *seed}
	start := time.Now()
	if *ciOut != "" {
		return runCI(cfg, *ciOut, *baseline, *tolerance, start)
	}
	if *only != "" {
		runner := bench.ByName(*only)
		if runner == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s)\n", *only, strings.Join(bench.Names(), ", "))
			return 2
		}
		fmt.Print(runner(cfg).Format())
	} else {
		for _, r := range bench.All(cfg) {
			fmt.Print(r.Format())
			fmt.Println()
		}
	}
	fmt.Printf("total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// writeMemProfile snapshots the heap after a final GC. A no-op for an empty
// path, so it can sit unconditionally on the exit path.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "create %s: %v\n", path, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(os.Stderr, "write heap profile: %v\n", err)
	}
}

// runCI measures the regression suite, writes the report, and gates it
// against the baseline when one is named, returning the process exit code.
// The report is flushed before any exit-code decision — a gated regression
// (exit 1) or a half-broken suite (exit 2) still uploads whatever metrics
// were measured, so the CI artifact carries the evidence of the failure
// instead of vanishing with it.
func runCI(cfg bench.Config, out, baseline string, tolerance float64, start time.Time) int {
	report, err := bench.RunCI(cfg)
	if report != nil && len(report.Metrics) > 0 {
		fmt.Print(report.Format())
		if werr := bench.WriteCIReport(out, report); werr != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", out, werr)
			return 2
		}
		fmt.Printf("wrote %s in %s\n", out, time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ci suite: %v\n", err)
		return 2
	}
	if baseline == "" {
		return 0
	}
	base, err := bench.ReadCIReport(baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "read baseline %s: %v\n", baseline, err)
		return 2
	}
	if err := bench.ViolationError(baseline, bench.CompareCI(base, report, tolerance)); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("no regression against %s (tolerance %.0f%%)\n", baseline, tolerance*100)
	return 0
}
