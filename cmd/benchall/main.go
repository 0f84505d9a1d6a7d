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
// failure message). The two forms do not mix: -only with -ci, and -baseline
// or -tolerance without -ci, exit 2. CI uses -ci both ways: the checked-in
// BENCH_baseline.json is regenerated with `-ci BENCH_baseline.json` on a
// quiet machine, and every pipeline run emits BENCH_ci.json as an artifact
// gated against that baseline. -cpuprofile/-memprofile write pprof profiles
// of the run (either form), uploaded alongside the report so per-run perf
// trajectories are inspectable with `go tool pprof`. Profiles and the
// BENCH_ci.json report are both flushed before any nonzero exit, so a gated
// failure still uploads its evidence.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/bench"
)

const usage = `usage: benchall [-scale 0.025] [-reps 3] [-seed 1] [-only fig6e]
       benchall -ci BENCH_ci.json [-baseline BENCH_baseline.json] [-tolerance 0.25]
       benchall ... [-cpuprofile cpu.pprof] [-memprofile mem.pprof]`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run carries the whole invocation so deferred profile flushes execute
// before the process exits with a nonzero status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchall", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { fmt.Fprintln(stderr, usage); fs.PrintDefaults() }
	scale := fs.Float64("scale", 0.025, "fraction of the paper's workload sizes (1.0 = paper scale)")
	reps := fs.Int("reps", 3, "repetitions per cell (median reported)")
	seed := fs.Int64("seed", 1, "workload seed")
	only := fs.String("only", "", "run a single paper figure (fig5, fig6a ... fig6j)")
	ciOut := fs.String("ci", "", "run the CI benchmark-regression suite and write its JSON report to this path")
	baseline := fs.String("baseline", "", "with -ci: compare against this baseline report, exit 1 on regression")
	tolerance := fs.Float64("tolerance", 0.25, "with -baseline: allowed fractional regression per gating metric")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A flag the chosen form would ignore is refused, not dropped: a gate that
	// silently did not run looks exactly like a gate that passed.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	switch {
	case set["ci"] && set["only"]:
		fmt.Fprintf(stderr, "-only selects a paper figure; the -ci suite has no subset\n%s\n", usage)
		return 2
	case !set["ci"] && (set["baseline"] || set["tolerance"]):
		fmt.Fprintf(stderr, "-baseline and -tolerance need -ci\n%s\n", usage)
		return 2
	}
	var runner func(bench.Config) *bench.Report
	if *only != "" {
		if runner = bench.ByName(*only); runner == nil {
			fmt.Fprintf(stderr, "unknown experiment %q (valid: %s)\n", *only, strings.Join(bench.Names(), ", "))
			return 2
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "create %s: %v\n", *cpuprofile, err)
			return 2
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "start cpu profile: %v\n", err)
			return 2
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(stderr, *memprofile)

	cfg := bench.Config{Scale: *scale, Reps: *reps, Seed: *seed}
	start := time.Now()
	switch {
	case *ciOut != "":
		return runCI(stdout, stderr, cfg, *ciOut, *baseline, *tolerance, start)
	case runner != nil:
		fmt.Fprint(stdout, runner(cfg).Format())
	default:
		for _, name := range bench.Names() {
			fmt.Fprintln(stdout, bench.ByName(name)(cfg).Format())
		}
	}
	fmt.Fprintf(stdout, "total wall time: %s\n", time.Since(start).Round(time.Millisecond))
	return 0
}

// writeMemProfile snapshots the heap after a final GC. A no-op for an empty
// path, so it can sit unconditionally on the exit path.
func writeMemProfile(stderr io.Writer, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(stderr, "create %s: %v\n", path, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintf(stderr, "write heap profile: %v\n", err)
	}
}

// runCI measures the regression suite, writes the report, and gates it
// against the baseline when one is named, returning the process exit code.
// The report is flushed before any exit-code decision — a gated regression
// (exit 1) or a half-broken suite (exit 2) still uploads whatever metrics
// were measured, so the CI artifact carries the evidence of the failure
// instead of vanishing with it.
func runCI(stdout, stderr io.Writer, cfg bench.Config, out, baseline string, tolerance float64, start time.Time) int {
	report, err := bench.RunCI(cfg)
	if report != nil && len(report.Metrics) > 0 {
		fmt.Fprint(stdout, report.Format())
		if werr := bench.WriteCIReport(out, report); werr != nil {
			fmt.Fprintf(stderr, "write %s: %v\n", out, werr)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s in %s\n", out, time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		fmt.Fprintf(stderr, "ci suite: %v\n", err)
		return 2
	}
	if baseline == "" {
		return 0
	}
	base, err := bench.ReadCIReport(baseline)
	if err != nil {
		fmt.Fprintf(stderr, "read baseline %s: %v\n", baseline, err)
		return 2
	}
	if err := bench.ViolationError(baseline, bench.CompareCI(base, report, tolerance)); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "no regression against %s (tolerance %.0f%%)\n", baseline, tolerance*100)
	return 0
}
