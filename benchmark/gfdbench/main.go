// Command gfdbench is the repository's benchmark: it generates inputs from a
// seed, builds cmd/gfdreason, runs the workloads file-in to answer-out
// through the built binary, checks every answer, and makes a traced
// in-process pass for per-layer numbers. See ../README.md.
//
// Usage:
//
//	gfdbench -workload NAME -seed N -seconds S -trace 0|1   one workload, one JSON result line (the driver's contract)
//	gfdbench [-seed N] [-seconds S]                         every workload, end to end and traced, one JSON report
//	gfdbench -compare base.json new.json                    judge two reports by the bounds in BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	root := flag.String("root", "", "the checkout to benchmark (default: the directory with BENCHMARK.json at or above the working directory)")
	name := flag.String("workload", "", "run this workload only and print the one-line result")
	seed := flag.Int64("seed", 1, "input seed")
	secs := flag.Float64("seconds", 10, "how long each workload is measured")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of the traced pass")
	compare := flag.Bool("compare", false, "compare two reports: gfdbench -compare base.json new.json")
	flag.Parse()

	if err := run(*root, *name, *seed, *secs, *trace, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "gfdbench:", err)
		os.Exit(1)
	}
}

func run(root, name string, seed int64, secs float64, trace int, compare bool, args []string) error {
	root, err := findRoot(root)
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two report files")
		}
		return compareReports(root, args[0], args[1], os.Stdout)
	}
	sz := fullSizes
	// Never more threads than cores: the children inherit GOMAXPROCS = nproc
	// and get at most that many workers.
	p := runtime.NumCPU()
	if p > 4 {
		p = 4
	}
	e := newEnv(root, p)
	dur := time.Duration(secs * float64(time.Second))

	if name == "" {
		return fullReport(e, seed, sz, dur)
	}
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	var res *runResult
	if trace == 1 {
		res, err = e.traced(w, seed, sz)
	} else {
		res, err = e.endToEnd(w, seed, sz, dur)
	}
	if err != nil {
		return err
	}
	printTable(os.Stderr, res)
	return printResultLine(os.Stdout, res)
}

// printResultLine writes the driver's contract: one JSON object with
// exactly correct, attempted, failed and metrics.
func printResultLine(w io.Writer, res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for k, m := range res.Metrics {
		metrics[k] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// findRoot locates the checkout: the directory holding BENCHMARK.json, at or
// above the working directory.
func findRoot(root string) (string, error) {
	if root != "" {
		return filepath.Abs(root)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json at or above the working directory; pass -root")
		}
		dir = parent
	}
}
