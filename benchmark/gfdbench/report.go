package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// header says what machine and source a report describes.
type header struct {
	Seed       int64   `json:"seed"`
	Size       string  `json:"size"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	P          int     `json:"p"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
}

// workloadReport is one workload's two runs side by side.
type workloadReport struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
	FailFrac float64    `json:"fail_frac"`
}

// report is what `gfdbench` prints and `gfdbench -compare` reads.
type report struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadReport `json:"workloads"`
	// Derived are the paper's ratios, each a quotient of two workloads'
	// wall_s: par_speedup = p1 / P (Fig. 6(a-d) at the cores available),
	// par_vs_seq = seq / P (the "ParSat beats SeqSat" claim of Fig. 5).
	Derived map[string]float64 `json:"derived"`
}

func fullReport(e env, seed int64, sz sizes, dur time.Duration) error {
	rep := report{
		Header: header{
			Seed: seed, Size: sz.Name, Seconds: dur.Seconds(),
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), P: e.p,
			GoVersion: runtime.Version(), Commit: gitCommit(e.root),
		},
		Workloads: map[string]*workloadReport{},
		Derived:   map[string]float64{},
	}
	failed := 0
	for _, w := range workloads {
		fmt.Fprintf(os.Stderr, "== %s\n", w.name)
		e2e, err := e.endToEnd(w, seed, sz, dur)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printTable(os.Stderr, e2e)
		layers, err := e.traced(w, seed, sz)
		if err != nil {
			return fmt.Errorf("%s traced: %w", w.name, err)
		}
		printTable(os.Stderr, layers)
		attempted := e2e.Attempted + layers.Attempted
		failed += e2e.Failed + layers.Failed
		rep.Workloads[w.name] = &workloadReport{
			EndToEnd: e2e, PerLayer: layers,
			FailFrac: float64(e2e.Failed+layers.Failed) / float64(attempted),
		}
	}
	wall := func(name string) float64 { return rep.Workloads[name].EndToEnd.Metrics["wall_s"].Value }
	rep.Derived["sat-dbpedia.par_speedup"] = wall("sat-dbpedia-p1") / wall("sat-dbpedia")
	rep.Derived["sat-dbpedia.par_vs_seq"] = wall("sat-dbpedia-seq") / wall("sat-dbpedia")
	rep.Derived["imp-batch.par_vs_seq"] = wall("imp-batch-seq") / wall("imp-batch")
	for _, k := range sortedNames(rep.Derived) {
		fmt.Fprintf(os.Stderr, "%-32s %10.3f  (P=%d)\n", k, rep.Derived[k], e.p)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("%d operations gave a wrong answer", failed)
	}
	return nil
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// printTable is the human view of one run: name, median, unit, sample count
// and quartiles.
func printTable(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "%s  [%s]\n  input %s\n", res.Workload, res.Input, res.Digest[:16])
	row := func(name string, m metric) {
		if m.N > 1 {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%-5d q1=%.4f q3=%.4f\n", name, m.Value, m.Unit, m.N, m.Q1, m.Q3)
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", name, m.Value, m.Unit, m.N)
		}
	}
	for _, k := range sortedNames(res.Metrics) {
		row(k, res.Metrics[k])
	}
	for _, k := range sortedNames(res.Info) {
		row("("+k+")", res.Info[k])
	}
	fmt.Fprintf(w, "  %-36s %14d of %d\n", "failed", res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "    ! %s\n", f)
	}
}
