package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// benchall runs one invocation in process and returns its exit code and
// both streams.
func benchall(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestOnlyRunsOneFigure(t *testing.T) {
	code, out, errs := benchall("-only", "fig5", "-scale", "0.003", "-reps", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errs)
	}
	for _, want := range []string{"== Fig5:", "SeqSat", "ParImpRDF", "total wall time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output misses %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "== Fig6") {
		t.Errorf("-only fig5 ran another figure:\n%s", out)
	}
}

func TestUnknownOnlyListsThePaperFigures(t *testing.T) {
	code, out, errs := benchall("-only", "nosuch")
	if code != 2 || out != "" {
		t.Fatalf("exit %d, stdout %q; want 2 and nothing run", code, out)
	}
	const want = `unknown experiment "nosuch" (valid: fig5, fig6a, fig6b, fig6c, fig6d, fig6e, fig6f, fig6g, fig6h, fig6i, fig6j)` + "\n"
	if errs != want {
		t.Errorf("stderr = %q, want %q", errs, want)
	}
}

// TestFlagsOfTheOtherFormAreRefused: before, -only beside -ci and
// -baseline/-tolerance without -ci were dropped without a word.
func TestFlagsOfTheOtherFormAreRefused(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ci.json")
	for _, args := range [][]string{
		{"-only", "fig5", "-ci", out},
		{"-baseline", "../../BENCH_baseline.json"},
		{"-tolerance", "0.1"},
		{"-only", "fig5", "-baseline", "../../BENCH_baseline.json"},
	} {
		code, stdout, errs := benchall(args...)
		if code != 2 || stdout != "" || !strings.Contains(errs, "usage: benchall") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, nothing run, a usage line", args, code, stdout, errs)
		}
	}
	if _, err := os.Stat(out); err == nil {
		t.Errorf("a refused invocation wrote %s", out)
	}
}

// TestCIGateFailsOnARegressionAndKeepsTheReport doctors one floor of the
// checked-in baseline out of reach: the gate must exit 1 naming it, after
// writing the report the CI job uploads as evidence.
func TestCIGateFailsOnARegressionAndKeepsTheReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the CI metric suite")
	}
	base, err := bench.ReadCIReport("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	const doctored = "refreeze_speedup"
	for i := range base.Metrics {
		if base.Metrics[i].Name == doctored {
			base.Metrics[i].Value = 1e9
		}
	}
	dir := t.TempDir()
	basePath, out := filepath.Join(dir, "base.json"), filepath.Join(dir, "ci.json")
	if err := bench.WriteCIReport(basePath, base); err != nil {
		t.Fatal(err)
	}
	code, stdout, errs := benchall("-ci", out, "-baseline", basePath, "-reps", "1")
	if code != 1 || !strings.Contains(errs, doctored+":") {
		t.Fatalf("exit %d, stderr:\n%s\nwant 1 and a line for %s", code, errs, doctored)
	}
	if !strings.Contains(stdout, "wrote "+out) {
		t.Errorf("stdout does not report the written artifact:\n%s", stdout)
	}
	got, err := bench.ReadCIReport(out)
	if err != nil {
		t.Fatalf("the failing run left no readable report: %v", err)
	}
	if m, ok := got.Get(doctored); !ok || m.Value <= 0 {
		t.Errorf("report misses %s: %+v", doctored, m)
	}
}
