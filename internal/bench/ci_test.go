package bench

import (
	"path/filepath"
	"strings"
	"testing"
)

func ciReport(vals map[string]float64) *CIReport {
	r := &CIReport{}
	for name, v := range vals {
		r.Metrics = append(r.Metrics, Metric{Name: name, Value: v, HigherIsBetter: true})
	}
	return r
}

func TestCompareCIWithinTolerance(t *testing.T) {
	base := ciReport(map[string]float64{"speedup": 4.0})
	cur := ciReport(map[string]float64{"speedup": 3.2}) // exactly at the 20% floor for tol=0.2
	if vs := CompareCI(base, cur, 0.2); len(vs) != 0 {
		t.Fatalf("value at the floor should pass, got %v", vs)
	}
	cur = ciReport(map[string]float64{"speedup": 3.19})
	if vs := CompareCI(base, cur, 0.2); len(vs) != 1 {
		t.Fatalf("value below the floor should fail, got %v", vs)
	}
}

// TestCompareCIReportsAllRegressions pins the full-picture contract: a run
// that regresses several gating metrics must surface every one of them in
// a single failure (no bailing on the first), so one CI run shows the
// whole damage.
func TestCompareCIReportsAllRegressions(t *testing.T) {
	base := ciReport(map[string]float64{"r1": 4.0, "r2": 2.0, "r3": 1.5})
	cur := ciReport(map[string]float64{"r1": 1.0, "r2": 0.5, "r3": 1.45}) // r1, r2 regress; r3 within tolerance
	vs := CompareCI(base, cur, 0.25)
	if len(vs) != 2 {
		t.Fatalf("want both regressions reported, got %v", vs)
	}
	err := ViolationError("BENCH_baseline.json", vs)
	if err == nil {
		t.Fatal("ViolationError must be non-nil for violations")
	}
	for _, name := range []string{"r1", "r2"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("aggregated failure message misses %s: %q", name, err)
		}
	}
	if strings.Contains(err.Error(), "r3") {
		t.Errorf("aggregated failure message flags the non-regressed r3: %q", err)
	}
	if ViolationError("b", nil) != nil {
		t.Fatal("ViolationError of no violations must be nil")
	}
}

func TestCompareCIDirections(t *testing.T) {
	base := &CIReport{Metrics: []Metric{
		{Name: "ratio", Value: 2.0, HigherIsBetter: true},
		{Name: "latency", Value: 100, HigherIsBetter: false},
	}}
	cur := &CIReport{Metrics: []Metric{
		{Name: "ratio", Value: 2.5},   // improved
		{Name: "latency", Value: 130}, // 30% slower
	}}
	vs := CompareCI(base, cur, 0.25)
	if len(vs) != 1 || !strings.Contains(vs[0], "latency") {
		t.Fatalf("only the latency regression should fire, got %v", vs)
	}
}

func TestCompareCIMissingAndExtra(t *testing.T) {
	base := &CIReport{Metrics: []Metric{
		{Name: "gone", Value: 1, HigherIsBetter: true},
		{Name: "note", Value: 9, Informational: true},
	}}
	cur := &CIReport{Metrics: []Metric{
		{Name: "brand-new", Value: 7, HigherIsBetter: true},
	}}
	vs := CompareCI(base, cur, 0.25)
	if len(vs) != 1 || !strings.Contains(vs[0], "gone") {
		t.Fatalf("want exactly the missing gating metric, got %v", vs)
	}
}

func TestCIReportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ci.json")
	want := &CIReport{Metrics: []Metric{
		{Name: "a", Value: 1.25, Unit: "x", HigherIsBetter: true},
		{Name: "b_ms", Value: 17.5, Unit: "ms", Informational: true},
	}}
	if err := WriteCIReport(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCIReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Metrics) != len(want.Metrics) {
		t.Fatalf("round trip lost metrics: %+v", got)
	}
	for i, m := range want.Metrics {
		if got.Metrics[i] != m {
			t.Fatalf("metric %d round-tripped as %+v, want %+v", i, got.Metrics[i], m)
		}
	}
	// A fresh report compared against itself is never a regression.
	if vs := CompareCI(got, got, 0); len(vs) != 0 {
		t.Fatalf("self-comparison flagged %v", vs)
	}
}

// TestRunCISmoke runs the real metric suite at a single rep and checks the
// invariants the CI gate depends on: all gating metrics present and
// positive, and every entry of the checked-in baseline — informational ones
// too, which CompareCI skips before its missing-metric check — naming a
// metric the suite still emits.
func TestRunCISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark suite in -short mode")
	}
	r, err := RunCI(Config{Reps: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"match_sharded_speedup", "plan_cache_speedup", "refreeze_speedup", "incr_validate_speedup",
		"snapshot_load_speedup", "compact_refreeze_speedup",
	} {
		m, ok := r.Get(name)
		if !ok {
			t.Fatalf("gating metric %s missing", name)
		}
		if m.Informational || !m.HigherIsBetter {
			t.Fatalf("gating metric %s mis-declared: %+v", name, m)
		}
		if m.Value <= 0 {
			t.Fatalf("gating metric %s not positive: %v", name, m.Value)
		}
	}
	// The one gated count: allocations of the flagship enumeration.
	if m, ok := r.Get("match_frozen_allocs"); !ok || m.Informational || m.HigherIsBetter || m.Value <= 0 {
		t.Fatalf("match_frozen_allocs must gate, lower is better: %+v (present %v)", m, ok)
	}
	baseline, err := ReadCIReport("../../BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range baseline.Metrics {
		m, ok := r.Get(b.Name)
		if !ok {
			t.Errorf("BENCH_baseline.json names %s, which RunCI no longer emits", b.Name)
		} else if m.Informational != b.Informational {
			t.Errorf("%s: baseline informational=%v, RunCI informational=%v", b.Name, b.Informational, m.Informational)
		}
	}
	if out := r.Format(); !strings.Contains(out, "refreeze_speedup") {
		t.Fatalf("Format omits metrics:\n%s", out)
	}
}
