package bench

import (
	"slices"
	"strings"
	"testing"
)

func micro() Config { return Config{Scale: 0.003, Reps: 1, Seed: 2} }

func TestReportFormatAligned(t *testing.T) {
	r := &Report{
		Name:   "X",
		Title:  "t",
		Header: []string{"a", "longcol"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"n1"},
	}
	out := r.Format()
	for _, want := range []string{"== X: t ==", "longcol", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title + header + 2 rows + note
		t.Errorf("unexpected line count %d:\n%s", len(lines), out)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"fig5", "Fig6a", "FIG6L"} {
		if ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if ByName("fig7") != nil {
		t.Error("unknown name resolved")
	}
}

// TestNames pins the registry to the paper's evaluation, in the paper's
// order: benchall with no -only runs Names() front to back, and its
// unknown -only message lists it. A runner that is not a paper figure
// belongs in RunCI (a ratio between two shipping paths) or in
// benchmark/gfdbench (an absolute per-layer time), not here.
func TestNames(t *testing.T) {
	want := []string{"fig5", "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f",
		"fig6g", "fig6h", "fig6i", "fig6j", "fig6k", "fig6l"}
	got := Names()
	if !slices.Equal(got, want) {
		t.Fatalf("Names() = %v, want the 13 paper figures %v", got, want)
	}
	for _, n := range got {
		if ByName(n) == nil {
			t.Errorf("Names() entry %q does not resolve", n)
		}
	}
}

func TestFig5RunsAtMicroScale(t *testing.T) {
	r := Fig5(micro())
	if len(r.Rows) != 3 {
		t.Fatalf("Fig5 rows = %d, want 3 algorithms", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row) != 4 {
			t.Fatalf("row %v should have algorithm + 3 datasets", row)
		}
	}
}

func TestTTLSweepRunsAtMicroScale(t *testing.T) {
	r := Fig6k(micro())
	if len(r.Rows) != len(ttlSweep) {
		t.Fatalf("Fig6k rows = %d, want %d", len(r.Rows), len(ttlSweep))
	}
}

func TestScaledFloor(t *testing.T) {
	c := Config{Scale: 0.0001}.withDefaults()
	if got := c.scaled(8000); got != 20 {
		t.Errorf("scaled floor = %d, want 20", got)
	}
}
