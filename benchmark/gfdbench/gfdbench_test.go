package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"testing"
	"time"
)

func TestTailPercentile(t *testing.T) {
	ramp := func(n int) sample {
		s := make(sample, n)
		for i := range s {
			s[i] = float64(n - i) // descending: the helper must sort
		}
		return s
	}
	cases := []struct {
		n       int
		ok      bool
		pct     int
		beyond  int // samples strictly above the returned value
		wantVal float64
	}{
		{19, false, 0, 0, 0},
		{20, true, 50, 10, 10},
		{100, true, 90, 10, 90},
		{150, true, 93, 10, 140},
		{240, true, 95, 12, 228},
		{5000, true, 99, 50, 4950},
	}
	for _, c := range cases {
		pct, v, ok := tailPercentile(ramp(c.n))
		if ok != c.ok {
			t.Fatalf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
		}
		if !ok {
			continue
		}
		if pct != c.pct || v != c.wantVal {
			t.Errorf("n=%d: p%d = %v, want p%d = %v", c.n, pct, v, c.pct, c.wantVal)
		}
		if beyond := c.n - int(v); beyond != c.beyond || beyond < 10 {
			t.Errorf("n=%d: %d samples beyond p%d, want %d (and never fewer than 10)", c.n, beyond, pct, c.beyond)
		}
		// One percentile higher would leave fewer than ten samples beyond it.
		if pct < 99 && c.n-int(float64(pct+1)/100*float64(c.n)+0.999999) >= 10 {
			t.Errorf("n=%d: p%d still has ten samples beyond it, p%d is not the highest", c.n, pct+1, pct)
		}
	}
}

func TestQuartiles(t *testing.T) {
	s := sample{5, 1, 3, 2, 4}
	if m := s.median(); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	if q1, q3 := s.quartiles(); q1 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 2, 4", q1, q3)
	}
}

func TestSpanSelfTimes(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: "op", op: 0, parent: -1, start: 0, end: 100 * ms},
		{name: "read", op: 0, parent: 0, start: 10 * ms, end: 40 * ms},
		{name: "core", op: 0, parent: 0, start: 50 * ms, end: 70 * ms},
		{name: "inner", op: 0, parent: 2, start: 55 * ms, end: 60 * ms},
		{name: "probe.x", op: 1, parent: -1, start: 200 * ms, end: 230 * ms, probe: true},
	}}
	want := []time.Duration{50 * ms, 30 * ms, 15 * ms, 5 * ms, 30 * ms}
	got := tr.selfTimes()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, tr.spans[i].name, got[i], want[i])
		}
	}
	if tl := checkSelfTimes(tr); tl.Attempted != 1 || tl.Failed != 0 {
		t.Errorf("checkSelfTimes = %+v, want one operation checked and passing", tl)
	}
	if by := tr.selfByName(); by["op"] != 50*ms || by["probe.x"] != 0 {
		t.Errorf("selfByName = %v: probes must be left out, op must be 50ms", by)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	endOp := tr.begin("op")
	endA := tr.begin("a")
	endA()
	endB := tr.begin("b")
	endC := tr.begin("c")
	endC()
	endB()
	endOp()
	tr.probe("p", time.Millisecond)
	endOp2 := tr.begin("op2")
	endOp2()
	parents := []int{-1, 0, 0, 2, -1, -1}
	ops := []int{0, 0, 0, 0, 1, 2}
	for i, s := range tr.spans {
		if s.parent != parents[i] || s.op != ops[i] {
			t.Errorf("span %d (%s): parent %d op %d, want parent %d op %d", i, s.name, s.parent, s.op, parents[i], ops[i])
		}
	}
	var nilTracer *tracer
	nilTracer.begin("x")() // a nil tracer records nothing and must not panic
	nilTracer.probe("x", 0)
}

func TestVerdict(t *testing.T) {
	lower := declared{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := declared{Name: "rate", Better: "higher", Bound: 0.1}
	tight := func(v float64) metric { return metric{Value: v, N: 9, Q1: v * 0.99, Q3: v * 1.01} }
	wide := func(v float64) metric { return metric{Value: v, N: 9, Q1: v * 0.9, Q3: v * 1.1} }
	cases := []struct {
		d         declared
		base, cur metric
		want      string
	}{
		{lower, tight(1), tight(1.05), "ok"},
		{lower, tight(1), tight(1.2), "worse"},
		{lower, tight(1), tight(0.5), "ok"},
		{higher, tight(1), tight(0.8), "worse"},
		{higher, tight(1), tight(1.5), "ok"},
		{lower, wide(1), tight(1.2), "unresolved"},
		{lower, tight(1), wide(1), "unresolved"},
	}
	for _, c := range cases {
		if got := verdict(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Better, c.base.Value, c.cur.Value, got, c.want)
		}
	}
}

func TestNamerIsInjectiveAndSeeded(t *testing.T) {
	a, b := namer{1}, namer{2}
	if a.name("w1") == a.name("w2") || a.name("w1") == b.name("w1") {
		t.Error("names must differ between constants and between seeds")
	}
	if a.name("w1") != a.name("w1") {
		t.Error("the same seed must give the same name")
	}
}

// resultKeys runs a result through the driver's output line and returns the
// metric names a reader of that line sees.
func resultKeys(t *testing.T, res *runResult) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := printResultLine(&buf, res); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	var line struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line does not round-trip: %v\n%s", err, data)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
		t.Fatalf("result line lacks correct/attempted/failed: %s", data)
	}
	var keys []string
	for k, m := range line.Metrics {
		if m.Value == nil || m.Unit == "" {
			t.Errorf("metric %s lacks a value or a unit", k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func declaredNames(ds []declared) []string {
	var out []string
	for _, d := range ds {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestMiniatureRun drives every workload end to end at miniature size —
// build, generate, run the children, check their answers — and the traced
// pass of each input family, and holds the emitted metric names against
// BENCHMARK.json: none missing, none undeclared.
func TestMiniatureRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/gfdreason and runs it")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var declaredWorkloads, ours []string
	for _, w := range man.Workloads {
		declaredWorkloads = append(declaredWorkloads, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(declaredWorkloads, ours) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program has %v", declaredWorkloads, ours)
	}
	for _, n := range append(append(declaredWorkloads, declaredNames(man.EndToEnd)...), declaredNames(man.PerLayer)...) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
	}

	tmp := t.TempDir()
	e := env{root: root, bin: filepath.Join(tmp, "gfdreason"), work: filepath.Join(tmp, "work"), out: filepath.Join(tmp, "out"), p: 2}
	start := time.Now()
	tracedGroups := map[string]bool{}
	for _, w := range workloads {
		res, err := e.endToEnd(w, 7, miniSizes, 0)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		if got, want := resultKeys(t, res), declaredNames(man.EndToEnd); !slices.Equal(got, want) {
			t.Errorf("%s end-to-end metrics %v, BENCHMARK.json declares %v", w.name, got, want)
		}
		for k, m := range res.Metrics {
			if m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is zero", w.name, k)
			}
		}
		if tracedGroups[w.group] {
			continue
		}
		tracedGroups[w.group] = true
		res, err = e.traced(w, 7, miniSizes)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s traced: %d of %d checks failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		if got, want := resultKeys(t, res), declaredNames(man.PerLayer); !slices.Equal(got, want) {
			t.Errorf("%s per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", w.name, got, want)
		}
		if _, err := os.Stat(res.TraceFile); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	t.Logf("miniature pass of %d workloads and %d traced passes took %v", len(workloads), len(tracedGroups), time.Since(start))
}

// TestSeedChangesBytesNotShape pins what --seed means: other bytes, the
// same sizes.
func TestSeedChangesBytesNotShape(t *testing.T) {
	tmp := t.TempDir()
	for _, group := range []string{groupSat, groupImp, groupCheck, groupStore} {
		a, err := generate(group, filepath.Join(tmp, "a"), 1, miniSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(group, filepath.Join(tmp, "b"), 2, miniSizes)
		if err != nil {
			t.Fatal(err)
		}
		again, err := generate(group, filepath.Join(tmp, "c"), 1, miniSizes)
		if err != nil {
			t.Fatal(err)
		}
		da, db, dc := a.digest(), b.digest(), again.digest()
		if da == db {
			t.Errorf("%s: seeds 1 and 2 generate the same bytes", group)
		}
		if da != dc {
			t.Errorf("%s: seed 1 generated different bytes twice", group)
		}
		if a.desc != b.desc || a.set.Len() != b.set.Len() {
			t.Errorf("%s: seeds changed the input's shape: %q vs %q", group, a.desc, b.desc)
		}
	}
}
