// Package bench is the experiment harness of Section VII: one runner per
// table and figure of the paper's evaluation, each regenerating the same
// rows/series the paper reports (workload generation, parameter sweep,
// baselines, timing).
//
// Scale: the paper ran 20 machines with up to 10000 GFDs; runners accept a
// Scale factor mapping the paper's workload sizes onto a single process
// (default 1/40th). Absolute times are not comparable — the reproduction
// target is the *shape*: who wins, by roughly what factor, and where the
// optima fall. DESIGN.md "Per-experiment index" maps runners to figures.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/rdfchase"
)

// Config controls the harness.
type Config struct {
	// Scale multiplies the paper's workload sizes (GFD counts). 1.0 means
	// paper scale; the default 0.025 finishes a full run on a laptop.
	Scale float64
	// Reps is how many times each cell is measured; the median is reported.
	Reps int
	// Seed makes workloads reproducible.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 0.025
	}
	if c.Reps <= 0 {
		c.Reps = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// scaled maps a paper-scale count through the configured factor with a
// floor so tiny scales still exercise the machinery.
func (c Config) scaled(n int) int {
	v := int(float64(n) * c.Scale)
	if v < 20 {
		v = 20
	}
	return v
}

// Report is a formatted experiment result.
type Report struct {
	Name   string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the report as an aligned text table.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.Name, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// medianTime runs f reps times and returns the median duration.
func medianTime(reps int, f func()) time.Duration {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		ds = append(ds, time.Since(t0))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

// minTime runs f reps times and returns the fastest duration — the robust
// estimator for short (single-digit-millisecond), single-threaded,
// deterministic measurements, where scheduler noise only ever adds time: a
// single cleanly-scheduled rep recovers the true cost, while a median needs
// a majority of clean reps. Parallel measurements keep using medianTime
// (their variance is part of what they measure).
func minTime(reps int, f func()) time.Duration {
	var best time.Duration
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); i == 0 || d < best {
			best = d
		}
	}
	return best
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// datasetSet generates the mined-GFD stand-in for a dataset profile at the
// configured scale (satisfiable, so runs measure the full fixpoint rather
// than an instant early exit).
func datasetSet(cfg Config, p *dataset.Profile) *gfd.Set {
	g := gen.New(gen.Config{
		N:            cfg.scaled(p.GFDCount),
		K:            6,
		L:            5,
		Profile:      p,
		WildcardRate: 0.3,
		Seed:         cfg.Seed,
	})
	return g.Set()
}

// datasetImpInstance generates Σ plus a non-implied target whose decision
// requires propagating an embedded dependency chain (the costly case: the
// fixpoint must complete before answering false).
func datasetImpInstance(cfg Config, p *dataset.Profile) (*gfd.Set, *gfd.GFD) {
	g := gen.New(gen.Config{
		N: cfg.scaled(p.GFDCount),
		K: 6,
		L: 5,
		// Wildcard-rich patterns make matching into the small canonical
		// graph G^X_Q combinatorial, as the paper's mined patterns are.
		WildcardRate: 0.4,
		Profile:      p,
		Seed:         cfg.Seed,
	})
	return g.ImpInstance(6)
}

// Fig5 reproduces the sequential-running-time table: SeqSat, SeqImp and
// ParImpRDF on the three datasets' GFDs.
func Fig5(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{
		Name:   "Fig5",
		Title:  "Sequential running time on real-life GFDs (ms)",
		Header: []string{"algorithm", "DBpedia", "YAGO2", "Pokec"},
	}
	rows := map[string][]string{"SeqSat": {"SeqSat"}, "SeqImp": {"SeqImp"}, "ParImpRDF": {"ParImpRDF"}}
	for _, p := range dataset.All() {
		set := datasetSet(cfg, p)
		impSet, phi := datasetImpInstance(cfg, p)
		rows["SeqSat"] = append(rows["SeqSat"], ms(medianTime(cfg.Reps, func() { core.SeqSat(set) })))
		rows["SeqImp"] = append(rows["SeqImp"], ms(medianTime(cfg.Reps, func() { core.SeqImp(impSet, phi) })))
		rows["ParImpRDF"] = append(rows["ParImpRDF"], ms(medianTime(cfg.Reps, func() { rdfchase.Implies(impSet, phi) })))
	}
	r.Rows = [][]string{rows["SeqSat"], rows["SeqImp"], rows["ParImpRDF"]}
	r.Notes = append(r.Notes,
		fmt.Sprintf("|Σ| = %d/%d/%d (paper: 8000/6000/10000, scale %.3f)",
			cfg.scaled(8000), cfg.scaled(6000), cfg.scaled(10000), cfg.Scale),
		"paper shape: SeqImp beats ParImpRDF by ~1.4-1.5x on all datasets")
	return r
}

// workersSweep is the p axis of Exp-1 (Figures 6(a)-(d)).
var workersSweep = []int{4, 8, 12, 16, 20}

// varyPSat reproduces Fig 6(a)/(b): ParSat vs p. The paper's ParSat_nb
// series, ParSat without unit splitting, is ParSat itself: no engine splits.
// The vary-p figures double the workload scale: parallel speedup needs
// enough matching work per worker to amortize coordination.
func varyPSat(cfg Config, name string, prof *dataset.Profile) *Report {
	cfg = cfg.withDefaults()
	cfg.Scale *= 2
	set := datasetSet(cfg, prof)
	r := &Report{
		Name:   name,
		Title:  fmt.Sprintf("Varying p, satisfiability, %s GFDs (ms)", prof.Name),
		Header: []string{"p", "ParSat"},
	}
	for _, p := range workersSweep {
		opt := core.DefaultParOptions(p)
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(p),
			ms(medianTime(cfg.Reps, func() { core.ParSat(set, opt) })),
		})
	}
	r.Notes = append(r.Notes, "paper shape: ParSat ~3.2-3.7x faster from p=4 to 20")
	return r
}

// Fig6a is ParSat vs p on DBpedia GFDs.
func Fig6a(cfg Config) *Report { return varyPSat(cfg, "Fig6a", dataset.DBpedia()) }

// Fig6b is ParSat vs p on YAGO2 GFDs.
func Fig6b(cfg Config) *Report { return varyPSat(cfg, "Fig6b", dataset.YAGO2()) }

// varyPImp reproduces Fig 6(c)/(d): ParImp vs p.
func varyPImp(cfg Config, name string, prof *dataset.Profile) *Report {
	cfg = cfg.withDefaults()
	// Implication runs on the small canonical graph G^X_Q, so matching
	// work per GFD is modest; a larger |Σ| gives the workers enough to do.
	cfg.Scale *= 6
	set, phi := datasetImpInstance(cfg, prof)
	r := &Report{
		Name:   name,
		Title:  fmt.Sprintf("Varying p, implication, %s GFDs (ms)", prof.Name),
		Header: []string{"p", "ParImp"},
	}
	for _, p := range workersSweep {
		opt := core.DefaultParOptions(p)
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(p),
			ms(medianTime(cfg.Reps, func() { core.ParImp(set, phi, opt) })),
		})
	}
	r.Notes = append(r.Notes, "paper shape: ParImp ~3-3.1x faster from p=4 to 20")
	return r
}

// Fig6c is ParImp vs p on DBpedia GFDs.
func Fig6c(cfg Config) *Report { return varyPImp(cfg, "Fig6c", dataset.DBpedia()) }

// Fig6d is ParImp vs p on YAGO2 GFDs.
func Fig6d(cfg Config) *Report { return varyPImp(cfg, "Fig6d", dataset.YAGO2()) }

// sigmaSweep is the |Σ| axis of Exp-2 at paper scale.
var sigmaSweep = []int{2000, 4000, 6000, 8000, 10000}

// Fig6e reproduces Exp-2 satisfiability: synthetic GFDs, k=6, l=5, p=4,
// |Σ| from 2000 to 10000 (scaled).
func Fig6e(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{
		Name:   "Fig6e",
		Title:  "Varying |Σ|, satisfiability, synthetic GFDs (ms)",
		Header: []string{"|Σ|", "SeqSat", "ParSat"},
	}
	for _, n := range sigmaSweep {
		g := gen.New(gen.Config{N: cfg.scaled(n), K: 6, L: 5, Seed: cfg.Seed})
		set := g.Set()
		opt := core.DefaultParOptions(4)
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(cfg.scaled(n)),
			ms(medianTime(cfg.Reps, func() { core.SeqSat(set) })),
			ms(medianTime(cfg.Reps, func() { core.ParSat(set, opt) })),
		})
	}
	r.Notes = append(r.Notes, "paper shape: all grow with |Σ|; ParSat ~3.1x faster than SeqSat at p=4")
	return r
}

// Fig6f reproduces Exp-2 implication, including the ParImpRDF baseline.
func Fig6f(cfg Config) *Report {
	cfg = cfg.withDefaults()
	r := &Report{
		Name:   "Fig6f",
		Title:  "Varying |Σ|, implication, synthetic GFDs (ms)",
		Header: []string{"|Σ|", "SeqImp", "ParImp", "ParImpRDF"},
	}
	for _, n := range sigmaSweep {
		g := gen.New(gen.Config{N: cfg.scaled(n), K: 6, L: 5, WildcardRate: 0.4, Seed: cfg.Seed})
		set, phi := g.ImpInstance(6)
		opt := core.DefaultParOptions(4)
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(cfg.scaled(n)),
			ms(medianTime(cfg.Reps, func() { core.SeqImp(set, phi) })),
			ms(medianTime(cfg.Reps, func() { core.ParImp(set, phi, opt) })),
			ms(medianTime(cfg.Reps, func() { rdfchase.Implies(set, phi) })),
		})
	}
	r.Notes = append(r.Notes, "paper shape: ParImp ~3.1x faster than SeqImp and ~4.8x than ParImpRDF")
	return r
}

// kSweep is the pattern-size axis of Exp-3.
var kSweep = []int{2, 4, 6, 8, 10}

// varyK runs Exp-3(1) for satisfiability or implication.
func varyK(cfg Config, name string, imp bool) *Report {
	cfg = cfg.withDefaults()
	mode := "satisfiability"
	if imp {
		mode = "implication"
	}
	r := &Report{
		Name:   name,
		Title:  fmt.Sprintf("Varying k (pattern size), %s, DBpedia seeds (ms)", mode),
		Header: []string{"k", "Seq", "Par"},
	}
	n := cfg.scaled(5000)
	for _, k := range kSweep {
		g := gen.New(gen.Config{N: n, K: k, L: 3, Profile: dataset.DBpedia(), Seed: cfg.Seed})
		var (
			set *gfd.Set
			phi *gfd.GFD
		)
		if imp {
			set, phi = g.ImpInstance(6)
		} else {
			set = g.Set()
		}
		opt := core.DefaultParOptions(4)
		row := []string{fmt.Sprint(k)}
		if imp {
			row = append(row,
				ms(medianTime(cfg.Reps, func() { core.SeqImp(set, phi) })),
				ms(medianTime(cfg.Reps, func() { core.ParImp(set, phi, opt) })))
		} else {
			row = append(row,
				ms(medianTime(cfg.Reps, func() { core.SeqSat(set) })),
				ms(medianTime(cfg.Reps, func() { core.ParSat(set, opt) })))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes, "paper shape: cost grows with k; optimizations matter more at large k")
	return r
}

// Fig6g is Exp-3 varying k for satisfiability.
func Fig6g(cfg Config) *Report { return varyK(cfg, "Fig6g", false) }

// Fig6i is Exp-3 varying k for implication.
func Fig6i(cfg Config) *Report { return varyK(cfg, "Fig6i", true) }

// lSweep is the literal-count axis of Exp-3.
var lSweep = []int{1, 2, 3, 4, 5}

// varyL runs Exp-3(2).
func varyL(cfg Config, name string, imp bool) *Report {
	cfg = cfg.withDefaults()
	mode := "satisfiability"
	if imp {
		mode = "implication"
	}
	r := &Report{
		Name:   name,
		Title:  fmt.Sprintf("Varying l (literals), %s, DBpedia seeds (ms)", mode),
		Header: []string{"l", "Seq", "Par"},
	}
	n := cfg.scaled(5000)
	for _, l := range lSweep {
		g := gen.New(gen.Config{N: n, K: 5, L: l, Profile: dataset.DBpedia(), Seed: cfg.Seed})
		var (
			set *gfd.Set
			phi *gfd.GFD
		)
		if imp {
			set, phi = g.ImpInstance(6)
		} else {
			set = g.Set()
		}
		opt := core.DefaultParOptions(4)
		row := []string{fmt.Sprint(l)}
		if imp {
			row = append(row,
				ms(medianTime(cfg.Reps, func() { core.SeqImp(set, phi) })),
				ms(medianTime(cfg.Reps, func() { core.ParImp(set, phi, opt) })))
		} else {
			row = append(row,
				ms(medianTime(cfg.Reps, func() { core.SeqSat(set) })),
				ms(medianTime(cfg.Reps, func() { core.ParSat(set, opt) })))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes, "paper shape: roughly flat in l (more literals cost more but also terminate earlier)")
	return r
}

// Fig6h is Exp-3 varying l for satisfiability.
func Fig6h(cfg Config) *Report { return varyL(cfg, "Fig6h", false) }

// Fig6j is Exp-3 varying l for implication.
func Fig6j(cfg Config) *Report { return varyL(cfg, "Fig6j", true) }

// experiments is the runner registry: the paper's figures and nothing else.
// Fig. 6(k,l) is not reproduced: no engine splits a straggling unit, so
// there is no straggler threshold to vary. cmd/benchall resolves -only
// through ByName and runs Names in order otherwise.
var experiments = map[string]func(Config) *Report{
	"fig5": Fig5, "fig6a": Fig6a, "fig6b": Fig6b, "fig6c": Fig6c,
	"fig6d": Fig6d, "fig6e": Fig6e, "fig6f": Fig6f, "fig6g": Fig6g,
	"fig6h": Fig6h, "fig6i": Fig6i, "fig6j": Fig6j,
}

// ByName returns the named experiment runner (case-insensitive), or nil.
func ByName(name string) func(Config) *Report {
	return experiments[strings.ToLower(name)]
}

// Names returns every registered experiment name, sorted — which is the
// paper's order.
func Names() []string {
	out := make([]string, 0, len(experiments))
	for n := range experiments {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
