// Benchmark-regression gating for CI. RunCI measures a small, fast suite
// of the repo's own performance claims and reports them as named metrics;
// CompareCI fails a run that regresses more than a tolerance against a
// checked-in baseline (BENCH_baseline.json; regenerate with
// `go run ./cmd/benchall -ci BENCH_baseline.json`, then round the gating
// ratios down to conservative floors so runner-to-runner noise cannot
// flake the gate).
//
// Gating metrics are *ratios* (speedups between two code paths measured in
// the same process), not absolute times: ratios survive the machine change
// between the baseline author's box and a CI runner, while wall-clock
// numbers do not. Both sides of each ratio ride along as informational
// times, so a moved ratio shows which side moved.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/depgraph"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// Metric is one named CI measurement.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	// HigherIsBetter orients the regression check: a gating metric
	// regresses when it moves against this direction by more than the
	// tolerance.
	HigherIsBetter bool `json:"higherIsBetter"`
	// Informational metrics are recorded in the artifact but never gate
	// (absolute times, machine-dependent).
	Informational bool `json:"informational,omitempty"`
}

// CIReport is the JSON document exchanged between a CI run and the
// checked-in baseline.
type CIReport struct {
	Metrics []Metric `json:"metrics"`
}

// Get returns the named metric.
func (r *CIReport) Get(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Canonical hub-heavy bulk-ingest workload size: large enough that Freeze's
// per-node sorts dominate, small enough for a CI rep.
const (
	IngestNodes = 20000
	IngestEdges = 100000
	ingestHubs  = 16
	ingestLabs  = 8
)

// HubHeavyIngest synthesizes the canonical bulk-ingest workload:
// IngestEdges edges over IngestNodes nodes where 80% of edges pile onto a
// few hub nodes, delivered in shuffled order, so Freeze sorts a handful of
// very long adjacency runs and many short ones.
func HubHeavyIngest(seed int64) (from, to []graph.NodeID, lab []string) {
	rng := rand.New(rand.NewSource(seed))
	from = make([]graph.NodeID, IngestEdges)
	to = make([]graph.NodeID, IngestEdges)
	lab = make([]string, IngestEdges)
	names := make([]string, ingestLabs)
	for i := range names {
		names[i] = fmt.Sprintf("l%d", i)
	}
	for i := 0; i < IngestEdges; i++ {
		from[i] = graph.NodeID(rng.Intn(IngestNodes))
		if rng.Intn(10) < 8 {
			to[i] = graph.NodeID(rng.Intn(ingestHubs))
		} else {
			to[i] = graph.NodeID(rng.Intn(IngestNodes))
		}
		lab[i] = names[rng.Intn(ingestLabs)]
	}
	rng.Shuffle(IngestEdges, func(i, j int) {
		from[i], from[j] = from[j], from[i]
		to[i], to[j] = to[j], to[i]
		lab[i], lab[j] = lab[j], lab[i]
	})
	return from, to, lab
}

// IngestFrozen bulk-loads a HubHeavyIngest workload through the Builder:
// O(1) appends, one sort per adjacency run at Freeze.
func IngestFrozen(from, to []graph.NodeID, lab []string) *graph.Frozen {
	b := graph.NewBuilder(IngestEdges)
	for v := 0; v < IngestNodes; v++ {
		b.AddNode("n")
	}
	for j := range from {
		b.AddEdge(from[j], to[j], lab[j])
	}
	return b.Freeze()
}

// triangleGen returns the generator behind the schema-triangle workloads
// and its seed: the first seed in [seed, seed+16) whose schema closes a
// triangle, since not every seed's does. The error fires when none does.
func triangleGen(seed int64) (*gen.Generator, int64, error) {
	for s := seed; s < seed+16; s++ {
		gr := gen.New(gen.Config{N: 40, K: 6, L: 2, Profile: dataset.DBpedia(), WildcardRate: 0.2, Seed: s})
		if len(gen.SchemaTriangles(gr.Schema(), 1)) > 0 {
			return gr, s, nil
		}
	}
	return nil, 0, fmt.Errorf("no schema triangle within seeds [%d,%d)", seed, seed+16)
}

// perturb overwrites every attribute of n nodes of f, drawn from seed, with
// one value, through a Delta over f, so the refrozen result already violates
// W-consistent rules. It writes each chosen node whole, so the result does
// not depend on map order.
func perturb(f *graph.Frozen, seed int64, n int) *graph.Frozen {
	rng := rand.New(rand.NewSource(seed))
	d := graph.NewDelta(f)
	for range n {
		v := graph.NodeID(rng.Intn(f.NumNodes()))
		for a := range f.Attrs(v) {
			d.SetAttr(v, a, "perturbed")
		}
	}
	return f.Refreeze(d)
}

// MatchWorkload builds the canonical label-dense matching workload: a
// DenseFrozen(2000, 64) data graph plus the generator-schema triangle
// patterns whose closing edge rejects most partial assignments.
func MatchWorkload(seed int64) (*graph.Frozen, []*pattern.Pattern, error) {
	gr, _, err := triangleGen(seed)
	if err != nil {
		return nil, nil, err
	}
	return gr.DenseFrozen(2000, 64), gen.SchemaTriangles(gr.Schema(), 12), nil
}

// RefreezeOps is the update-batch size of the canonical refreeze workload:
// 1% of the ingest graph's edges, the "slowly changing graph" regime the
// incremental re-freeze targets.
const RefreezeOps = IngestEdges / 100

// RefreezeWorkload derives the canonical refreeze comparison from the
// hub-heavy ingest workload: the frozen base, a fresh ≤1% delta (half edge
// adds, half removes, duplicates of base triples avoided on both sides),
// and the final-state edge arrays a from-scratch rebuild would ingest.
// mkDelta builds an identical delta on every call so each timed Refreeze
// rep pays the full merge, row materialization included.
func RefreezeWorkload(seed int64) (base *graph.Frozen, mkDelta func() *graph.Delta, ffrom, fto []graph.NodeID, flab []string) {
	from, to, lab := HubHeavyIngest(seed)
	base = IngestFrozen(from, to, lab)
	rng := rand.New(rand.NewSource(seed + 1))

	type triple struct {
		from, to graph.NodeID
		lab      string
	}
	removed := make(map[triple]bool, RefreezeOps/2)
	for len(removed) < RefreezeOps/2 {
		i := rng.Intn(len(from))
		removed[triple{from[i], to[i], lab[i]}] = true
	}
	var adds []triple
	for len(adds) < RefreezeOps-RefreezeOps/2 {
		t := triple{graph.NodeID(rng.Intn(IngestNodes)), graph.NodeID(rng.Intn(IngestNodes)), lab[rng.Intn(len(lab))]}
		if !graph.HasEdge(base, t.from, t.to, t.lab) {
			adds = append(adds, t)
		}
	}
	// Final-state arrays: base minus every occurrence of a removed triple
	// (HubHeavyIngest draws duplicates; Freeze collapses them), plus adds.
	for i := range from {
		if !removed[triple{from[i], to[i], lab[i]}] {
			ffrom = append(ffrom, from[i])
			fto = append(fto, to[i])
			flab = append(flab, lab[i])
		}
	}
	for _, t := range adds {
		ffrom = append(ffrom, t.from)
		fto = append(fto, t.to)
		flab = append(flab, t.lab)
	}
	mkDelta = func() *graph.Delta {
		d := graph.NewDelta(base)
		for t := range removed {
			d.RemoveEdge(t.from, t.to, t.lab)
		}
		for _, t := range adds {
			d.AddEdge(t.from, t.to, t.lab)
		}
		return d
	}
	return base, mkDelta, ffrom, fto, flab
}

// ValidateWorkload builds the canonical incremental-validation workload:
// the generator's triangle validation set (triangle patterns whose
// W-consistent consequents the clean graph satisfies) over a label-dense
// graph with 80 perturbed nodes (so the pre-delta graph already violates),
// plus a small update stream.
func ValidateWorkload(seed int64) (*gfd.Set, *graph.Frozen, *graph.Delta, error) {
	gr, s, err := triangleGen(seed)
	if err != nil {
		return nil, nil, nil, err
	}
	set := gr.ValidationSet(12)
	base := perturb(gr.DenseFrozen(20000, 8), s, 80)
	return set, base, gr.DenseDelta(base, 30), nil
}

// Skewed-intersection workload sizes: a few hub nodes whose label-filtered
// in-runs hold ~tails/hubs entries each, intersected per frame against a
// fanout-sized candidate list — the length skew the galloping kernel exists
// for (see internal/match/intersect.go).
const (
	adaptiveHubs   = 4
	adaptiveMids   = 2000
	adaptiveTails  = 40000
	adaptiveFanout = 8
)

// AdaptiveWorkload builds the canonical skewed-operand matching workload: a
// three-layer hub graph (hubs own mids, mids point at a handful of random
// tails, every tail points back at one hub) and the triangle pattern over
// it. Enumerating the triangle closes each candidate tail against the bound
// hub's ~10k-entry "big" in-run, so the per-frame intersection is a
// fanout-long list against a hub-long one: the merge pays O(hub run) per
// frame where the gallop pays O(fanout·log(hub run)).
func AdaptiveWorkload(seed int64) (*graph.Frozen, *pattern.Pattern) {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(adaptiveMids*(adaptiveFanout+1) + adaptiveTails)
	hubs := make([]graph.NodeID, adaptiveHubs)
	for i := range hubs {
		hubs[i] = b.AddNode("h")
	}
	mids := make([]graph.NodeID, adaptiveMids)
	for i := range mids {
		mids[i] = b.AddNode("m")
	}
	tails := make([]graph.NodeID, adaptiveTails)
	for i := range tails {
		tails[i] = b.AddNode("t")
	}
	for i, y := range mids {
		b.AddEdge(hubs[i%adaptiveHubs], y, "owns")
		for j := 0; j < adaptiveFanout; j++ {
			b.AddEdge(y, tails[rng.Intn(adaptiveTails)], "next")
		}
	}
	// Each tail closes toward one fixed hub, so ~1/hubs of every mid's
	// fan-out survives the closing edge: plenty of matches, but the
	// intersection still rejects most candidates.
	for i, z := range tails {
		b.AddEdge(z, hubs[i%adaptiveHubs], "big")
	}
	p := pattern.New()
	x := p.AddVar("x", "h")
	y := p.AddVar("y", "m")
	z := p.AddVar("z", "t")
	p.AddEdge(x, y, "owns")
	p.AddEdge(y, z, "next")
	p.AddEdge(z, x, "big")
	return b.Freeze(), p
}

// PlanWorkload builds the canonical repeated-query workload for the
// compiled-plan cache: the generator-schema triangle patterns over a graph
// sparse enough that per-query planning (order derivation, label/signature
// resolution, the pruned root pull) is a visible share of each query.
func PlanWorkload(seed int64) (*graph.Frozen, []*pattern.Pattern, error) {
	gr, _, err := triangleGen(seed)
	if err != nil {
		return nil, nil, err
	}
	return gr.DenseFrozen(4000, 3), gen.SchemaTriangles(gr.Schema(), 12), nil
}

// PlanQueries runs every pattern once against f — through the cache when
// one is given, planless otherwise — and returns the total match count.
// This is the timed body of the plan-cache comparison: the warm side pays
// one cache probe per query, the cold side re-plans each one.
func PlanQueries(f *graph.Frozen, ps []*pattern.Pattern, cache *match.PlanCache) int {
	n := 0
	for _, p := range ps {
		var plan *match.Plan
		if cache != nil {
			plan = cache.Get(p, f)
		}
		n += match.NewSearch(p, f, match.Options{Plan: plan}).CountAll()
	}
	return n
}

// MultiGFDWorkload builds the canonical shared multi-GFD validation
// workload: a SharedValidationSet of up to 6 schema-triangle patterns with
// 8 GFDs each — members alternating between the shared pattern value and a
// rebuilt structurally equal copy, so grouping must go through the
// fingerprint — over a label-dense graph with 80 perturbed nodes so
// violations exist.
func MultiGFDWorkload(seed int64) (*gfd.Set, *graph.Frozen, error) {
	gr, s, err := triangleGen(seed)
	if err != nil {
		return nil, nil, err
	}
	set := gr.SharedValidationSet(6, 8)
	return set, perturb(gr.DenseFrozen(20000, 8), s, 80), nil
}

// ViolationsWorkload builds the validation workload of the end-to-end
// benchmark's check-dense family (benchmark/README.md) in process: a
// |Σ|=100, K=4, L=2 rule set over DenseFrozen(4000, 8) with 80 perturbed
// nodes, plus the number of matches one ViolationsOpts pass over it
// enumerates — two to three orders of magnitude more than the violations it
// reports, which is what makes the pass a measurement of enumeration and
// literal evaluation rather than of result assembly.
func ViolationsWorkload(seed int64) (*gfd.Set, *graph.Frozen, int) {
	gr := gen.New(gen.Config{N: 100, K: 4, L: 2, Seed: seed})
	set := gr.Set()
	f := perturb(gr.DenseFrozen(4000, 8), seed, 80)
	matches := 0
	for _, grp := range set.Groups() {
		matches += match.NewSearch(grp.Pattern, f, match.Options{}).CountAll()
	}
	return set, f, matches
}

// allocsPerOp measures steady-state heap allocations per call of f. One
// warm-up call runs first so lazily built structures (plans, compiled
// literal programs, scratch) are excluded — the steady state is what the
// hot loops claim. Counts are deterministic on one toolchain and shift a
// little across Go versions: most ride in the artifact without gating, and
// the one that gates (match_frozen_allocs) does so at the report tolerance.
func allocsPerOp(reps int, f func()) float64 {
	if reps < 1 {
		reps = 1
	}
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// CIShardWorkers is the fan-out width of the sharded matching metric: the
// paper's per-machine worker count, oversubscribed harmlessly on smaller
// runners (goroutines, not threads).
const CIShardWorkers = 8

// EnforceWorkload builds the enforcement layer's input: a DBpedia-profile Σ
// of n rules (K=6, L=5, wildcard rate 0.3 — the shape of the end-to-end
// benchmark's sat-dbpedia family) and every match of every rule in G_Σ,
// enumerated once per GFD, the GFDs in depgraph.OrderGFDs order.
func EnforceWorkload(n int, seed int64) (*gfd.Set, []core.Match) {
	set := gen.New(gen.Config{N: n, K: 6, L: 5, Profile: dataset.DBpedia(), WildcardRate: 0.3, Seed: seed}).Set()
	g := canon.BuildSigma(set).Graph.Frozen()
	var ms []core.Match
	for _, gi := range depgraph.OrderGFDs(set) {
		s := match.NewSearch(set.GFDs[gi].Pattern, g, match.Options{})
		for h, ok := s.Next(); ok; h, ok = s.Next() {
			ms = append(ms, core.Match{GFD: gi, H: h.Clone()})
		}
	}
	return set, ms
}

// RunCI measures the CI metric suite, which holds only what the end-to-end
// benchmark (benchmark/gfdbench) does not: the six gated ratios between two
// shipping code paths timed in one process — sharded vs flat matching on
// the label-dense triangle workload, the warm plan cache vs per-query
// planning, the incremental re-freeze vs a from-scratch rebuild of the same
// final state, incremental vs full revalidation after a small delta,
// snapshot load vs rebuild-from-edges, and refreeze on a compacted vs a
// tombstone-heavy base — with both sides of each as informational times;
// the allocation counts; and the two layers gfdbench has no probe for, the
// chase alone (enforce_*) and the adaptive intersection kernels on the
// skewed hub workload. Absolute times of whole passes are gfdbench's.
// Wall time is a few seconds. The suite is
// fixed-size by design — Config.Scale does not apply — so reports stay
// comparable across baselines; Seed reseeds every workload, each a function
// of it, and Reps sets the per-measurement median width. It errors instead
// of gating when a workload cannot be built (a gate on garbage numbers is
// worse than no gate); the report measured up to that point is still
// returned beside the error, so callers can flush the partial artifact.
func RunCI(cfg Config) (*CIReport, error) {
	cfg = cfg.withDefaults()
	report := &CIReport{}
	msOf := func(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }
	gauge := func(name string, num, den time.Duration) {
		v := 0.0
		if den > 0 {
			v = float64(num) / float64(den)
		}
		report.Metrics = append(report.Metrics, Metric{Name: name, Value: v, Unit: "x", HigherIsBetter: true})
	}
	info := func(name string, d time.Duration) {
		report.Metrics = append(report.Metrics, Metric{Name: name, Value: msOf(d), Unit: "ms", Informational: true})
	}

	from, to, lab := HubHeavyIngest(cfg.Seed)
	freeze := medianTime(cfg.Reps, func() { IngestFrozen(from, to, lab) })
	info("freeze_ingest_ms", freeze)

	f, ps, err := MatchWorkload(cfg.Seed)
	if err != nil {
		return report, fmt.Errorf("cannot measure match metrics: %v", err)
	}
	matchAll := func() {
		for _, p := range ps {
			match.NewSearch(p, f, match.Options{}).CountAll()
		}
	}
	frozen := medianTime(cfg.Reps, matchAll)
	info("match_frozen_ms", frozen)
	// Gated: a match is a view, so the flagship enumeration allocates per
	// search (frames, candidate buffers), never per match.
	frozenAllocs := allocsPerOp(cfg.Reps, matchAll)
	report.Metrics = append(report.Metrics, Metric{Name: "match_frozen_allocs", Value: frozenAllocs, Unit: "allocs/op"})

	// Sharded fan-out vs the flat single-threaded enumeration of the same
	// workload. The ratio is gated with a deliberately conservative baseline
	// floor: runner core counts vary (a 1-core runner can at best break
	// even), so the gate guards "sharding never becomes a tax", while the
	// informational times record the actual speedup per machine.
	sh := f.Sharded(runtime.GOMAXPROCS(0))
	sharded := medianTime(cfg.Reps, func() {
		for _, p := range ps {
			match.CountSharded(p, sh, CIShardWorkers, match.Options{})
		}
	})
	gauge("match_sharded_speedup", frozen, sharded)
	info("match_sharded_ms", sharded)

	// The fast side of an algorithmic ratio can run in single-digit
	// milliseconds, where one descheduling on a busy runner dwarfs the
	// measurement; every such side below is single-threaded and
	// deterministic, so min-of-N (see minTime) recovers the true cost as
	// long as one rep runs clean — and gets extra reps to make that likely.
	incrReps := 4*cfg.Reps + 3

	// The intersection kernels on the skewed-operand triangle, where the
	// picker gallops a handful of candidates through hub adjacency runs.
	af, ap := AdaptiveWorkload(cfg.Seed)
	countTriangles := func() int { return match.NewSearch(ap, af, match.Options{}).CountAll() }
	if countTriangles() == 0 {
		return report, fmt.Errorf("adaptive workload broken: the hub triangle has no match")
	}
	info("match_adaptive_ms", minTime(incrReps, func() { countTriangles() }))

	// Warm plan cache vs per-query planning on the repeated-query workload.
	// The warm loop includes the per-query cache probe — the cost a real
	// caller pays — against a cache warmed outside the timed region; the
	// warm-up run doubles as the equal-results sanity check.
	pf, pps, err := PlanWorkload(cfg.Seed)
	if err != nil {
		return report, fmt.Errorf("cannot build the plan workload: %v", err)
	}
	planCache := match.NewPlanCache()
	if warm, cold := PlanQueries(pf, pps, planCache), PlanQueries(pf, pps, nil); warm != cold {
		return report, fmt.Errorf("plan workload broken: planned queries found %d matches, planless %d", warm, cold)
	}
	coldT := minTime(cfg.Reps, func() { PlanQueries(pf, pps, nil) })
	warmT := minTime(incrReps, func() { PlanQueries(pf, pps, planCache) })
	gauge("plan_cache_speedup", coldT, warmT)
	info("plan_cold_ms", coldT)
	info("plan_warm_ms", warmT)

	// The enforcement layer by itself on the same Σ shape: literal
	// resolution, then offer/drain of the pre-enumerated matches through a
	// fresh enforcer. Informational, per match.
	eset, ems := EnforceWorkload(1600, cfg.Seed)
	if st, con := core.EnforceMatches(eset, ems); con != nil || st.Enforcements == 0 {
		return report, fmt.Errorf("enforce workload broken: %d enforcements, conflict %v", st.Enforcements, con)
	}
	enforceT := medianTime(cfg.Reps, func() { core.EnforceMatches(eset, ems) })
	enforceAllocs := allocsPerOp(cfg.Reps, func() { core.EnforceMatches(eset, ems) })
	report.Metrics = append(report.Metrics,
		Metric{Name: "enforce_ns_per_match", Value: float64(enforceT.Nanoseconds()) / float64(len(ems)), Unit: "ns", Informational: true},
		Metric{Name: "enforce_allocs_per_match", Value: enforceAllocs / float64(len(ems)), Unit: "allocs/match", Informational: true})

	// Incremental re-freeze vs from-scratch rebuild of the same final state
	// on the 100k-edge ingest base with a 1% delta. Each rep gets its own
	// pre-built delta with an Overlay already taken — the lifecycle position
	// Refreeze actually runs in: the overlay (itself a Refreeze) served reads
	// while updates accumulated. Taking it sorted the delta's edits and
	// merged them into the touched rows, which the delta caches per version,
	// so the timed refreeze reuses those rows and pays for writing the next
	// CSR: the header clones, a copy of the row storage (the first delta's
	// overlay claimed the base's tail) and the touched rows through the row
	// writer.
	// The ratio is machine-independent (two single-threaded code paths over
	// the same data), so its baseline floor enforces the ≥5x acceptance
	// claim directly.
	base, mkDelta, ffrom, fto, flab := RefreezeWorkload(cfg.Seed)
	deltas := make([]*graph.Delta, incrReps)
	for i := range deltas {
		deltas[i] = mkDelta()
		deltas[i].Overlay()
	}
	rebuildT := minTime(cfg.Reps, func() { IngestFrozen(ffrom, fto, flab) })
	rep := 0
	var refrozen *graph.Frozen
	refreezeT := minTime(incrReps, func() {
		refrozen = base.Refreeze(deltas[rep])
		rep++
	})
	if want := IngestFrozen(ffrom, fto, flab); refrozen.NumEdges() != want.NumEdges() {
		return report, fmt.Errorf("refreeze produced %d edges, rebuild %d: workload is broken",
			refrozen.NumEdges(), want.NumEdges())
	}
	gauge("refreeze_speedup", rebuildT, refreezeT)
	info("refreeze_ms", refreezeT)
	info("rebuild_ms", rebuildT)

	// Incremental revalidation vs full re-validation after a small delta,
	// both on runtime.GOMAXPROCS(0) pool workers (Violations' own default)
	// over the same overlay — an algorithmic ratio, since both sides fan out
	// the same way. Every rep revalidates the whole delta from the base:
	// RevalidateDelta would continue its first rep's chain and, with no edit
	// since, re-enumerate nothing.
	vset, vbase, vdelta, err := ValidateWorkload(cfg.Seed)
	if err != nil {
		return report, fmt.Errorf("cannot measure revalidation metrics: %v", err)
	}
	prev := core.Violations(vbase, vset)
	overlay := vdelta.Overlay()
	fullValT := minTime(cfg.Reps, func() { core.Violations(overlay, vset) })
	ropt := core.RevalidateOptions{Workers: runtime.GOMAXPROCS(0)}
	incrValT := minTime(incrReps, func() {
		core.Revalidate(vset, overlay, vdelta.TouchedSince(0), prev, ropt)
	})
	gauge("incr_validate_speedup", fullValT, incrValT)
	info("incr_validate_ms", incrValT)
	info("full_validate_ms", fullValT)

	// Allocations of shared multi-GFD evaluation: ~8 GFDs per pattern
	// structure, each structure enumerated once.
	mset, mg, err := MultiGFDWorkload(cfg.Seed)
	if err != nil {
		return report, fmt.Errorf("cannot build the multi-GFD workload: %v", err)
	}
	bg := context.Background()
	_, gst, gerr := core.ViolationsOpts(bg, mg, mset, core.VerifyOptions{})
	if gerr != nil {
		return report, fmt.Errorf("multi-GFD workload failed: %v", gerr)
	}
	if gst.SharedGFDs == 0 {
		return report, fmt.Errorf("multi-GFD workload vacuous: no GFD shared a pattern group (%d groups over %d GFDs)", gst.Groups, mset.Len())
	}
	report.Metrics = append(report.Metrics, Metric{Name: "multi_gfd_grouped_allocs", Value: allocsPerOp(cfg.Reps, func() {
		core.ViolationsOpts(bg, mg, mset, core.VerifyOptions{})
	}), Unit: "allocs/op", Informational: true})

	// One validation pass on the check-dense shape: allocations per
	// enumerated match — clone-on-violation keeps them near
	// violations/matches.
	vset, vg, vmatches := ViolationsWorkload(cfg.Seed)
	if vmatches == 0 {
		return report, fmt.Errorf("violations workload broken: no match")
	}
	violations := func() { core.ViolationsOpts(bg, vg, vset, core.VerifyOptions{}) }
	report.Metrics = append(report.Metrics, Metric{Name: "violations_allocs_per_match",
		Value: allocsPerOp(cfg.Reps, violations) / float64(vmatches), Unit: "allocs/match", Informational: true})

	// Snapshot load vs the same rebuild-from-edges the freeze metric timed:
	// both produce the base snapshot, one by sorting raw edges, one by
	// decoding the binary image. Single-threaded and deterministic, so the
	// ratio is machine-independent and min-of-N applies.
	img, err := SnapshotImage(base)
	if err != nil {
		return report, fmt.Errorf("cannot serialize the snapshot workload: %v", err)
	}
	var loadErr error
	loadT := minTime(incrReps, func() {
		if _, loadErr = graph.ReadSnapshot(bytes.NewReader(img)); loadErr != nil {
			panic(loadErr)
		}
	})
	gauge("snapshot_load_speedup", freeze, loadT)
	info("snapshot_load_ms", loadT)

	// Refreeze of identical churn against a 30%-dead base vs its compacted
	// equivalent: the compaction win on the V-proportional refreeze work.
	// Same machine-independence rationale as refreeze_speedup.
	deadBase, compacted, _, mkDead, mkCompact, err := CompactWorkload(cfg.Seed)
	if err != nil {
		return report, fmt.Errorf("cannot build the compaction workload: %v", err)
	}
	dDead, dComp := mkDead(), mkCompact()
	dDead.Overlay()
	dComp.Overlay()
	// Both sides are sub-millisecond, so their reps alternate, each after a
	// collection: a slow stretch of the machine, or a collection the other
	// side's garbage would start, falls on both alike.
	deadT, compT := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < incrReps; i++ {
		runtime.GC()
		deadT = min(deadT, minTime(1, func() { deadBase.Refreeze(dDead) }))
		runtime.GC()
		compT = min(compT, minTime(1, func() { compacted.Refreeze(dComp) }))
	}
	gauge("compact_refreeze_speedup", deadT, compT)
	info("refreeze_dead_ms", deadT)
	info("refreeze_compacted_ms", compT)

	return report, nil
}

// Format renders the report as an aligned text table for logs.
func (r *CIReport) Format() string {
	rep := &Report{
		Name:   "CI",
		Title:  "benchmark-regression metric suite",
		Header: []string{"metric", "value", "unit", "gating"},
	}
	for _, m := range r.Metrics {
		gate := "yes"
		if m.Informational {
			gate = "info-only"
		}
		rep.Rows = append(rep.Rows, []string{m.Name, fmt.Sprintf("%.2f", m.Value), m.Unit, gate})
	}
	return rep.Format()
}

// WriteCIReport writes the report as indented JSON.
func WriteCIReport(path string, r *CIReport) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadCIReport parses a report written by WriteCIReport.
func ReadCIReport(path string) (*CIReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r CIReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// CompareCI returns one violation message per gating metric of the
// baseline that the current report regresses by more than tol (a fraction:
// 0.25 allows a 25% slide). Gating metrics missing from the current report
// are violations; metrics the baseline does not know are ignored, so the
// suite can grow without invalidating old baselines.
func CompareCI(baseline, current *CIReport, tol float64) []string {
	var violations []string
	for _, base := range baseline.Metrics {
		if base.Informational {
			continue
		}
		cur, ok := current.Get(base.Name)
		if !ok {
			violations = append(violations, fmt.Sprintf("%s: missing from current report (baseline %.2f)", base.Name, base.Value))
			continue
		}
		if base.HigherIsBetter {
			if floor := base.Value * (1 - tol); cur.Value < floor {
				violations = append(violations,
					fmt.Sprintf("%s: %.2f regressed below %.2f (baseline %.2f, tolerance %.0f%%)",
						base.Name, cur.Value, floor, base.Value, tol*100))
			}
		} else {
			if ceil := base.Value * (1 + tol); cur.Value > ceil {
				violations = append(violations,
					fmt.Sprintf("%s: %.2f regressed above %.2f (baseline %.2f, tolerance %.0f%%)",
						base.Name, cur.Value, ceil, base.Value, tol*100))
			}
		}
	}
	return violations
}

// ViolationError folds every CompareCI violation into one error, so a CI
// failure reports the complete set of regressed metrics at once rather
// than the first one per re-run. Nil when there are no violations.
func ViolationError(baseline string, violations []string) error {
	if len(violations) == 0 {
		return nil
	}
	return fmt.Errorf("benchmark regression against %s (%d metric(s)):\n  %s",
		baseline, len(violations), strings.Join(violations, "\n  "))
}
