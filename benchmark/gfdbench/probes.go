package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/canon"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/depgraph"
	"repro/internal/eq"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/gfdio"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/rdfchase"
)

// The layer probes time calls into each layer's exported entry points with
// default options only — no ablation switch is referenced anywhere in this
// benchmark, so deleting one cannot break it. Every workload runs every
// probe on its own inputs: its Σ, its data graph (for the reasoning
// workloads, G_Σ frozen through the Builder, which is what "G_Σ on the fast
// path" would serve), its targets. A probe that a workload's programs never
// reach still reports — that is the "bypass" column of the layer table.

// probeCtx is what the probes run on.
type probeCtx struct {
	set       *gfd.Set
	sigmaText []byte
	phis      []*gfd.GFD    // implication targets (imp-batch) or leading members of Σ
	data      *graph.Frozen // the workload's data graph
	gen       *gen.Generator
	names     namer
	p         int
	dir       string
}

// Probe sizes. The caps keep the traced run inside the driver's budget and
// make match.matches an exact, repeatable count.
const (
	rowLookups       = 1 << 20 // (node,label) probes per reader
	probePatterns    = 24      // distinct Σ patterns enumerated per reader
	probeMatchCap    = 20000   // matches taken per pattern
	probeDeltaOps    = 400     // update ops in the probe delta
	probePhis        = 5       // targets per implication probe
	probeCancels     = 10
	microIterations  = 200000 // cluster and eq micro-operations
	probeFingerprint = 256
)

type layerMetrics struct {
	m  map[string]metric
	tr *tracer
}

func (l *layerMetrics) set(name, unit string, v float64) {
	l.m[name] = metric{Value: v, Unit: unit, N: 1}
}

// timed records a probe's duration both as a metric (converted by conv) and
// as a root span tagged "probe" in the trace.
func (l *layerMetrics) timed(name, unit string, d time.Duration, conv func(time.Duration) float64) {
	l.set(name, unit, conv(d))
	l.tr.probe(name, d)
}

func newProbeCtx(w workload, in *inputs, p int) (*probeCtx, error) {
	text, err := os.ReadFile(in.sigmaPath)
	if err != nil {
		return nil, err
	}
	c := &probeCtx{set: in.set, sigmaText: text, names: in.names, p: p, dir: in.dir}
	sz := in.size
	switch w.group {
	case groupSat:
		c.gen = gen.New(satConfig(sz))
	case groupImp:
		c.gen = gen.New(impConfig(sz))
		for _, t := range in.targets {
			c.phis = append(c.phis, t.phi)
		}
	case groupCheck:
		c.gen = gen.New(checkConfig(sz))
		c.gen.Set() // defines the W rows the update stream writes
		c.data = in.data
	case groupStore:
		c.gen, _ = storeGenerator()
		c.data = in.data
	}
	if c.data == nil {
		c.data = canon.BuildSigma(c.set).Graph.Frozen()
	}
	if len(c.phis) == 0 {
		c.phis = c.set.GFDs
	}
	if len(c.phis) > probePhis {
		c.phis = c.phis[:probePhis]
	}
	return c, nil
}

// runProbes measures every per-layer metric.
func runProbes(c *probeCtx, tr *tracer) (map[string]metric, error) {
	l := &layerMetrics{m: map[string]metric{}, tr: tr}
	sig := canon.BuildSigma(c.set)
	groups := c.set.Groups()
	patterns := make([]*pattern.Pattern, 0, probePatterns)
	for _, g := range groups {
		if len(patterns) == probePatterns {
			break
		}
		patterns = append(patterns, g.Pattern)
	}
	edgeLabels := patternEdgeLabels(c.set)

	// One probe delta over the data graph serves the overlay reader, the
	// refreeze and the revalidation probes.
	delta := graph.NewDelta(c.data)
	applyT := timeIt(func() { c.gen.MutateDelta(renamingMutator{delta, c.names}, probeDeltaOps) })
	l.timed("graph.delta_apply_ns_per_op", "ns", applyT, func(d time.Duration) float64 { return perOp(d, probeDeltaOps) })
	var overlay *graph.Overlay
	l.timed("graph.overlay_derive_us", "us", timeIt(func() { overlay = delta.Overlay() }), micros)

	if err := probeGfdio(c, l); err != nil {
		return nil, err
	}
	if err := probeStorage(c, l, delta); err != nil {
		return nil, err
	}
	probeRows(c, l, sig.Graph, overlay, edgeLabels)
	probePatternLayer(c, l)
	probeCanon(c, l)
	probeMatch(c, l, sig.Graph, overlay, patterns, groups)
	probeEq(c, l, sig)
	probeCluster(l)
	if err := probeCore(c, l, delta); err != nil {
		return nil, err
	}
	return l.m, nil
}

func patternEdgeLabels(set *gfd.Set) []string {
	seen := map[string]bool{}
	var out []string
	for _, phi := range set.GFDs {
		for _, e := range phi.Pattern.Edges() {
			if !seen[e.Label] {
				seen[e.Label] = true
				out = append(out, e.Label)
			}
		}
	}
	return out
}

func probeGfdio(c *probeCtx, l *layerMetrics) error {
	var err error
	d := medianOf(3, func() {
		if _, e := gfdio.ReadGFDs(bytes.NewReader(c.sigmaText)); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("probe gfdio.ReadGFDs: %w", err)
	}
	l.timed("gfdio.read_gfds_s", "s", d, seconds)

	var text bytes.Buffer
	d = timeIt(func() { err = gfdio.WriteGraph(&text, c.data) })
	if err != nil {
		return fmt.Errorf("probe gfdio.WriteGraph: %w", err)
	}
	l.timed("gfdio.write_graph_s", "s", d, seconds)
	d = timeIt(func() { _, err = gfdio.ReadFrozenGraph(bytes.NewReader(text.Bytes())) })
	if err != nil {
		return fmt.Errorf("probe gfdio.ReadFrozenGraph: %w", err)
	}
	l.timed("gfdio.read_graph_s", "s", d, seconds)
	return nil
}

// probeStorage covers the snapshot lifecycle: freeze, snapshot I/O, WAL
// append and recovery, refreeze, compaction.
func probeStorage(c *probeCtx, l *layerMetrics, delta *graph.Delta) error {
	b := rebuild(c.data, func(_ graph.NodeID, _, old string) string { return old })
	l.timed("graph.freeze_s", "s", timeIt(func() { b.Freeze() }), seconds)

	var snap bytes.Buffer
	var err error
	d := timeIt(func() { err = c.data.WriteSnapshot(&snap) })
	if err != nil {
		return fmt.Errorf("probe WriteSnapshot: %w", err)
	}
	l.timed("graph.snapshot_write_s", "s", d, seconds)
	l.set("graph.snapshot_bytes_per_edge", "B", float64(snap.Len())/float64(max(c.data.NumEdges(), 1)))
	d = timeIt(func() { _, err = graph.ReadSnapshot(bytes.NewReader(snap.Bytes())) })
	if err != nil {
		return fmt.Errorf("probe ReadSnapshot: %w", err)
	}
	l.timed("graph.snapshot_read_s", "s", d, seconds)

	// A second update stream of the same size, this time through a WAL on
	// disk with one sync at the end.
	walPath := filepath.Join(c.dir, "probe.wal")
	if err := os.Remove(walPath); err != nil && !os.IsNotExist(err) {
		return err
	}
	wd := graph.NewDelta(c.data)
	wal, err := graph.OpenWAL(walPath, wd)
	if err != nil {
		return err
	}
	d = timeIt(func() {
		c.gen.MutateDelta(renamingMutator{wal, c.names}, probeDeltaOps)
		err = wal.Sync()
	})
	if cerr := wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("probe WAL: %w", err)
	}
	logBytes, err := os.ReadFile(walPath)
	if err != nil {
		return err
	}
	var stats graph.RecoverStats
	rd := timeIt(func() { _, stats, err = graph.Recover(c.data, bytes.NewReader(logBytes)) })
	if err != nil {
		return fmt.Errorf("probe Recover: %w", err)
	}
	l.timed("graph.wal_append_ns_per_op", "ns", d, func(d time.Duration) float64 { return perOp(d, stats.Records) })
	l.set("graph.wal_bytes_per_op", "B", float64(len(logBytes))/float64(max(stats.Records, 1)))
	l.timed("graph.recover_s", "s", rd, seconds)

	l.timed("graph.refreeze_s", "s", timeIt(func() { c.data.Refreeze(delta) }), seconds)

	// Compaction needs tombstones: retire every third node, refreeze
	// carrying them, then time the compaction alone.
	kill := graph.NewDelta(c.data)
	for i := 0; i < c.data.NumNodes(); i += 3 {
		kill.RemoveNode(graph.NodeID(i))
	}
	dead := c.data.Refreeze(kill)
	l.timed("graph.compact_s", "s", timeIt(func() { dead.Compact() }), seconds)
	return nil
}

// probeRows measures label-keyed row access, edge probes and candidate
// generation on each representation with one fixed seeded lookup sequence
// per reader.
func probeRows(c *probeCtx, l *layerMetrics, canonG *graph.Graph, overlay *graph.Overlay, edgeLabels []string) {
	readers := []struct {
		name       string
		r          graph.Reader
		hasEdge    bool
		candidates bool
	}{
		{"frozen", c.data, true, true},
		{"overlay", overlay, true, false},
		{"canon", canonG, true, true},
		{"sharded", c.data.Sharded(c.p), false, false},
	}
	for _, rd := range readers {
		r := rd.r
		n := r.NumNodes()
		ids := append(r.ResolveLabels(edgeLabels), graph.AnyLabel)
		rng := rand.New(rand.NewSource(shapeSeed))
		const window = 1 << 16
		nodes := make([]graph.NodeID, window)
		labels := make([]graph.LabelID, window)
		targets := make([]graph.NodeID, window)
		for i := range nodes {
			nodes[i] = graph.NodeID(rng.Intn(n))
			labels[i] = ids[rng.Intn(len(ids))]
			// Half the edge probes hit: the target is a real neighbour.
			targets[i] = graph.NodeID(rng.Intn(n))
			if row := r.OutByLabelID(nodes[i], labels[i]); i%2 == 0 && len(row) > 0 {
				targets[i] = row[rng.Intn(len(row))]
			}
		}
		sink := 0
		d := timeIt(func() {
			for i := 0; i < rowLookups; i++ {
				j := i & (window - 1)
				sink += len(r.OutByLabelID(nodes[j], labels[j]))
				sink += len(r.InByLabelID(nodes[j], labels[j]))
			}
		})
		l.timed("graph.row_ns."+rd.name, "ns", d, func(d time.Duration) float64 { return perOp(d, 2*rowLookups) })
		if rd.hasEdge {
			d = timeIt(func() {
				for i := 0; i < rowLookups; i++ {
					j := i & (window - 1)
					if r.HasEdgeID(nodes[j], targets[j], labels[j]) {
						sink++
					}
				}
			})
			l.timed("graph.has_edge_ns."+rd.name, "ns", d, func(d time.Duration) float64 { return perOp(d, rowLookups) })
		}
		if rd.candidates {
			nodeLabels := r.Labels()
			var buf []graph.NodeID
			const calls = 2000
			d = timeIt(func() {
				for i := 0; i < calls; i++ {
					buf = r.AppendCandidates(buf[:0], nodeLabels[i%len(nodeLabels)])
					sink += len(buf)
				}
			})
			l.timed("graph.candidates_ns."+rd.name, "ns", d, func(d time.Duration) float64 { return perOp(d, calls) })
		}
		runtime.KeepAlive(sink)
	}
}

func probePatternLayer(c *probeCtx, l *layerMetrics) {
	// Fingerprints are memoised per pattern value, so time them on fresh
	// copies — what a just-parsed rule file carries.
	var fresh []*pattern.Pattern
	for _, phi := range c.set.GFDs {
		if len(fresh) == probeFingerprint {
			break
		}
		q := pattern.New()
		for v := 0; v < phi.Pattern.NumVars(); v++ {
			q.AddVar(phi.Pattern.Name(pattern.Var(v)), phi.Pattern.Label(pattern.Var(v)))
		}
		for _, e := range phi.Pattern.Edges() {
			q.AddEdge(e.From, e.To, e.Label)
		}
		fresh = append(fresh, q)
	}
	var sink uint64
	d := timeIt(func() {
		for _, q := range fresh {
			sink += q.Fingerprint()
		}
	})
	runtime.KeepAlive(sink)
	l.timed("pattern.fingerprint_ns", "ns", d, func(d time.Duration) float64 { return perOp(d, len(fresh)) })

	// Groups on a freshly parsed Σ, as every CLI run pays it.
	parsed, err := gfdio.ReadGFDs(bytes.NewReader(c.sigmaText))
	if err != nil {
		parsed = c.set
	}
	l.timed("gfd.groups_s", "s", timeIt(func() { parsed.Groups() }), seconds)
}

func probeCanon(c *probeCtx, l *layerMetrics) {
	l.timed("canon.build_sigma_s", "s", medianOf(3, func() { canon.BuildSigma(c.set) }), seconds)
	d := timeIt(func() {
		for _, phi := range c.phis {
			canon.BuildPhi(phi)
		}
	})
	l.timed("canon.build_phi_us", "us", d, func(d time.Duration) float64 { return perOp(d, len(c.phis)) / 1e3 })
	l.timed("depgraph.order_gfds_s", "s", timeIt(func() { depgraph.OrderGFDs(c.set) }), seconds)
}

// enumerate takes up to probeMatchCap matches of each pattern and returns
// the total.
func enumerate(patterns []*pattern.Pattern, r graph.Reader) int {
	total := 0
	for _, p := range patterns {
		s := match.NewSearch(p, r, match.Options{})
		for n := 0; n < probeMatchCap; n++ {
			if _, ok := s.Next(); !ok {
				break
			}
			total++
		}
	}
	return total
}

func probeMatch(c *probeCtx, l *layerMetrics, canonG *graph.Graph, overlay *graph.Overlay, patterns []*pattern.Pattern, groups []gfd.Group) {
	// Simulation of every distinct Σ pattern on G_Σ: the pre-filter only the
	// parallel engines run.
	d := timeIt(func() {
		for _, g := range groups {
			match.Simulate(g.Pattern, canonG)
		}
	})
	l.timed("match.simulate_s", "s", d, seconds)

	d = timeIt(func() {
		for _, p := range patterns {
			match.CompilePlan(p, c.data)
		}
	})
	l.timed("match.compile_plan_us", "us", d, func(d time.Duration) float64 { return perOp(d, len(patterns)) / 1e3 })
	cache := match.NewPlanCache()
	for _, p := range patterns {
		cache.Get(p, c.data)
	}
	const hits = 100000
	d = timeIt(func() {
		for i := 0; i < hits; i++ {
			cache.Get(patterns[i%len(patterns)], c.data)
		}
	})
	l.timed("match.plan_cache_hit_ns", "ns", d, func(d time.Duration) float64 { return perOp(d, hits) })

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	var matches int
	d = timeIt(func() { matches = enumerate(patterns, c.data) })
	runtime.ReadMemStats(&ms)
	l.timed("match.next_ns_per_match.frozen", "ns", d, func(d time.Duration) float64 { return perOp(d, matches) })
	l.set("match.matches", "count", float64(matches))
	l.set("match.allocs_per_match", "count", float64(ms.Mallocs-mallocs)/float64(max(matches, 1)))
	for _, rd := range []struct {
		name string
		r    graph.Reader
	}{{"overlay", overlay}, {"canon", canonG}} {
		var n int
		d = timeIt(func() { n = enumerate(patterns, rd.r) })
		l.timed("match.next_ns_per_match."+rd.name, "ns", d, func(d time.Duration) float64 { return perOp(d, n) })
	}

	// Grouped enumeration of the same patterns, stopped at the same total.
	pgs := make([]match.PatternGroup, len(patterns))
	for i, p := range patterns {
		pgs[i] = match.PatternGroup{Pattern: p}
	}
	budget := len(patterns) * probeMatchCap
	d = timeIt(func() {
		n := 0
		// A stop request is not an error; a background context cannot fire.
		_, _ = match.EnumerateGrouped(context.Background(), c.data, pgs, func(int, match.Assignment) bool {
			n++
			return n < budget
		})
	})
	l.timed("match.grouped_s", "s", d, seconds)

	// Literal evaluation: the first group's members over its own matches.
	grp := groups[0]
	members := make([]match.MemberLiterals, len(grp.Members))
	for i, mi := range grp.Members {
		phi := c.set.GFDs[mi]
		members[i] = match.MemberLiterals{X: literalSpecs(phi.X), Y: literalSpecs(phi.Y)}
	}
	prog := match.CompileLiterals(members)
	scratch := prog.NewScratch()
	var hs []match.Assignment
	s := match.NewSearch(grp.Pattern, c.data, match.Options{})
	for len(hs) < 4096 {
		h, ok := s.Next()
		if !ok {
			break
		}
		hs = append(hs, h.Clone())
	}
	evals, violated := 0, 0
	d = timeIt(func() {
		for rep := 0; rep < 8; rep++ {
			for _, h := range hs {
				scratch.Begin()
				for m := range members {
					if prog.Violates(m, c.data, h, scratch) {
						violated++
					}
					evals++
				}
			}
		}
	})
	runtime.KeepAlive(violated)
	l.timed("match.literal_eval_ns", "ns", d, func(d time.Duration) float64 { return perOp(d, evals) })

	// Sharded counting with P workers, on the patterns whose full match set
	// is small enough to finish (nothing in the CLI reaches this path).
	sharded := c.data.Sharded(c.p)
	var small []*pattern.Pattern
	for _, p := range patterns {
		if enumerate([]*pattern.Pattern{p}, c.data) < probeMatchCap {
			small = append(small, p)
		}
	}
	d = timeIt(func() {
		for _, p := range small {
			match.CountSharded(p, sharded, c.p, match.Options{})
		}
	})
	l.timed("match.sharded_count_s", "s", d, seconds)
}

func literalSpecs(ls []gfd.Literal) []match.LiteralSpec {
	out := make([]match.LiteralSpec, len(ls))
	for i, lit := range ls {
		if lit.Kind == gfd.ConstLiteral {
			out[i] = match.LiteralSpec{IsConst: true, V1: lit.X, A1: lit.A, Const: lit.Const}
		} else {
			out[i] = match.LiteralSpec{V1: lit.X, A1: lit.A, V2: lit.Y, A2: lit.B}
		}
	}
	return out
}

// probeEq replays Σ's own literals as an Eq term stream over G_Σ's terms.
func probeEq(c *probeCtx, l *layerMetrics, sig *canon.Sigma) {
	type assign struct {
		t eq.Term
		c string
	}
	var assigns []assign
	var merges [][2]eq.Term
	for i, phi := range c.set.GFDs {
		for _, lit := range append(append([]gfd.Literal(nil), phi.X...), phi.Y...) {
			if lit.Kind == gfd.ConstLiteral {
				assigns = append(assigns, assign{sig.TermOf(i, lit.X, lit.A), lit.Const})
			} else {
				merges = append(merges, [2]eq.Term{sig.TermOf(i, lit.X, lit.A), sig.TermOf(i, lit.Y, lit.B)})
			}
		}
	}
	var e *eq.Eq
	reps := 1 + microIterations/max(len(assigns)+len(merges), 1)
	var assignT, mergeT time.Duration
	for r := 0; r < reps; r++ {
		e = eq.New()
		assignT += timeIt(func() {
			for _, a := range assigns {
				e.AssignConst(a.t, a.c)
			}
		})
		mergeT += timeIt(func() {
			for _, m := range merges {
				e.Merge(m[0], m[1])
			}
		})
	}
	l.timed("eq.assign_const_ns", "ns", assignT, func(d time.Duration) float64 { return perOp(d, reps*len(assigns)) })
	l.timed("eq.merge_ns", "ns", mergeT, func(d time.Duration) float64 { return perOp(d, reps*len(merges)) })
	ops := e.TakeDelta()
	var applyT time.Duration
	for r := 0; r < reps; r++ {
		replica := eq.New()
		applyT += timeIt(func() { replica.Apply(ops) })
	}
	l.timed("eq.delta_apply_ns_per_op", "ns", applyT, func(d time.Duration) float64 { return perOp(d, reps*len(ops)) })
}

// probeCluster times the broadcast log and the scheduling structures,
// single-threaded: the uncontended cost every unit and broadcast pays.
func probeCluster(l *layerMetrics) {
	op := eq.Delta{{Kind: eq.OpAssign, T: eq.Term{Node: 1, Attr: "a"}, C: "c"}}
	log := cluster.NewLog()
	d := timeIt(func() {
		for i := 0; i < microIterations; i++ {
			log.Append(op)
		}
	})
	l.timed("cluster.log_append_ns", "ns", d, func(d time.Duration) float64 { return perOp(d, microIterations) })
	// A reader one broadcast behind: the catch-up every worker does.
	sink := 0
	d = timeIt(func() {
		for i := 0; i < microIterations; i++ {
			ops, _ := log.ReadFrom(microIterations - 1)
			sink += len(ops)
		}
	})
	l.timed("cluster.log_read_ns", "ns", d, func(d time.Duration) float64 { return perOp(d, microIterations) })

	dq := cluster.NewDeque[int]()
	d = timeIt(func() {
		for i := 0; i < microIterations; i++ {
			dq.PushBack(i)
			v, _ := dq.PopFront()
			sink += v
		}
	})
	l.timed("cluster.deque_pushpop_ns", "ns", d, func(d time.Duration) float64 { return perOp(d, microIterations) })
	d = timeIt(func() {
		for i := 0; i < microIterations; i++ {
			dq.PushFront(i)
			v, _ := dq.PopBack()
			sink += v
		}
	})
	l.timed("cluster.deque_steal_ns", "ns", d, func(d time.Duration) float64 { return perOp(d, microIterations) })
	q := cluster.NewQueue[int]()
	for i := 0; i < 1024; i++ {
		q.Push(i%17, i)
	}
	d = timeIt(func() {
		for i := 0; i < microIterations; i++ {
			q.Push(i%17, i)
			v, _ := q.Pop()
			sink += v
		}
	})
	runtime.KeepAlive(sink)
	l.timed("cluster.queue_pushpop_ns", "ns", d, func(d time.Duration) float64 { return perOp(d, microIterations) })
}

// probeCore runs the engines from parsed input to answer: the gap between
// these and the end-to-end wall_s is parse plus process start.
func probeCore(c *probeCtx, l *layerMetrics, delta *graph.Delta) error {
	l.timed("core.seqsat_s", "s", timeIt(func() { core.SeqSat(c.set) }), seconds)
	l.timed("core.parsat_p1_s", "s", timeIt(func() { core.ParSat(c.set, core.DefaultParOptions(1)) }), seconds)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, bytesAlloc := ms.Mallocs, ms.TotalAlloc
	var res *core.SatResult
	parsat := timeIt(func() { res = core.ParSat(c.set, core.DefaultParOptions(c.p)) })
	runtime.ReadMemStats(&ms)
	if res.Err != nil {
		return fmt.Errorf("probe ParSat: %w", res.Err)
	}
	l.timed("core.parsat_s", "s", parsat, seconds)
	l.set("core.parsat_allocs", "count", float64(ms.Mallocs-mallocs))
	l.set("core.parsat_alloc_mb", "MB", float64(ms.TotalAlloc-bytesAlloc)/(1<<20))
	st := res.Stats
	l.set("core.matches", "count", float64(st.Matches))
	l.set("core.units_run", "count", float64(st.UnitsRun))
	l.set("core.units_split", "count", float64(st.UnitsSplit))
	l.set("core.units_stolen", "count", float64(st.UnitsStolen))
	l.set("core.enforcements", "count", float64(st.Enforcements))
	l.set("core.rechecks", "count", float64(st.Rechecks))
	l.set("core.recheck_ratio", "ratio", float64(st.Rechecks)/float64(max(st.Enforcements, 1)))
	l.set("core.broadcasts", "count", float64(st.Broadcasts))
	l.set("core.delta_ops", "count", float64(st.DeltaOps))
	l.set("core.matches_reused", "count", float64(st.MatchesReused))

	// Cancellation latency: cancel a quarter of the way into a ParSat run
	// and time cancel-to-return. A run that finishes first measures nothing.
	var lats sample
	for i := 0; i < probeCancels; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		opt := core.DefaultParOptions(c.p)
		opt.Ctx = ctx
		at := make(chan time.Time, 1)
		go func() {
			time.Sleep(parsat / 4)
			at <- time.Now()
			cancel()
		}()
		r := core.ParSat(c.set, opt)
		returned := time.Now()
		canceledAt := <-at
		if r.Err != nil {
			lats = append(lats, float64(returned.Sub(canceledAt)))
		}
	}
	cancelLat := time.Duration(0)
	if len(lats) > 0 {
		cancelLat = time.Duration(lats.median())
	}
	l.timed("core.cancel_latency_ms", "ms", cancelLat, millis)

	var seqImp, parImp, chase time.Duration
	for _, phi := range c.phis {
		seqImp += timeIt(func() { core.SeqImp(c.set, phi) })
		parImp += timeIt(func() { core.ParImp(c.set, phi, core.DefaultParOptions(c.p)) })
		chase += timeIt(func() { rdfchase.Implies(c.set, phi) })
	}
	perPhi := func(d time.Duration) float64 { return perOp(d, len(c.phis)) / 1e6 }
	l.timed("core.seqimp_ms", "ms", seqImp, perPhi)
	l.timed("core.parimp_ms", "ms", parImp, perPhi)
	l.timed("rdfchase.implies_ms", "ms", chase, perPhi)

	var prev []core.Violation
	l.timed("core.violations_s", "s", timeIt(func() { prev = core.Violations(c.data, c.set) }), seconds)
	var rst core.RevalidateStats
	var err error
	d := timeIt(func() {
		_, rst, err = core.RevalidateDelta(c.set, delta, prev, core.RevalidateOptions{Workers: c.p})
	})
	if err != nil {
		return fmt.Errorf("probe RevalidateDelta: %w", err)
	}
	l.timed("core.revalidate_ms_per_batch", "ms", d, millis)
	l.set("core.reval_reenumerated", "count", float64(rst.Reenumerated))
	l.set("core.reval_kept", "count", float64(rst.Kept))
	return nil
}
