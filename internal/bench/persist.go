// Persistence benchmarks: snapshot save/load against rebuild-from-edges,
// WAL append/recover throughput, and the compaction win on tombstone-heavy
// bases. Shared — same workloads, same measurement shape — by the Persist
// report (benchall -only persist), the CI gate's persist metrics, and the
// root BenchmarkSnapshot*/BenchmarkCompact* functions.
package bench

import (
	"bytes"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/graph"
)

// CompactDeadFraction is the tombstone share of the canonical compaction
// workload: well past the default refreeze threshold, matching the
// "30%-dead base" the compact_refreeze_speedup gate is defined on.
const CompactDeadFraction = 0.3

// SnapshotImage serializes a snapshot to memory, the save half of the
// snapshot metrics.
func SnapshotImage(f *graph.Frozen) ([]byte, error) {
	var buf bytes.Buffer
	if err := f.WriteSnapshot(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// edgeChurn is one prepared update batch: removals of existing edges and
// additions of absent ones, expressed against a specific base's IDs.
type edgeChurn struct {
	remFrom, remTo []graph.NodeID
	remLab         []string
	addFrom, addTo []graph.NodeID
	addLab         []string
}

func (c *edgeChurn) apply(d *graph.Delta) {
	for i := range c.remFrom {
		d.RemoveEdge(c.remFrom[i], c.remTo[i], c.remLab[i])
	}
	for i := range c.addFrom {
		d.AddEdge(c.addFrom[i], c.addTo[i], c.addLab[i])
	}
}

// remapped translates the batch through a compaction remap.
func (c *edgeChurn) remapped(m graph.Remap) *edgeChurn {
	r := &edgeChurn{
		remFrom: make([]graph.NodeID, len(c.remFrom)),
		remTo:   make([]graph.NodeID, len(c.remTo)),
		remLab:  c.remLab,
		addFrom: make([]graph.NodeID, len(c.addFrom)),
		addTo:   make([]graph.NodeID, len(c.addTo)),
		addLab:  c.addLab,
	}
	for i := range c.remFrom {
		r.remFrom[i], r.remTo[i] = m.Of(c.remFrom[i]), m.Of(c.remTo[i])
	}
	for i := range c.addFrom {
		r.addFrom[i], r.addTo[i] = m.Of(c.addFrom[i]), m.Of(c.addTo[i])
	}
	return r
}

// CompactWorkload derives the canonical compaction comparison from the
// hub-heavy ingest base: the base refrozen with CompactDeadFraction of its
// nodes tombstoned, its compacted equivalent with the remap, and matching
// delta-makers producing the same 1%-scale edge churn against each (the
// compacted side translated through the remap), so Refreeze on the two
// bases merges identical updates and the timing difference isolates the
// tombstone tax.
func CompactWorkload(seed int64) (deadBase, compacted *graph.Frozen, remap graph.Remap, mkDead, mkCompact func() *graph.Delta, err error) {
	from, to, lab := HubHeavyIngest(seed)
	base := IngestFrozen(from, to, lab)
	rng := rand.New(rand.NewSource(seed + 2))

	kill := make(map[graph.NodeID]bool, IngestNodes*3/10)
	for len(kill) < int(float64(IngestNodes)*CompactDeadFraction) {
		kill[graph.NodeID(rng.Intn(IngestNodes))] = true
	}
	d := graph.NewDelta(base)
	for v := range kill {
		d.RemoveNode(v)
	}
	deadBase = base.Refreeze(d)
	if got := deadBase.DeadFraction(); got < CompactDeadFraction*0.99 {
		return nil, nil, nil, nil, nil, fmt.Errorf("dead base carries %.0f%% tombstones, want %.0f%%", got*100, CompactDeadFraction*100)
	}
	compacted, remap = deadBase.Compact()

	var live []graph.NodeID
	for v := 0; v < deadBase.NumNodes(); v++ {
		if deadBase.Alive(graph.NodeID(v)) {
			live = append(live, graph.NodeID(v))
		}
	}
	churn := &edgeChurn{}
	for tries := 0; len(churn.remFrom) < RefreezeOps/2 && tries < RefreezeOps*64; tries++ {
		v := live[rng.Intn(len(live))]
		es := deadBase.Out(v)
		if len(es) == 0 {
			continue
		}
		e := es[rng.Intn(len(es))]
		churn.remFrom = append(churn.remFrom, e.From)
		churn.remTo = append(churn.remTo, e.To)
		churn.remLab = append(churn.remLab, e.Label)
	}
	for len(churn.addFrom) < RefreezeOps-RefreezeOps/2 {
		u, v := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
		l := lab[rng.Intn(len(lab))]
		if graph.HasEdge(deadBase, u, v, l) {
			continue
		}
		churn.addFrom = append(churn.addFrom, u)
		churn.addTo = append(churn.addTo, v)
		churn.addLab = append(churn.addLab, l)
	}
	churnC := churn.remapped(remap)
	mkDead = func() *graph.Delta {
		nd := graph.NewDelta(deadBase)
		churn.apply(nd)
		return nd
	}
	mkCompact = func() *graph.Delta {
		nd := graph.NewDelta(compacted)
		churnC.apply(nd)
		return nd
	}
	return deadBase, compacted, remap, mkDead, mkCompact, nil
}

// WALWorkloadOps is the op count of the canonical WAL stream.
const WALWorkloadOps = 2000

// WALWorkload builds the canonical durable-ingest stream: a DBpedia-profiled
// snapshot as the base and an apply function that drives the same
// WALWorkloadOps-op sampled update stream into any graph.Mutator — a bare
// Delta for the in-memory baseline, a WAL for the append measurement (the
// persisted-fixture path dataset.SampleDeltaInto exists for).
func WALWorkload(seed int64) (base *graph.Frozen, apply func(graph.Mutator)) {
	prof := dataset.DBpedia()
	base = prof.SampleFrozen(dataset.GraphConfig{Nodes: 5000, EdgesPerNode: 4, Seed: seed})
	apply = func(m graph.Mutator) { prof.SampleDeltaInto(m, WALWorkloadOps, seed+1) }
	return base, apply
}

// Persist is the repo's persistence experiment (not a paper figure):
// snapshot save/load against the from-edges rebuild, WAL append and
// recovery over the sampled update stream, and the compaction win — both
// the one-off Compact cost and Refreeze on a 30%-dead base against its
// compacted equivalent. The load and compact-refreeze rows measure the same
// workloads the CI gate's snapshot_load_speedup / compact_refreeze_speedup
// ratios are pinned on.
func Persist(cfg Config) *Report {
	cfg = cfg.withDefaults()
	// The persistence paths run in single-digit milliseconds where one
	// descheduling dwarfs the measurement; all are single-threaded and
	// deterministic, so widen the min-of-N window (same rationale and width
	// as the CI gate's incremental metrics).
	shortReps := 4*cfg.Reps + 3
	r := &Report{
		Name:   "Persist",
		Title:  "Snapshot save/load, WAL recovery, tombstone compaction",
		Header: []string{"axis", "baseline", "persist", "speedup", "scope"},
	}
	ratio := func(a, b int64) string {
		if b == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", float64(a)/float64(b))
	}

	from, to, lab := HubHeavyIngest(cfg.Seed)
	base := IngestFrozen(from, to, lab)
	img, err := SnapshotImage(base)
	if err != nil {
		r.Notes = append(r.Notes, fmt.Sprintf("snapshot workload unavailable: %v", err))
		return r
	}
	rebuild := minTime(cfg.Reps, func() { IngestFrozen(from, to, lab) })
	save := minTime(cfg.Reps, func() {
		if _, err := SnapshotImage(base); err != nil {
			panic(err)
		}
	})
	load := minTime(shortReps, func() {
		if _, err := graph.ReadSnapshot(bytes.NewReader(img)); err != nil {
			panic(err)
		}
	})
	r.Rows = append(r.Rows, []string{
		fmt.Sprintf("snapshot load %dk edges", IngestEdges/1000),
		ms(rebuild), ms(load), ratio(int64(rebuild), int64(load)),
		fmt.Sprintf("%.1f MB image", float64(len(img))/(1<<20)),
	})
	r.Rows = append(r.Rows, []string{"snapshot save", ms(rebuild), ms(save), ratio(int64(rebuild), int64(save)), "vs rebuild"})

	wbase, apply := WALWorkload(cfg.Seed)
	var log bytes.Buffer
	memT := minTime(cfg.Reps, func() { apply(graph.NewDelta(wbase)) })
	walT := minTime(cfg.Reps, func() {
		log.Reset()
		w := graph.NewWAL(&log, graph.NewDelta(wbase))
		apply(w)
		if err := w.Close(); err != nil {
			panic(err)
		}
	})
	var recovered int
	recT := minTime(shortReps, func() {
		_, stats, rerr := graph.Recover(wbase, bytes.NewReader(log.Bytes()))
		if rerr != nil {
			panic(rerr)
		}
		recovered = stats.Records
	})
	r.Rows = append(r.Rows, []string{
		fmt.Sprintf("wal append %d ops", WALWorkloadOps),
		ms(memT), ms(walT), ratio(int64(memT), int64(walT)),
		fmt.Sprintf("%d KB log", log.Len()/1024),
	})
	r.Rows = append(r.Rows, []string{
		"wal recover", ms(memT), ms(recT), ratio(int64(memT), int64(recT)),
		fmt.Sprintf("%d records", recovered),
	})

	deadBase, compacted, _, mkDead, mkCompact, err := CompactWorkload(cfg.Seed)
	if err != nil {
		r.Notes = append(r.Notes, fmt.Sprintf("compaction workload unavailable: %v", err))
		return r
	}
	compactT := minTime(shortReps, func() { deadBase.Compact() })
	dDead, dComp := mkDead(), mkCompact()
	dDead.Overlay()
	dComp.Overlay()
	deadT := minTime(shortReps, func() { deadBase.Refreeze(dDead) })
	compT := minTime(shortReps, func() { compacted.Refreeze(dComp) })
	r.Rows = append(r.Rows, []string{
		fmt.Sprintf("compact %.0f%%-dead base", CompactDeadFraction*100),
		"-", ms(compactT), "-",
		fmt.Sprintf("%d slots dropped", deadBase.NumNodes()-compacted.NumNodes()),
	})
	r.Rows = append(r.Rows, []string{
		"refreeze on compacted base", ms(deadT), ms(compT), ratio(int64(deadT), int64(compT)),
		fmt.Sprintf("V %d vs %d", deadBase.NumNodes(), compacted.NumNodes()),
	})
	r.Notes = append(r.Notes,
		"snapshot rows: baseline = Builder.Freeze from the raw edge arrays; persist = WriteSnapshot/ReadSnapshot of the binary image",
		"wal rows: baseline = the same op stream into a bare in-memory Delta; append = through graph.WAL (buffered, no fsync on a bytes.Buffer); recover = replay from the log",
		"compact rows: identical 1%-scale churn refrozen against the 30%-dead base and its compacted equivalent (IDs translated by the remap)")
	return r
}
