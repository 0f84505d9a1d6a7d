// Workloads of the CI gate's persistence metrics: the snapshot image behind
// snapshot_load_speedup and the tombstone-heavy base behind
// compact_refreeze_speedup.
package bench

import (
	"bytes"
	"fmt"
	"math/rand"

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
