package core

import (
	"repro/internal/canon"
	"repro/internal/gfd"
	"repro/internal/graph"
)

// ParSat decides the satisfiability of Σ with p parallel workers
// (Section V-B). It is parallel scalable relative to SeqSat: work units —
// one per (pattern, pivot candidate) — are assigned dynamically in
// dependency order by the worker pool, stragglers are split on a TTL, and
// workers exchange monotone Eq deltas asynchronously. The outcome equals
// SeqSat's on every input (Church–Rosser).
func ParSat(set *gfd.Set, opt ParOptions) *SatResult {
	if set.Len() == 0 {
		m := graph.New()
		m.AddNode("v")
		return &SatResult{Satisfiable: true, Model: m}
	}
	cs := canon.BuildSigma(set)
	con, _, final, stats, err := newParEngine(opt, set, cs.Graph).run()
	if err != nil {
		return &SatResult{Err: err, Stats: stats}
	}
	if con != nil {
		return &SatResult{Satisfiable: false, Conflict: con, Stats: stats}
	}
	// At quiescence every worker applied the whole broadcast log, so the
	// returned relation is the converged global Eq; complete it into a
	// witness model exactly as SeqSat does.
	var model *graph.Graph
	if final != nil {
		model = CompleteModel(cs.Graph, final, set.Constants())
	}
	return &SatResult{Satisfiable: true, Model: model, Stats: stats}
}
