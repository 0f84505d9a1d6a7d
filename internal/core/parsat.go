package core

import (
	"repro/internal/canon"
	"repro/internal/eq"
	"repro/internal/gfd"
)

// ParSat decides the satisfiability of Σ with p parallel workers
// (Section V-B). It is parallel scalable relative to SeqSat: work units —
// ranges of a pattern group's pivot candidates in its G_Σ scope — are
// assigned dynamically in dependency order by the worker pool, stragglers
// are split on a TTL, and workers exchange monotone Eq deltas
// asynchronously. The outcome equals SeqSat's on every input
// (Church–Rosser).
func ParSat(set *gfd.Set, opt ParOptions) *SatResult {
	if set.Len() == 0 {
		return emptySetResult()
	}
	cs := canon.BuildSigma(set)
	base := eq.New()
	base.Reserve(int(cs.Offset[set.Len()])) // so every worker's clone makes its columns once
	eng := newParEngine(opt, set, cs.Graph.Frozen(), base)
	eng.sigma = cs
	con, _, final, stats, err := eng.run()
	if err != nil {
		return &SatResult{Err: err, Stats: stats}
	}
	if con != nil {
		return &SatResult{Satisfiable: false, Conflict: con, Stats: stats}
	}
	// At quiescence every worker applied the whole broadcast log, so the
	// returned relation is the converged global Eq; the witness model is
	// completed from it exactly as SeqSat's is.
	return satisfiable(cs.Graph, final, set, stats)
}
