package core

import (
	"repro/internal/eq"
	"repro/internal/gfd"
	"repro/internal/graph"
)

// SatResult reports the outcome of a satisfiability check.
type SatResult struct {
	Satisfiable bool
	// Conflict explains unsatisfiability: the attribute term forced to two
	// distinct constants.
	Conflict *eq.Conflict
	Stats    Stats
	// Err is non-nil when a run ended before reaching an answer:
	// ErrCanceled or the context's deadline error after ParOptions.Ctx
	// fired, or a *PanicError when a worker panicked. Satisfiable and
	// Conflict are meaningless then, and there is no model; Stats covers the
	// work completed.
	Err error

	// What Model is built from on first call: G_Σ, the final relation (the
	// one table every worker's view wrote) and Σ (for its reserved
	// constants) — or, once built, the model itself.
	witness struct {
		g     *graph.Graph
		eq    *eq.Eq
		set   *gfd.Set
		model *graph.Graph
	}
}

// satisfiable is the result of a run that reached quiescence without
// conflict on canonical graph g with final relation rel.
func satisfiable(g *graph.Graph, rel *eq.Eq, set *gfd.Set, stats Stats) *SatResult {
	r := &SatResult{Satisfiable: true, Stats: stats}
	r.witness.g, r.witness.eq, r.witness.set = g, rel, set
	return r
}

// emptySetResult answers for Σ = ∅, which any nonempty graph satisfies.
func emptySetResult() *SatResult {
	r := &SatResult{Satisfiable: true}
	r.witness.model = graph.New()
	r.witness.model.AddNode("v")
	return r
}

// Model returns a witness model — a Σ-bounded population of G_Σ — when Σ is
// satisfiable, nil otherwise. Deciding satisfiability does not need it, so
// it is built on the first call: F^Σ_A is completed by giving every
// uninstantiated class a fresh distinct constant (Section IV-C(c)). Not safe
// for concurrent use.
func (r *SatResult) Model() *graph.Graph {
	w := &r.witness
	if w.model == nil && w.eq != nil {
		w.model = CompleteModel(w.g, w.eq, w.set.Constants())
		w.g, w.eq, w.set = nil, nil, nil
	}
	return w.model
}

// SeqSat decides whether Σ is satisfiable (Section IV-C).
//
// By the small model property (Theorem 1), Σ is satisfiable iff some
// Σ-bounded population of the canonical graph G_Σ is a model. SeqSat builds
// G_Σ, enforces every GFD on every match of its pattern in G_Σ — expanding
// the equivalence relation Eq with Rules 1 and 2 and parking matches whose
// antecedents are not yet instantiated in an inverted index — and reports
// unsatisfiable exactly when a class is forced to two distinct constants.
// It terminates early on the first conflict. It is ParSat on one worker,
// which chases all of G_Σ as one chunk.
func SeqSat(set *gfd.Set) *SatResult {
	return ParSat(set, DefaultParOptions(1))
}
