package core

import (
	"repro/internal/canon"
	"repro/internal/depgraph"
	"repro/internal/eq"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// SatResult reports the outcome of a satisfiability check.
type SatResult struct {
	Satisfiable bool
	// Conflict explains unsatisfiability: the attribute term forced to two
	// distinct constants.
	Conflict *eq.Conflict
	Stats    Stats
	// Err is non-nil when a parallel run ended before reaching an answer:
	// ErrCanceled or the context's deadline error after ParOptions.Ctx
	// fired, or a *PanicError when a worker panicked. Satisfiable and
	// Conflict are meaningless then, and there is no model; Stats covers the
	// work completed.
	Err error

	// What Model is built from on first call: G_Σ, the final Eq and Σ (for
	// its reserved constants) — or, once built, the model itself.
	witness struct {
		g     *graph.Graph
		eq    *eq.Eq
		set   *gfd.Set
		model *graph.Graph
	}
}

// satisfiable is the result of a run that reached quiescence without
// conflict on canonical graph g with final relation e.
func satisfiable(g *graph.Graph, e *eq.Eq, set *gfd.Set, stats Stats) *SatResult {
	r := &SatResult{Satisfiable: true, Stats: stats}
	r.witness.g, r.witness.eq, r.witness.set = g, e, set
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
// It terminates early on the first conflict.
func SeqSat(set *gfd.Set) *SatResult {
	if set.Len() == 0 {
		return emptySetResult()
	}
	cs := canon.BuildSigma(set)
	g := cs.Graph.Frozen() // G_Σ is searched as a Frozen
	e := eq.New()
	e.Reserve(int(cs.Offset[set.Len()])) // G_Σ's node count
	enf := newSeqEnforcer(e, set)

	// Process GFDs of the form Q[x̄](∅→Y) first, then follow the interaction
	// order; the pending index makes the result order-independent
	// (Church–Rosser), ordering just reduces re-checks.
	order := depgraph.OrderGFDs(set)
	for _, gi := range order {
		s := sigmaSearch(cs, set.GFDs[gi].Pattern, g)
		for s != nil {
			h, ok := s.Next()
			if !ok {
				break
			}
			if !enf.offer(gi, h) || !enf.drain() {
				return &SatResult{Satisfiable: false, Conflict: enf.conflict(), Stats: enf.stats}
			}
		}
	}
	if !enf.drain() {
		return &SatResult{Satisfiable: false, Conflict: enf.conflict(), Stats: enf.stats}
	}
	return satisfiable(cs.Graph, enf.eq, set, enf.stats)
}

// sigmaSearch returns the search SeqSat runs for p on g, the Frozen of cs:
// the default order, with the root variable drawing only on the nodes of the
// GFD copies that can host its component (canon.Sigma.Scope). The matches
// and their order are those of a search rooted in the whole label index,
// whose other roots lead nowhere. It returns nil when p has no match in G_Σ
// because some component has no host.
func sigmaSearch(cs *canon.Sigma, p *pattern.Pattern, g graph.Reader) *match.Search {
	order := match.DefaultOrder(p)
	scope, ok := cs.Scope(p, order[0])
	if !ok {
		return nil
	}
	return match.NewSearch(p, g, match.Options{Order: order, RootCandidates: scope[order[0]]})
}
