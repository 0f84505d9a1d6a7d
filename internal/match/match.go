// Package match implements homomorphism-based graph pattern matching
// (Section IV-C of the paper): VF2-style backtracking search, except
// enforcing homomorphism rather than isomorphism (two pattern variables may
// map to the same data node, and data nodes may be reused across matches).
//
// The search is exposed as a resumable iterator so the reasoning engines can
// check each match's attributes as soon as it is generated, and a search can
// be rooted in any ascending list of candidates (Options.RootCandidates), so
// the parallel engines cut their work by the root's candidates.
//
// Matches are views. Search.Next hands out the search's own assignment,
// valid until the next Next on that search and never to be
// written; whoever keeps a match past that point — a result slice, a parked
// match, a reported violation — takes an Assignment.Clone. Most matches are
// looked at once and forgotten, so enumeration itself allocates nothing per
// match. A view belongs to the goroutine driving its search.
package match

import (
	"context"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// Assignment maps pattern variables (by index) to data nodes; InvalidNode
// marks unassigned variables. A full match assigns every variable.
type Assignment []graph.NodeID

// NewAssignment returns an all-unassigned assignment for n variables.
func NewAssignment(n int) Assignment {
	a := make(Assignment, n)
	for i := range a {
		a[i] = graph.InvalidNode
	}
	return a
}

// Clone returns an independent copy: what a consumer keeps of a match it
// was handed as a view (see Search.Next).
func (a Assignment) Clone() Assignment { return append(Assignment{}, a...) }

// Complete reports whether every variable is assigned.
func (a Assignment) Complete() bool {
	for _, v := range a {
		if v == graph.InvalidNode {
			return false
		}
	}
	return true
}

// Search is a resumable backtracking enumeration of the homomorphisms of a
// pattern into a graph, following a fixed variable order. The zero value is
// not usable; construct with NewSearch.
type Search struct {
	p      *pattern.Pattern
	g      *graph.Frozen // the snapshot of NewSearch's reader
	filter func(Assignment, pattern.Var, []graph.NodeID) []graph.NodeID
	// rootCands, when non-nil, replaces the label-index candidate pull for
	// the first open variable (the root frame): the shard fan-out partitions
	// the root candidate set this way. All downstream pruning still applies.
	rootCands []graph.NodeID
	// rootPruned marks rootCands as already signature-pruned (a Plan's
	// precomputed root frame), so candidates() skips re-pruning it.
	rootPruned bool
	// vars holds per-variable pre-resolved label IDs so the inner loops
	// never hash a string: pattern edge labels aligned with p.Out/p.In, and
	// the variable's pruning signature.
	vars []varIndex

	assign Assignment
	stack  []frame
	// started is set by the first Next, which opens the root frame; later
	// calls resume from the stack.
	started bool
	done    bool
	// ctx is Options.Ctx; ctxLeft counts frame expansions down to the next
	// poll, and err records the context error that ended the enumeration.
	ctx     context.Context
	ctxLeft int
	err     error
	// scratch recycles one candidate buffer per search depth: a popped
	// frame's cands backing array is reused by the next push at that depth,
	// so steady-state backtracking allocates nothing.
	scratch [][]graph.NodeID
	// open lists the variables in order: frame d binds open[d], and a match
	// is complete at depth len(open).
	open []pattern.Var
}

type frame struct {
	v     pattern.Var
	cands []graph.NodeID
	idx   int // next candidate to try
}

// varIndex is one pattern variable's label IDs resolved against the data
// graph, computed once per Search — or once per Plan, which shares one
// resolved set across every search compiled from it.
type varIndex struct {
	labelID graph.LabelID   // the variable's node label (AnyLabel for '_')
	outIDs  []graph.LabelID // aligned with p.Out(v)
	inIDs   []graph.LabelID // aligned with p.In(v)
	sigOut  []graph.LabelID // resolved Signature.Out
	sigIn   []graph.LabelID // resolved Signature.In
	// freq and cand feed the adaptive kernel picker: the variable's label
	// frequency (candidate count) decides when galloping the label run
	// through a long adjacency beats scanning it, and cand — non-nil only
	// for high-frequency labels (Frozen.CandidateBitset) — answers the
	// label test in one word probe.
	freq int
	cand graph.Bitset
}

// resolveVars computes the per-variable index against g: the shared body
// of NewSearch and CompilePlan. The result is read-only once built, so a
// Plan can hand one copy to many concurrent searches.
func resolveVars(p *pattern.Pattern, g *graph.Frozen) []varIndex {
	vars := make([]varIndex, p.NumVars())
	for v := range vars {
		u := pattern.Var(v)
		sig := p.Signature(u)
		vx := &vars[v]
		vx.labelID = g.NodeLabelID(p.Label(u))
		vx.outIDs = resolveEdgeLabels(g, p.Out(u))
		vx.inIDs = resolveEdgeLabels(g, p.In(u))
		vx.sigOut = g.ResolveLabels(sig.Out)
		vx.sigIn = g.ResolveLabels(sig.In)
		vx.freq = g.LabelFrequency(p.Label(u))
		vx.cand = g.CandidateBitset(p.Label(u))
	}
	return vars
}

// Options configures a Search.
type Options struct {
	// Order is the variable order; defaults to DefaultOrder.
	Order []pattern.Var
	// RootCandidates, when non-nil, is the base candidate list for the first
	// open variable in Order, replacing the graph's label index for that one
	// frame. The list must be ascending and label-consistent with the
	// variable (e.g. one shard's slice of the label index); signature
	// pruning and Filter still apply on top. Running one search
	// per part of a partition of the root candidate set enumerates exactly
	// the full match set, partitioned — the basis of the sharded fan-out and
	// of the parallel engines' work units.
	RootCandidates []graph.NodeID
	// Filter, when non-nil, limits candidates further: it is handed each
	// frame's verified, duplicate-free candidate list for v, with h holding
	// the variables bound before v, and returns the candidates it keeps,
	// compacted in place and in order. h is the search's own assignment and
	// must not be written.
	Filter func(h Assignment, v pattern.Var, cands []graph.NodeID) []graph.NodeID
	// Plan, when non-nil, supplies the precompiled planning artifacts
	// (resolved label IDs, default order, pre-pruned root candidates) from
	// CompilePlan/PlanCache.Get, skipping per-search planning. The plan
	// must have been compiled for this pattern against a reader with the
	// same Snapshot; NewSearch panics on a mismatch — a stale plan must
	// never silently serve another snapshot.
	Plan *Plan
	// Ctx, when non-nil, makes the enumeration cooperatively cancelable:
	// Next polls the context once every ctxCheckEvery frame expansions —
	// cheap enough to be left on in the engines, frequent enough that even
	// a single combinatorial unit stops within a bounded number of frames —
	// and once it fires the search is permanently exhausted (Next reports
	// ok=false) with Err returning the cause. A nil Ctx is never polled.
	Ctx context.Context
}

// ctxCheckEvery is the frame-expansion period between context polls: the
// bound on extra work a cancelled enumeration performs before returning.
const ctxCheckEvery = 256

// DefaultOrder returns a connectivity-respecting order over all components:
// the pivot order from the first component's first variable, so each
// component starts at its smallest variable.
func DefaultOrder(p *pattern.Pattern) []pattern.Var {
	comps := p.Components()
	if len(comps) == 0 {
		return nil
	}
	return p.PivotOrder(comps[0][0])
}

// NewSearch builds a search over r's snapshot (graph.Reader.Snapshot): a
// search on an editable graph enumerates the graph as it was here, whatever
// edits follow.
func NewSearch(p *pattern.Pattern, r graph.Reader, opts Options) *Search {
	g := r.Snapshot()
	pl := opts.Plan
	if pl != nil {
		// Structurally equal patterns share plans (PlanCache keys by
		// fingerprint): every planning artifact — resolved labels, orders,
		// root frame — is positional, so it serves any StructuralEqual value.
		if pl.pat != p && !pattern.StructuralEqual(pl.pat, p) {
			panic("match: Options.Plan was compiled for a different pattern")
		}
		if pl.f != g {
			panic("match: stale Options.Plan: the graph changed since CompilePlan (recompile, or fetch through PlanCache.Get)")
		}
	}
	order := opts.Order
	if order == nil {
		if pl != nil {
			order = pl.defaultOrder
		} else {
			order = DefaultOrder(p)
		}
	}
	s := &Search{
		p:         p,
		g:         g,
		filter:    opts.Filter,
		rootCands: opts.RootCandidates,
		ctx:       opts.Ctx,
		ctxLeft:   ctxCheckEvery,
		assign:    NewAssignment(p.NumVars()),
		open:      order,
	}
	if pl != nil {
		s.vars = pl.vars
	} else {
		s.vars = resolveVars(p, g)
	}
	// An unpartitioned search following the plan's default order can reuse
	// the plan's precomputed root frame: the label pull plus signature
	// pruning that otherwise dominates a short query.
	if pl != nil && s.rootCands == nil &&
		len(order) > 0 && len(pl.defaultOrder) > 0 && order[0] == pl.defaultOrder[0] {
		if root := pl.root(); root != nil {
			s.rootCands = root
			s.rootPruned = true
		}
	}
	s.scratch = make([][]graph.NodeID, len(s.open))
	return s
}

// Next returns the next full match, or ok=false when the enumeration is
// exhausted. The returned assignment is a view of the search's own state:
// it is valid until the next Next call on this search, must not
// be written, and must not be handed to another goroutine. Clone it to keep
// it.
func (s *Search) Next() (Assignment, bool) {
	if s.done {
		return nil, false
	}
	if s.canceled() {
		return nil, false
	}
	if !s.started {
		s.started = true
		if len(s.open) == 0 {
			// A pattern without variables has one match: the empty one.
			s.done = true
			return s.assign, s.assign.Complete()
		}
		s.push()
	} else {
		// Resume: retract the deepest frame's current assignment and
		// advance.
		s.retractTop()
	}
	for len(s.stack) > 0 {
		if s.ctxLeft--; s.ctxLeft <= 0 && s.canceled() {
			return nil, false
		}
		top := &s.stack[len(s.stack)-1]
		if top.idx >= len(top.cands) {
			s.pop()
			if len(s.stack) == 0 {
				break
			}
			s.retractTop()
			continue
		}
		// Frames hold only verified candidates (see candidates), so the
		// next one is taken as is.
		s.assign[top.v] = top.cands[top.idx]
		top.idx++
		if len(s.stack) == len(s.open) {
			return s.assign, true
		}
		s.push()
	}
	s.done = true
	return nil, false
}

// canceled polls Options.Ctx (resetting the poll countdown) and, when the
// context has fired, latches the search exhausted with the cause in Err.
func (s *Search) canceled() bool {
	s.ctxLeft = ctxCheckEvery
	if s.ctx == nil {
		return false
	}
	if err := s.ctx.Err(); err != nil {
		s.done = true
		s.err = err
		return true
	}
	return false
}

// Err returns the context error that ended the enumeration, or nil for a
// search that ran (or is still running) to natural exhaustion.
func (s *Search) Err() error { return s.err }

// push opens a frame for the next open variable.
func (s *Search) push() {
	d := len(s.stack)
	v := s.open[d]
	s.stack = append(s.stack, frame{v: v, cands: s.candidates(v, s.scratch[d][:0])})
}

func (s *Search) retractTop() {
	top := &s.stack[len(s.stack)-1]
	s.assign[top.v] = graph.InvalidNode
}

func (s *Search) pop() {
	d := len(s.stack) - 1
	// Hand the (possibly grown) backing array back for the next push at
	// this depth.
	s.scratch[d] = s.stack[d].cands[:0]
	s.stack = s.stack[:d]
}

// candidates computes the candidate nodes for v given the current partial
// assignment: generated from an assigned pattern-neighbor's indexed
// adjacency when one exists (cheap — only edges carrying the pattern edge's
// label are visited), else from the label index; pruned by the variable's
// degree/label signature; then filtered against every pattern edge whose
// other endpoint is bound, deduplicated, and handed to Options.Filter once.
// The bound set is frozen while the frame iterates (deeper frames pop
// before this frame advances), so the returned list is fully verified and
// Next assigns from it without a per-candidate check. All filtering
// compacts buf in place, so steady-state backtracking reuses the per-depth
// scratch buffer without allocating.
func (s *Search) candidates(v pattern.Var, buf []graph.NodeID) []graph.NodeID {
	label := s.p.Label(v)
	base := buf
	// genIn/genEi record the pattern edge the candidates are generated
	// from; that edge needs no re-check. Prefer generating from an assigned
	// neighbor to keep candidate sets small.
	//
	// needDedup: an exact-label adjacency list has unique endpoints (AddEdge
	// is idempotent per (from,label,to)), so duplicates only arise when the
	// generating pattern edge is the wildcard, whose candidate list spans
	// every edge label.
	gen, needDedup, genIn, genEi := false, false, false, -1
	for ei, e := range s.p.In(v) {
		if u := s.assign[e.From]; u != graph.InvalidNode {
			needDedup = e.Label == graph.Wildcard
			base = s.expandFrom(v, base, s.g.OutByLabelID(u, s.vars[v].inIDs[ei]))
			gen, genIn, genEi = true, true, ei
			break
		}
	}
	if !gen {
		for ei, e := range s.p.Out(v) {
			if u := s.assign[e.To]; u != graph.InvalidNode {
				needDedup = e.Label == graph.Wildcard
				base = s.expandFrom(v, base, s.g.InByLabelID(u, s.vars[v].outIDs[ei]))
				gen, genIn, genEi = true, false, ei
				break
			}
		}
	}
	if !gen {
		// Fill from the label index via the appending accessor, so the
		// per-depth scratch buffer is the only storage touched. The root
		// frame (depth 0) draws from the caller-provided partition slice
		// instead when one was configured.
		prePruned := false
		if s.rootCands != nil && len(s.stack) == 0 {
			base = append(base, s.rootCands...)
			prePruned = s.rootPruned
		} else {
			base = s.g.AppendCandidates(base, label)
		}
		if !prePruned && (len(s.vars[v].sigOut) > 0 || len(s.vars[v].sigIn) > 0) {
			// Signature pruning: drop nodes whose out/in edge labels cannot
			// cover v's pattern edges. Sound (never drops a real match) and
			// applied only to unconstrained label-index sets — neighbor
			// -generated candidates are already edge-constrained, so the
			// extra probes rarely prune anything there.
			kept := base[:0]
			for _, n := range base {
				if s.covers(v, n) {
					kept = append(kept, n)
				}
			}
			base = kept
		}
	}
	// List-at-a-time, with each bound neighbor's label-filtered adjacency
	// resolved once instead of per candidate.
	base = s.filterBoundEdges(v, base, genIn, genEi)
	if needDedup {
		// Candidate lists are ascending (sorted adjacency, filters preserve
		// order), so duplicates are adjacent. Label-index candidates and
		// exact-label adjacency lists are unique by construction.
		base = dedupSorted(base)
	}
	if s.filter != nil {
		base = s.filter(s.assign, v, base)
	}
	return base
}

// dedupSorted compacts an ascending slice in place, O(n) and
// allocation-free.
func dedupSorted(ids []graph.NodeID) []graph.NodeID {
	out := ids[:0]
	last := graph.InvalidNode // never a real candidate
	for _, id := range ids {
		if id != last {
			out = append(out, id)
			last = id
		}
	}
	return out
}

// intersectSorted compacts base to the elements present in list. Both
// slices are ascending (the index keeps adjacency sorted; base is generated
// from one sorted list or the ascending label index and only ever
// compacted), so one linear merge replaces per-candidate membership probes.
func intersectSorted(base, list []graph.NodeID) []graph.NodeID {
	kept := base[:0]
	j := 0
	for _, n := range base {
		for j < len(list) && list[j] < n {
			j++
		}
		if j < len(list) && list[j] == n {
			kept = append(kept, n)
		}
	}
	return kept
}

// filterBoundEdges drops candidates violating a pattern edge between v and
// an already-assigned variable (or a self-loop at v), excluding the
// generating edge genEi. Each edge's constraint is one sorted-list
// intersection with the bound neighbor's label-filtered adjacency —
// resolved once per edge, with the kernel (merge or gallop) picked from
// the operand lengths by intersectAdaptive.
func (s *Search) filterBoundEdges(v pattern.Var, base []graph.NodeID, genIn bool, genEi int) []graph.NodeID {
	for ei, e := range s.p.Out(v) {
		if (genEi == ei && !genIn) || len(base) == 0 {
			continue
		}
		id := s.vars[v].outIDs[ei]
		if e.To == v {
			// Self-loop: candidate must carry the edge onto itself.
			kept := base[:0]
			for _, n := range base {
				if s.g.HasEdgeID(n, n, id) {
					kept = append(kept, n)
				}
			}
			base = kept
			continue
		}
		u := s.assign[e.To]
		if u == graph.InvalidNode {
			continue
		}
		base = intersectAdaptive(base, s.g.InByLabelID(u, id))
	}
	for ei, e := range s.p.In(v) {
		if (genEi == ei && genIn) || len(base) == 0 {
			continue
		}
		if e.From == v {
			continue // self-loop handled in the out pass
		}
		u := s.assign[e.From]
		if u == graph.InvalidNode {
			continue
		}
		base = intersectAdaptive(base, s.g.OutByLabelID(u, s.vars[v].inIDs[ei]))
	}
	return base
}

// resolveEdgeLabels maps pattern edges to their data-graph label IDs,
// aligned by index.
func resolveEdgeLabels(g *graph.Frozen, edges []pattern.Edge) []graph.LabelID {
	if len(edges) == 0 {
		return nil
	}
	ids := make([]graph.LabelID, len(edges))
	for i, e := range edges {
		ids[i] = g.EdgeLabelID(e.Label)
	}
	return ids
}

// covers reports whether n's adjacency covers v's pre-resolved signature.
func (s *Search) covers(v pattern.Var, n graph.NodeID) bool {
	return s.g.CoversIDs(n, s.vars[v].sigOut, s.vars[v].sigIn)
}

// CountAll exhausts the search and returns the number of matches. Intended
// for tests.
func (s *Search) CountAll() int {
	n := 0
	for {
		if _, ok := s.Next(); !ok {
			return n
		}
		n++
	}
}

// FindAll enumerates every homomorphism of p into g, each an independent
// copy. Intended for small patterns (tests, sequential reasoning on
// canonical graphs).
func FindAll(p *pattern.Pattern, g graph.Reader) []Assignment {
	return FindAllOpts(p, g, Options{})
}
