// Compiled query plans. Planning a search — resolving every pattern label
// against the graph's interned tables, deriving the default order, picking
// pivots, pulling and signature-pruning the root candidate frame — costs
// more than executing a short selective query, and the service workloads
// repeat the same patterns against the same snapshot. A Plan captures all
// of it once; a PlanCache keys plans by pattern structure and revalidates
// them against the reader's snapshot epoch on every fetch, so a Refreeze
// or Compact (which mint new epochs) makes cached plans unreachable with
// no invalidation hooks: the stale plan simply never matches again and is
// recompiled on first use.
package match

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// Plan is the reusable planning artifact for one (pattern, graph-contents)
// pair: resolved label IDs and frequencies per variable, the default and
// per-pivot variable orders, and the lazily materialized, signature-pruned
// root candidate frame. Plans are immutable after CompilePlan and safe to
// share across concurrent searches. A Plan is bound to the contents it was
// compiled against: NewSearch re-checks that binding and panics on a
// stale plan (see validFor).
type Plan struct {
	pat *pattern.Pattern
	// g is the reader the plan was compiled against; the binding is its
	// epoch, so any reader serving that epoch may use the plan (a Frozen and
	// its Sharded view, an editable graph and the Frozen it reads through).
	g     graph.Reader
	epoch uint64

	vars         []varIndex
	defaultOrder []pattern.Var
	pivots       []pattern.Var
	pivotOrders  [][]pattern.Var // aligned with pivots

	// rootOnce materializes rootCands on first use: the label pull plus
	// signature pruning for defaultOrder's first variable. Lazy because
	// engine workloads seed every search and never open a root frame.
	rootOnce  sync.Once
	rootCands []graph.NodeID
}

// CompilePlan resolves p against g and returns the plan. A reader without
// an epoch gets a plan no NewSearch accepts.
func CompilePlan(p *pattern.Pattern, g graph.Reader) *Plan {
	pl := &Plan{pat: p, g: g, epoch: epochOf(g)}
	pl.vars = resolveVars(p, g)
	pl.defaultOrder = DefaultOrder(p)
	pl.pivots = p.Pivot(g)
	pl.pivotOrders = make([][]pattern.Var, len(pl.pivots))
	for i, pv := range pl.pivots {
		pl.pivotOrders[i] = p.PivotOrder(pv)
	}
	return pl
}

// epochOf returns the epoch of the snapshot g answers from, 0 when g has
// none (epochs start at 1).
func epochOf(g graph.Reader) uint64 {
	if ev, ok := g.(graph.EpochView); ok {
		return ev.Epoch()
	}
	return 0
}

// validFor reports whether the plan may serve g: g must carry the epoch the
// plan was compiled at.
func (pl *Plan) validFor(g graph.Reader) bool {
	return pl.epoch != 0 && pl.epoch == epochOf(g)
}

// Pattern returns the pattern the plan was compiled for.
func (pl *Plan) Pattern() *pattern.Pattern { return pl.pat }

// Epoch returns the snapshot epoch the plan is bound to.
func (pl *Plan) Epoch() uint64 { return pl.epoch }

// Pivots returns the precomputed pivot per connected component (the result
// of pattern.Pivot against the plan's graph). Callers must not mutate the
// slice.
func (pl *Plan) Pivots() []pattern.Var { return pl.pivots }

// OrderFor returns the precomputed engine order for a unit pivoted at pv
// (pv's component first, then the remaining components — pattern.PivotOrder).
// A pv outside the plan's pivot set is computed on the fly.
func (pl *Plan) OrderFor(pv pattern.Var) []pattern.Var {
	for i, cand := range pl.pivots {
		if cand == pv {
			return pl.pivotOrders[i]
		}
	}
	return pl.pat.PivotOrder(pv)
}

// root returns the signature-pruned candidate list for the default order's
// root variable, materialized once. nil when the pattern has no variables
// or the root label has no candidates (callers fall back to the normal
// pull, which finds the same nothing).
func (pl *Plan) root() []graph.NodeID {
	pl.rootOnce.Do(func() {
		if len(pl.defaultOrder) == 0 {
			return
		}
		v := pl.defaultOrder[0]
		cands := pl.g.AppendCandidates(nil, pl.pat.Label(v))
		vx := &pl.vars[v]
		if len(vx.sigOut) > 0 || len(vx.sigIn) > 0 {
			kept := cands[:0]
			for _, n := range cands {
				if pl.g.CoversIDs(n, vx.sigOut, vx.sigIn) {
					kept = append(kept, n)
				}
			}
			cands = kept
		}
		pl.rootCands = cands
	})
	return pl.rootCands
}

// PlanCache memoizes one Plan per pattern structure, revalidated against
// the reader's epoch on every Get. The map is keyed by pattern fingerprint
// with the full structural-equality check behind the hash (see
// pattern.StructuralEqual), so two structurally identical pattern values —
// e.g. the same rule shape parsed from different GFDs — share one compiled
// plan, and a 64-bit hash collision can never serve a plan across patterns
// that differ. The cache stays bounded at one entry per live pattern
// structure; a new snapshot epoch overwrites in place rather than
// accumulating. Safe for concurrent use.
type PlanCache struct {
	mu    sync.RWMutex
	plans map[uint64][]*Plan // fingerprint → structurally distinct plans
}

// NewPlanCache returns an empty cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{plans: make(map[uint64][]*Plan)}
}

// lookup scans a fingerprint bucket for p's structural entry. Callers hold
// the lock.
func (c *PlanCache) lookup(fp uint64, p *pattern.Pattern) (int, *Plan) {
	for i, pl := range c.plans[fp] {
		if pl.pat == p || pattern.StructuralEqual(pl.pat, p) {
			return i, pl
		}
	}
	return -1, nil
}

// Get returns a plan for (p, g), reusing the cached one when its epoch
// matches g's and recompiling (and replacing the entry) otherwise — the
// automatic invalidation path for Refreeze, Compact and an edited editable
// graph, whose snapshots carry fresh epochs.
func (c *PlanCache) Get(p *pattern.Pattern, g graph.Reader) *Plan {
	fp := p.Fingerprint()
	c.mu.RLock()
	_, pl := c.lookup(fp, p)
	c.mu.RUnlock()
	if pl != nil && pl.validFor(g) {
		return pl
	}
	pl = CompilePlan(p, g)
	c.mu.Lock()
	if i, _ := c.lookup(fp, p); i >= 0 {
		c.plans[fp][i] = pl
	} else {
		c.plans[fp] = append(c.plans[fp], pl)
	}
	c.mu.Unlock()
	return pl
}

// Len returns the number of cached plans (one per pattern structure).
func (c *PlanCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, bucket := range c.plans {
		n += len(bucket)
	}
	return n
}
