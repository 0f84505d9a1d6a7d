// Compiled query plans. Planning a search — resolving every pattern label
// against the graph's interned tables, deriving the default order, picking
// pivots, pulling and signature-pruning the root candidate frame — costs
// more than executing a short selective query, and the service workloads
// repeat the same patterns against the same snapshot. A Plan captures all
// of it once; a PlanCache keys plans by pattern structure and revalidates
// them against the reader's snapshot (graph.Reader.Snapshot) on every fetch,
// so a Refreeze, a Compact or an edited graph (each a new *Frozen) makes
// cached plans unreachable with no invalidation hooks: the stale plan simply
// never matches again and is recompiled on first use.
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
// stale plan.
type Plan struct {
	pat *pattern.Pattern
	// f is the snapshot the plan was compiled against, so any reader with
	// that Snapshot may use the plan (a Frozen and its Sharded view, an
	// editable graph and the Frozen it reads through).
	f *graph.Frozen

	vars         []varIndex
	defaultOrder []pattern.Var
	pivots       []pattern.Var
	pivotOrders  [][]pattern.Var // aligned with pivots

	// rootOnce materializes rootCands on first use: the label pull plus
	// signature pruning for defaultOrder's first variable. Lazy because
	// engines root every search in their own candidate lists instead.
	rootOnce  sync.Once
	rootCands []graph.NodeID
}

// CompilePlan resolves p against g's snapshot and returns the plan.
func CompilePlan(p *pattern.Pattern, g graph.Reader) *Plan {
	f := g.Snapshot()
	pl := &Plan{pat: p, f: f}
	pl.vars = resolveVars(p, f)
	pl.defaultOrder = DefaultOrder(p)
	pl.pivots = p.Pivot(f)
	pl.pivotOrders = make([][]pattern.Var, len(pl.pivots))
	for i, pv := range pl.pivots {
		pl.pivotOrders[i] = p.PivotOrder(pv)
	}
	return pl
}

// Pattern returns the pattern the plan was compiled for.
func (pl *Plan) Pattern() *pattern.Pattern { return pl.pat }

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
		cands := pl.f.AppendCandidates(nil, pl.pat.Label(v))
		vx := &pl.vars[v]
		if len(vx.sigOut) > 0 || len(vx.sigIn) > 0 {
			kept := cands[:0]
			for _, n := range cands {
				if pl.f.CoversIDs(n, vx.sigOut, vx.sigIn) {
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
// the reader's snapshot on every Get. The map is keyed by pattern fingerprint
// with the full structural-equality check behind the hash (see
// pattern.StructuralEqual), so two structurally identical pattern values —
// e.g. the same rule shape parsed from different GFDs — share one compiled
// plan, and a 64-bit hash collision can never serve a plan across patterns
// that differ. The cache stays bounded at one entry per live pattern
// structure; a new snapshot overwrites in place rather than accumulating.
// Safe for concurrent use: concurrent Gets on one snapshot return one plan.
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

// Get returns a plan for (p, g), reusing the cached one when it was
// compiled on g's snapshot and recompiling (and replacing the entry)
// otherwise — the automatic invalidation path for Refreeze, Compact and an
// edited editable graph, each of which reads through a new snapshot.
func (c *PlanCache) Get(p *pattern.Pattern, g graph.Reader) *Plan {
	f := g.Snapshot()
	fp := p.Fingerprint()
	c.mu.RLock()
	_, pl := c.lookup(fp, p)
	c.mu.RUnlock()
	if pl != nil && pl.f == f {
		return pl
	}
	pl = CompilePlan(p, f)
	c.mu.Lock()
	defer c.mu.Unlock()
	switch i, cur := c.lookup(fp, p); {
	case i < 0:
		c.plans[fp] = append(c.plans[fp], pl)
	case cur.f == f:
		return cur // a concurrent Get cached one first: every caller gets it
	default:
		c.plans[fp][i] = pl
	}
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
