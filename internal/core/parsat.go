package core

import (
	"errors"
	"slices"

	"repro/internal/canon"
	"repro/internal/eq"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// ParSat decides the satisfiability of Σ with p parallel workers
// (Section V-B). G_Σ is the disjoint union of Σ's patterns, and every term a
// match of a connected pattern reads or writes is an attribute of one of its
// nodes, so the chase on one copy of G_Σ never touches another copy's terms:
// Eq is a disjoint union of per-copy relations. ParSat cuts the copies into
// chunks (chunks) and hands them to the worker pool as tasks. Eq is one
// table over G_Σ's nodes × Σ's attribute names, sized before the pool
// starts; a worker chases each chunk it takes on its own view of it
// (eq.Eq.View). Chunks are term-disjoint, so no worker reads a slot another
// writes, and nothing is broadcast or replayed. A conflict in any chunk is
// the answer, UNSAT, and halts the pool — the first chunk to conflict names
// it, so at p ≥ 2 the conflict named may differ between runs while the
// verdict does not; quiescence is SAT, and the witness model is completed
// from the one table. The outcome does not depend on p (Church–Rosser).
// Chunks only give the p workers tasks, and every (group, chunk) piece pays
// a search set-up, so a chunk holds ⌈|Σ|/p⌉ copies: p workers get at most p
// chunks, and one worker chases G_Σ as one chunk — that run is SeqSat.
//
// A disconnected pattern whose literals reach past its pivot's component
// couples the copies its components can lie in, and coupled copies share a
// chunk. A Σ whose coupling puts most of G_Σ in one chunk is chased by
// essentially one worker, and gets no speedup.
func ParSat(set *gfd.Set, opt ParOptions) *SatResult {
	if set.Len() == 0 {
		return emptySetResult()
	}
	p := max(opt.Workers, 1)
	return newSatEngine(opt, set).sat((set.Len() + p - 1) / p)
}

// newSatEngine returns the engine of ParSat on Σ: G_Σ, searched as a Frozen
// and scoped by its host index.
func newSatEngine(opt ParOptions, set *gfd.Set) *parEngine {
	cs := canon.BuildSigma(set)
	eng := newParEngine(opt, set, cs.Graph.Frozen())
	eng.sigma = cs
	return eng
}

// sat runs ParSat's chase over chunks of size copies on e, the planned
// engine of G_Σ.
func (e *parEngine) sat(size int) *SatResult {
	if err := e.planGroups(); err != nil {
		return &SatResult{Err: err}
	}
	tasks, _ := e.chunks(size)
	tasks = slices.DeleteFunc(tasks, func(t []unit) bool { return len(t) == 0 })
	rel := eq.New()
	base := newEnforcer(rel, e.set, e.g.NumNodes())
	pl := newPool(e.ctx, e.opt.Workers)
	enfs := make([]*enforcer, pl.size())
	for w := range enfs {
		enfs[w] = base.view()
		if h := e.opt.testHookTerm; h != nil {
			enfs[w].testHookTerm = func(n graph.NodeID) { h(w, n) }
		}
	}
	err := pl.run(len(tasks), func(w, i int) error {
		if h := e.opt.testHookTask; h != nil {
			h(w, tasks[i])
		}
		enf := enfs[w]
		for _, u := range tasks[i] {
			if pl.stopping() {
				return nil
			}
			enf.stats.UnitsRun++
			s := e.search(u)
			for h, ok := s.Next(); ok; h, ok = s.Next() {
				if !e.chaseMatch(enf, u.grp, h) {
					// The answer, not a failure: it takes the pool's
					// first-failure slot, so siblings stop, and a conflict
					// found before a cancellation still answers the run.
					return enf.conflict()
				}
			}
		}
		return nil
	})
	var stats Stats
	for _, enf := range enfs {
		stats.Add(enf.stats)
	}
	stats.GroupsShared = e.sharedGroups
	var con *eq.Conflict
	switch {
	case errors.As(err, &con):
		return &SatResult{Conflict: con, Stats: stats}
	case err != nil:
		return &SatResult{Err: err, Stats: stats}
	}
	return satisfiable(e.g, rel, e.set, stats)
}

// chunks cuts G_Σ's copies into ParSat's tasks. Copies are taken in
// ascending order, size at a time, except that a copy coupled to an earlier
// one (coupling) joins that one's chunk. tasks[k] holds, for every group in
// groupOrder, the part of the group's pivot candidates that falls in chunk
// k; chunk[n] is the chunk of G_Σ node n. Candidates are ascending and
// copies are contiguous node ranges, so one pass per group distributes all
// of its roots, each part still ascending. A task may be empty.
func (e *parEngine) chunks(size int) (tasks [][]unit, chunk []int32) {
	cs := e.sigma
	n := len(cs.Offset) - 1
	uf := e.coupling()
	chunkOf := make([]int32, n) // by union-find root: 1 + its chunk
	chunk = make([]int32, cs.Offset[n])
	var sizes []int
	for c := range int32(n) {
		r := uf.find(c)
		if chunkOf[r] == 0 {
			if len(sizes) == 0 || sizes[len(sizes)-1] >= size {
				sizes = append(sizes, 0)
			}
			chunkOf[r] = int32(len(sizes))
		}
		k := chunkOf[r] - 1
		sizes[k]++
		for v := cs.Offset[c]; v < cs.Offset[c+1]; v++ {
			chunk[v] = k
		}
	}
	tasks = make([][]unit, len(sizes))
	for _, gi := range e.groupOrder() {
		roots := e.roots[gi]
		for lo := 0; lo < len(roots); {
			k := chunk[roots[lo]]
			hi := lo + 1
			for hi < len(roots) && chunk[roots[hi]] == k {
				hi++
			}
			// A coupled chunk may take a group's roots in several runs;
			// the first is a view of the candidates, capped so that
			// appending the others copies it.
			if t := tasks[k]; len(t) > 0 && t[len(t)-1].grp == gi {
				t[len(t)-1].roots = append(t[len(t)-1].roots, roots[lo:hi]...)
			} else {
				tasks[k] = append(t, unit{grp: gi, roots: roots[lo:hi:hi]})
			}
			lo = hi
		}
	}
	return tasks, chunk
}

// coupling returns the union-find over G_Σ's copies that chunks must not
// cut. A match of a connected pattern lies in one copy. A match of a
// disconnected one maps each component into a copy that can host it
// (canon.Sigma.Hosts), and the chase reads and writes the terms of the
// components its literals mention. When they mention a component other
// than the pivot's, the match's chunk, found through the pivot, must hold
// those terms too: every copy that can host the pivot's component or a
// mentioned one is put in one class.
func (e *parEngine) coupling() copyUnion {
	uf := make(copyUnion, len(e.sigma.Offset)-1)
	for c := range uf {
		uf[c] = int32(c)
	}
	for gi, grp := range e.groups {
		pat := grp.Pattern
		comps := pat.Components()
		if len(comps) == 1 || e.roots[gi] == nil {
			continue
		}
		compOf := make([]int, pat.NumVars())
		for k, comp := range comps {
			for _, v := range comp {
				compOf[v] = k
			}
		}
		pivot := compOf[e.orders[gi][0]]
		mentioned := make([]bool, len(comps))
		across := false
		mark := func(v pattern.Var) {
			mentioned[compOf[v]] = true
			across = across || compOf[v] != pivot
		}
		for _, mi := range grp.Members {
			phi := e.set.GFDs[mi]
			for _, l := range slices.Concat(phi.X, phi.Y) {
				mark(l.X)
				if l.Kind == gfd.VarLiteral {
					mark(l.Y)
				}
			}
		}
		if !across {
			continue
		}
		mentioned[pivot] = true
		first := int32(-1)
		for k, comp := range comps {
			if !mentioned[k] {
				continue
			}
			for _, c := range e.sigma.Hosts(pat, comp) {
				if first < 0 {
					first = c
				}
				uf.union(first, c)
			}
		}
	}
	return uf
}

// copyUnion is a union-find over G_Σ's copies: uf[c] is c's parent.
type copyUnion []int32

func (uf copyUnion) find(c int32) int32 {
	for uf[c] != c {
		uf[c] = uf[uf[c]] // path halving
		c = uf[c]
	}
	return c
}

func (uf copyUnion) union(a, b int32) { uf[uf.find(a)] = uf.find(b) }
