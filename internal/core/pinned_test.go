package core

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
)

// TestEngineCountsPinned pins what the four engines enumerate, enforce and
// schedule on one generated Σ to the numbers recorded at the commit before
// G_Σ and G^X_Q were searched as Frozen snapshots: a change of the graph
// representation under the engines must not move a single match, nor the
// verdicts. A ParImp unit is one pattern group with pivot candidates, so
// its units column counts those groups of Σ′; its chase takes the units in
// order, so even a run that stops at the goal does the same work at every p.
// A ParSat unit is a group's part of one chunk of G_Σ's copies, and a chunk
// holds ⌈200/p⌉ of this Σ's copies: at p = 1 its units column counts the
// groups that have pivot candidates (186), and at p = 2 and 4 the (group,
// chunk) pieces, 307 and 499. SeqSat and SeqImp are ParSat and ParImp on
// one worker, so their rows equal p = 1's.
func TestEngineCountsPinned(t *testing.T) {
	gr := gen.New(gen.Config{N: 200, K: 6, L: 5, Profile: dataset.DBpedia(), WildcardRate: 0.3, Seed: 1})
	set := gr.Set()
	nonImplied := gr.NonImpliedGFD()
	implied := gr.ImpliedGFD(set)

	check := func(name string, got Stats, matches, enforcements, units int) {
		t.Helper()
		if got.Matches != matches || got.Enforcements != enforcements || got.UnitsRun != units {
			t.Errorf("%s: matches/enforcements/units = %d/%d/%d, recorded %d/%d/%d",
				name, got.Matches, got.Enforcements, got.UnitsRun, matches, enforcements, units)
		}
	}

	if r := SeqSat(set); !r.Satisfiable {
		t.Error("SeqSat: Σ reported unsatisfiable")
	} else {
		check("SeqSat", r.Stats, 3696, 1290, 186)
	}
	if r := SeqImp(set, nonImplied); r.Implied {
		t.Errorf("SeqImp: non-implied target reported implied (%v)", r.Reason)
	} else {
		check("SeqImp non-implied", r.Stats, 44, 5, 15)
	}
	if r := SeqImp(set, implied); r.Reason != ImpliedByDeduction {
		t.Errorf("SeqImp: implied target: %v", r.Reason)
	} else {
		check("SeqImp implied", r.Stats, 1, 1, 1)
	}
	for _, p := range []int{1, 2, 4} {
		opt := DefaultParOptions(p)
		if r := ParSat(set, opt); r.Err != nil || !r.Satisfiable {
			t.Errorf("ParSat p=%d: satisfiable=%v err=%v", p, r.Satisfiable, r.Err)
		} else {
			check(fmt.Sprintf("ParSat p=%d", p), r.Stats, 3696, 1290, map[int]int{1: 186, 2: 307, 4: 499}[p])
		}
		if r := ParImp(set, nonImplied, opt); r.Err != nil || r.Implied {
			t.Errorf("ParImp p=%d: non-implied target: implied=%v err=%v", p, r.Implied, r.Err)
		} else {
			check(fmt.Sprintf("ParImp p=%d non-implied", p), r.Stats, 44, 5, 15)
		}
		if r := ParImp(set, implied, opt); r.Err != nil || r.Reason != ImpliedByDeduction {
			t.Errorf("ParImp p=%d: implied target: %v err=%v", p, r.Reason, r.Err)
		} else {
			check(fmt.Sprintf("ParImp p=%d implied", p), r.Stats, 1, 1, 1)
		}
	}
}
