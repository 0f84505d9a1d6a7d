package gfd_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/gfdio"
	"repro/internal/pattern"
)

func chainPattern(labels ...string) *pattern.Pattern {
	p := pattern.New()
	var prev pattern.Var
	for i, l := range labels {
		v := p.AddVar(string(rune('a'+i)), l)
		if i > 0 {
			p.AddEdge(prev, v, "e")
		}
		prev = v
	}
	return p
}

// TestSetGroups pins the grouping semantics: same pattern value groups,
// structurally equal distinct values group, structurally different patterns
// do not, and both group order and member order follow Σ order.
func TestSetGroups(t *testing.T) {
	shared := chainPattern("a", "b")
	sharedCopy := chainPattern("a", "b") // distinct value, equal structure
	other := chainPattern("a", "c")

	set := gfd.NewSet(
		gfd.MustNew("g0", shared, nil, []gfd.Literal{gfd.Const(0, "k", "v")}),
		gfd.MustNew("g1", other, nil, []gfd.Literal{gfd.Const(0, "k", "v")}),
		gfd.MustNew("g2", sharedCopy, nil, []gfd.Literal{gfd.Const(1, "k", "w")}),
		gfd.MustNew("g3", shared, []gfd.Literal{gfd.Const(0, "k", "v")}, []gfd.Literal{gfd.Const(1, "k", "w")}),
	)
	groups := set.Groups()
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2: %+v", len(groups), groups)
	}
	if groups[0].Pattern != shared {
		t.Fatal("group 0 representative is not the first member's pattern value")
	}
	wantMembers := [][]int{{0, 2, 3}, {1}}
	for gi, want := range wantMembers {
		got := groups[gi].Members
		if len(got) != len(want) {
			t.Fatalf("group %d members %v, want %v", gi, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("group %d members %v, want %v", gi, got, want)
			}
		}
	}
}

// salted returns a generated Σ with, after some GFDs, a copy whose pattern
// has fresh variable names and its edges in another order (the same
// structure), and after others a copy with its variables renumbered
// (another structure, unless the permutation fixes every label and edge).
func salted(seed int64, n int) *gfd.Set {
	rng := rand.New(rand.NewSource(seed))
	base := gen.New(gen.Config{N: n, K: 6, L: 5, WildcardRate: 0.3, Seed: seed}).Set()
	set := gfd.NewSet()
	for i, phi := range base.GFDs {
		set.Add(phi)
		p := phi.Pattern
		perm := make([]int, p.NumVars())
		for v := range perm {
			perm[v] = v
		}
		switch rng.Intn(3) {
		case 0:
			continue
		case 2:
			perm = rng.Perm(p.NumVars())
		}
		q := pattern.New()
		old := make([]pattern.Var, len(perm))
		for v, w := range perm {
			old[w] = pattern.Var(v)
		}
		for w, v := range old {
			q.AddVar(fmt.Sprintf("s%d_%d", i, w), p.Label(v))
		}
		edges := p.Edges()
		for _, j := range rng.Perm(len(edges)) {
			q.AddEdge(pattern.Var(perm[edges[j].From]), pattern.Var(perm[edges[j].To]), edges[j].Label)
		}
		set.Add(gfd.MustNew(phi.Name+"-copy", q, nil, []gfd.Literal{gfd.Const(0, "k", "v")}))
	}
	return set
}

// TestGroupsMatchesPairwise holds Groups to the naive bucketing it stands
// for: each GFD joins the first group whose representative is
// StructuralEqual to its pattern, or opens a new group.
func TestGroupsMatchesPairwise(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		set := salted(seed, 300)
		var want []gfd.Group
		for i, phi := range set.GFDs {
			found := -1
			for gi, g := range want {
				if pattern.StructuralEqual(g.Pattern, phi.Pattern) {
					found = gi
					break
				}
			}
			if found < 0 {
				found = len(want)
				want = append(want, gfd.Group{Pattern: phi.Pattern})
			}
			want[found].Members = append(want[found].Members, i)
		}
		got := set.Groups()
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d groups, pairwise bucketing gives %d", seed, len(got), len(want))
		}
		for gi := range want {
			if got[gi].Pattern != want[gi].Pattern || !slices.Equal(got[gi].Members, want[gi].Members) {
				t.Fatalf("seed %d: group %d = %v, pairwise bucketing gives %v", seed, gi, got[gi].Members, want[gi].Members)
			}
		}
		if len(want) == set.Len() || len(want) <= set.Len()/2 {
			t.Fatalf("seed %d: %d groups of %d GFDs: the salt shares nothing or too much", seed, len(want), set.Len())
		}
	}
}

// TestGroupsAllocations pins the grouping of a freshly parsed |Σ| = 1600
// set, as every run of the command line pays it, below four allocations
// per GFD: no allocation per fingerprint, no copy per confirmed match.
func TestGroupsAllocations(t *testing.T) {
	var buf bytes.Buffer
	if err := gfdio.WriteGFDs(&buf, gen.New(gen.Config{N: 1600, K: 6, L: 5, WildcardRate: 0.3, Seed: 1}).Set()); err != nil {
		t.Fatal(err)
	}
	set, err := gfdio.ReadGFDs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	groups := set.Groups()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d groups of %d GFDs: %d allocations", len(groups), set.Len(), allocs)
	if allocs >= uint64(4*set.Len()) {
		t.Fatalf("Groups allocates %d times for %d GFDs, want fewer than 4 per GFD", allocs, set.Len())
	}
}
