package pattern_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// refMatchOrder is the map-based component order PivotOrder replaced: from
// start, repeatedly the unplaced variable of start's component with the
// most placed neighbors, ties toward lower index.
func refMatchOrder(p *pattern.Pattern, start pattern.Var) []pattern.Var {
	var comp []pattern.Var
	for _, c := range p.Components() {
		if slices.Contains(c, start) {
			comp = c
		}
	}
	order := []pattern.Var{start}
	placed := map[pattern.Var]bool{start: true}
	for len(order) < len(comp) {
		best, bestScore := pattern.InvalidVar, -1
		for _, v := range comp {
			if placed[v] {
				continue
			}
			score := 0
			for _, e := range p.Out(v) {
				if placed[e.To] {
					score++
				}
			}
			for _, e := range p.In(v) {
				if placed[e.From] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		order = append(order, best)
		placed[best] = true
	}
	return order
}

// refPivotOrder is the map-based PivotOrder: pv's component first, then
// every other component from its first variable.
func refPivotOrder(p *pattern.Pattern, pv pattern.Var) []pattern.Var {
	order := refMatchOrder(p, pv)
	seen := make(map[pattern.Var]bool, len(order))
	for _, v := range order {
		seen[v] = true
	}
	for _, comp := range p.Components() {
		if !seen[comp[0]] {
			order = append(order, refMatchOrder(p, comp[0])...)
		}
	}
	return order
}

// union returns the disjoint union of a and b, a's variables first: a
// disconnected pattern.
func union(a, b *pattern.Pattern) *pattern.Pattern {
	u := pattern.New()
	for _, p := range []*pattern.Pattern{a, b} {
		off := pattern.Var(u.NumVars())
		for v := 0; v < p.NumVars(); v++ {
			u.AddVar(fmt.Sprintf("u%d", u.NumVars()), p.Label(pattern.Var(v)))
		}
		for _, e := range p.Edges() {
			u.AddEdge(off+e.From, off+e.To, e.Label)
		}
	}
	return u
}

// TestPivotOrderMatchesReference holds PivotOrder, at every variable of
// every pattern of generated Σs, and match.DefaultOrder to the map-based
// orders they replaced: connected patterns with wildcards, disjoint unions
// of two of them, and unions with an isolated wildcard variable.
func TestPivotOrderMatchesReference(t *testing.T) {
	lone := pattern.New()
	lone.AddVar("lone", graph.Wildcard)
	checked := 0
	for seed := int64(1); seed <= 4; seed++ {
		set := gen.New(gen.Config{N: 150, K: 6, L: 3, WildcardRate: 0.3, Seed: seed}).Set()
		prev := lone
		for _, phi := range set.GFDs {
			q := phi.Pattern
			for _, p := range []*pattern.Pattern{q, union(prev, q), union(q, lone)} {
				for v := 0; v < p.NumVars(); v++ {
					if got, want := p.PivotOrder(pattern.Var(v)), refPivotOrder(p, pattern.Var(v)); !slices.Equal(got, want) {
						t.Fatalf("PivotOrder(%d) of %s = %v, reference %v", v, p, got, want)
					}
					checked++
				}
				var want []pattern.Var
				for _, comp := range p.Components() {
					want = append(want, refMatchOrder(p, comp[0])...)
				}
				if got := match.DefaultOrder(p); !slices.Equal(got, want) {
					t.Fatalf("DefaultOrder of %s = %v, reference %v", p, got, want)
				}
			}
			prev = q
		}
	}
	t.Logf("%d pivot orders checked", checked)
}

// TestPivotOrderAllocations pins PivotOrder on a frozen pattern to its
// result and one placed slice, whatever the number of components.
func TestPivotOrderAllocations(t *testing.T) {
	gr := gen.New(gen.Config{N: 20, K: 6, L: 3, WildcardRate: 0.3, Seed: 3})
	p := union(union(gr.Pattern(), gr.Pattern()), gr.Pattern())
	p.Freeze()
	pv := pattern.Var(p.NumVars() - 1)
	if n := testing.AllocsPerRun(100, func() { p.PivotOrder(pv) }); n > 2 {
		t.Fatalf("PivotOrder allocates %v times, want at most 2", n)
	}
}
