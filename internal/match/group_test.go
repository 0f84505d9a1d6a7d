package match_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// rebuildPattern returns a structurally identical pattern value with fresh
// variable names.
func rebuildPattern(p *pattern.Pattern) *pattern.Pattern {
	q := pattern.New()
	for v := 0; v < p.NumVars(); v++ {
		q.AddVar(fmt.Sprintf("rb%d", v), p.Label(pattern.Var(v)))
	}
	for _, e := range p.Edges() {
		q.AddEdge(e.From, e.To, e.Label)
	}
	q.Freeze()
	return q
}

// orderedMatches enumerates a pattern standalone under its default order,
// keeping enumeration order.
func orderedMatches(p *pattern.Pattern, g graph.Reader) []string {
	s := match.NewSearch(p, g, match.Options{})
	var out []string
	for {
		h, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, fmt.Sprint(h))
	}
	return out
}

// prefixChainPatterns builds distinct patterns whose match orders open with
// the same two frames (a -e-> b) and diverge at the third.
func prefixChainPatterns() []*pattern.Pattern {
	mk := func(thirdLabel, edgeLabel string) *pattern.Pattern {
		p := pattern.New()
		x := p.AddVar("x", "a")
		y := p.AddVar("y", "b")
		z := p.AddVar("z", thirdLabel)
		p.AddEdge(x, y, "e")
		p.AddEdge(y, z, edgeLabel)
		p.Freeze()
		return p
	}
	return []*pattern.Pattern{mk("c", "f"), mk("d", "f"), mk("c", "g")}
}

// familyGraph holds matches for all three chain patterns.
func familyGraph() *graph.Graph {
	g := graph.New()
	var as, bs, cs, ds []graph.NodeID
	for i := 0; i < 3; i++ {
		as = append(as, g.AddNode("a"))
		bs = append(bs, g.AddNode("b"))
		cs = append(cs, g.AddNode("c"))
		ds = append(ds, g.AddNode("d"))
	}
	for i := 0; i < 3; i++ {
		g.AddEdge(as[i], bs[i], "e")
		g.AddEdge(bs[i], cs[i], "f")
		g.AddEdge(bs[i], ds[(i+1)%3], "f")
		g.AddEdge(bs[i], cs[(i+2)%3], "g")
	}
	return g
}

// TestEnumerateGroupedFamily: distinct patterns sharing two leading frames
// produce exactly their standalone match sequences, in order.
func TestEnumerateGroupedFamily(t *testing.T) {
	pats := prefixChainPatterns()
	g := familyGraph()
	f := g.Frozen()
	readers := map[string]graph.Reader{"mutable": g, "frozen": f, "sharded": f.Sharded(3)}
	for name, r := range readers {
		groups := make([]match.PatternGroup, len(pats))
		for i, p := range pats {
			groups[i] = match.PatternGroup{Pattern: p}
		}
		got := make([][]string, len(pats))
		_, err := match.EnumerateGrouped(context.Background(), r, groups, func(gi int, h match.Assignment) bool {
			got[gi] = append(got[gi], fmt.Sprint(h))
			return true
		})
		if err != nil {
			t.Fatalf("%s: EnumerateGrouped: %v", name, err)
		}
		nonEmpty := 0
		for i, p := range pats {
			want := orderedMatches(p, r)
			if len(want) > 0 {
				nonEmpty++
			}
			if fmt.Sprint(got[i]) != fmt.Sprint(want) {
				t.Fatalf("%s pattern#%d: grouped %v, standalone %v", name, i, got[i], want)
			}
		}
		if nonEmpty == 0 {
			t.Fatalf("%s: all patterns empty; test is vacuous", name)
		}
	}
}

// TestEnumerateGroupedGen is the randomized property: on generated pattern
// sets (some rebuilt copies, some genuinely distinct), grouped enumeration
// equals standalone enumeration per group, in order, on every reader tier.
func TestEnumerateGroupedGen(t *testing.T) {
	nonEmpty := 0
	for seed := int64(1); seed <= 5; seed++ {
		gr := gen.New(gen.Config{N: 12, K: 4, L: 2, WildcardRate: 0.2, Seed: seed})
		f := gr.ConsistentGraph(50)
		g := mutableCopy(f)
		d := graph.NewDelta(f)
		d.AddEdge(0, 1, f.Label(0))
		readers := map[string]graph.Reader{
			"mutable": g, "frozen": f, "sharded": f.Sharded(3), "overlay": d.Overlay(),
		}
		var pats []*pattern.Pattern
		for i := 0; i < 6; i++ {
			p := gr.Pattern()
			pats = append(pats, p, rebuildPattern(p))
		}
		for name, r := range readers {
			groups := make([]match.PatternGroup, len(pats))
			for i, p := range pats {
				groups[i] = match.PatternGroup{Pattern: p}
			}
			got := make([][]string, len(pats))
			_, err := match.EnumerateGrouped(context.Background(), r, groups, func(gi int, h match.Assignment) bool {
				got[gi] = append(got[gi], fmt.Sprint(h))
				return true
			})
			if err != nil {
				t.Fatalf("seed=%d %s: EnumerateGrouped: %v", seed, name, err)
			}
			for i, p := range pats {
				want := orderedMatches(p, r)
				if len(want) > 0 {
					nonEmpty++
				}
				if fmt.Sprint(got[i]) != fmt.Sprint(want) {
					t.Fatalf("seed=%d %s pattern#%d %s: grouped %v, standalone %v",
						seed, name, i, p, got[i], want)
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every generated pattern had an empty match set; property is vacuous")
	}
}

// TestEnumerateGroupedCancel checks cooperative cancellation propagates out
// of the per-group searches.
func TestEnumerateGroupedCancel(t *testing.T) {
	pats := prefixChainPatterns()
	g := familyGraph().Frozen()
	ctx, cancel := context.WithCancel(context.Background())
	groups := make([]match.PatternGroup, len(pats))
	for i, p := range pats {
		groups[i] = match.PatternGroup{Pattern: p}
	}
	calls := 0
	_, err := match.EnumerateGrouped(ctx, g, groups, func(int, match.Assignment) bool {
		calls++
		cancel()
		return true
	})
	// The cancellation may land between frame-expansion polls, so either the
	// enumeration finished (tiny graph) or it surfaced the context error;
	// what it must not do is return an error while never having been called.
	if err != nil && calls == 0 {
		t.Fatalf("error %v before any emission", err)
	}
	if err != nil && err != context.Canceled {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestLiteralEval pins the compiled literal program against the naive
// walk semantics: missing attributes fail the literal, constants compare
// by value, variable literals need both sides present and equal — and
// slots are interned (one per distinct pair, not one per occurrence). A
// scratch that reads value columns answers the same.
func TestLiteralEval(t *testing.T) {
	g := graph.New()
	n0 := g.AddNode("a")
	n1 := g.AddNode("b")
	g.SetAttr(n0, "k", "v")
	g.SetAttr(n1, "k", "v")
	g.SetAttr(n1, "m", "w")

	members := []match.MemberLiterals{
		{ // X: x.k = "v" → Y: y.m = "w"  (holds, no violation)
			X: []match.LiteralSpec{{IsConst: true, V1: 0, A1: "k", Const: "v"}},
			Y: []match.LiteralSpec{{IsConst: true, V1: 1, A1: "m", Const: "w"}},
		},
		{ // X: x.k = y.k → Y: x.m = y.m  (x.m missing → violation)
			X: []match.LiteralSpec{{V1: 0, A1: "k", V2: 1, A2: "k"}},
			Y: []match.LiteralSpec{{V1: 0, A1: "m", V2: 1, A2: "m"}},
		},
		{ // X: x.missing = "q" → Y: anything  (X fails → no violation)
			X: []match.LiteralSpec{{IsConst: true, V1: 0, A1: "missing", Const: "q"}},
			Y: []match.LiteralSpec{{IsConst: true, V1: 0, A1: "k", Const: "other"}},
		},
	}
	e := match.CompileLiterals(members)
	for _, columns := range []bool{false, true} {
		s := e.NewScratch()
		if columns {
			s = e.NewColumnScratch()
		}
		f := g.Frozen()
		h := match.Assignment{n0, n1}
		want := []bool{false, true, false}
		for m, w := range want {
			if got := e.Violates(m, f, h, s); got != w {
				t.Fatalf("columns=%t member %d: Violates=%t, want %t", columns, m, got, w)
			}
		}
		// Second match with different bindings must not see stale slots, with
		// no Begin in between.
		h2 := match.Assignment{n1, n0}
		// member 1: X: n1.k = n0.k holds; Y: n1.m = n0.m → n0.m missing → violation.
		if !e.Violates(1, f, h2, s) {
			t.Fatal("stale scratch: member 1 should violate under swapped bindings")
		}
		// member 0: X: n1.k="v" holds; Y: n0.m="w" → missing → violation.
		if !e.Violates(0, f, h2, s) {
			t.Fatal("stale scratch: member 0 should violate under swapped bindings")
		}
	}
}

// TestPlanCacheStructuralHit is the satellite contract: two structurally
// equal but distinct pattern values hit one cached plan, and the shared
// plan serves searches for both values.
func TestPlanCacheStructuralHit(t *testing.T) {
	gr := gen.New(gen.Config{N: 8, K: 3, L: 2, Seed: 7})
	f := gr.ConsistentGraph(30)
	p := gr.Pattern()
	q := rebuildPattern(p)
	if p == q || !pattern.StructuralEqual(p, q) {
		t.Fatal("fixture broken: need distinct, structurally equal values")
	}

	cache := match.NewPlanCache()
	pl := cache.Get(p, f)
	if pl2 := cache.Get(q, f); pl2 != pl {
		t.Fatal("structurally equal pattern missed the cached plan")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d plans for one structure, want 1", cache.Len())
	}
	// The shared plan must serve searches for both pattern values, and both
	// must enumerate the same match set.
	a := matchSet(p, f, match.Options{Plan: pl})
	b := matchSet(q, f, match.Options{Plan: pl})
	diffSets(t, "shared plan across equal patterns", a, b)

	// The stale-snapshot contract is unchanged by fingerprint keying.
	d := graph.NewDelta(f)
	d.AddEdge(0, 1, f.Label(0))
	nf := f.Refreeze(d)
	expectStalePanic(t, "refreeze via structural key", func() {
		match.NewSearch(q, nf, match.Options{Plan: pl})
	})
	if npl := cache.Get(q, nf); npl == pl {
		t.Fatal("cache served a stale plan across Refreeze")
	}
	if cache.Len() != 1 {
		t.Fatalf("Refreeze grew the cache to %d entries, want in-place replace", cache.Len())
	}
}
