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
		g := gr.ConsistentGraph(50)
		f := g.Frozen()
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
// slots are interned (one per distinct pair, not one per occurrence).
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
	s := e.NewScratch()
	h := match.Assignment{n0, n1}
	want := []bool{false, true, false}
	for m, w := range want {
		if got := e.Violates(m, g, h, s); got != w {
			t.Fatalf("member %d: Violates=%t, want %t", m, got, w)
		}
	}
	// Second match with different bindings must not see stale slots, with
	// no Begin in between.
	h2 := match.Assignment{n1, n0}
	// member 1: X: n1.k = n0.k holds; Y: n1.m = n0.m → n0.m missing → violation.
	if !e.Violates(1, g, h2, s) {
		t.Fatal("stale scratch: member 1 should violate under swapped bindings")
	}
	// member 0: X: n1.k="v" holds; Y: n0.m="w" → missing → violation.
	if !e.Violates(0, g, h2, s) {
		t.Fatal("stale scratch: member 0 should violate under swapped bindings")
	}
}

type attrKey struct {
	v    graph.NodeID
	attr graph.AttrID
}

// attrCounter is a snapshot that counts the attribute loads of a literal
// program per (node, attribute).
type attrCounter struct {
	*graph.Frozen
	reads map[attrKey]int
}

func (c *attrCounter) AttrAt(v graph.NodeID, a graph.AttrID) graph.ValueID {
	c.reads[attrKey{v, a}]++
	return c.Frozen.AttrAt(v, a)
}

// loads returns how often v's attribute named attr was loaded.
func (c *attrCounter) loads(v graph.NodeID, attr string) int {
	return c.reads[attrKey{v, c.AttrNameID(attr)}]
}

// TestLiteralScratchNodeMemo pins the scratch's memo: a slot is re-read
// exactly when the match binds its variable to a different node than the
// one it last read, a new reader is read afresh, and a member whose
// antecedent fails early loads nothing after that literal.
func TestLiteralScratchNodeMemo(t *testing.T) {
	g := graph.New()
	x0, x1 := g.AddNode("a"), g.AddNode("a")
	y0, y1 := g.AddNode("b"), g.AddNode("b")
	g.SetAttr(x0, "A", "p")
	g.SetAttr(x1, "A", "q")
	g.SetAttr(y0, "B", "p")
	g.SetAttr(y1, "B", "q")
	// Z and C exist in the graph, so their loads are counted apart.
	z := g.AddNode("c")
	g.SetAttr(z, "Z", "z")
	g.SetAttr(z, "C", "c")
	e := match.CompileLiterals([]match.MemberLiterals{
		// ∅ → x.A = y.B
		{Y: []match.LiteralSpec{{V1: 0, A1: "A", V2: 1, A2: "B"}}},
		// x.Z = "never" → y.C = "c": x.Z is missing, so y.C is never reached.
		{
			X: []match.LiteralSpec{{IsConst: true, V1: 0, A1: "Z", Const: "never"}},
			Y: []match.LiteralSpec{{IsConst: true, V1: 1, A1: "C", Const: "c"}},
		},
	})
	s := e.NewScratch()
	r := &attrCounter{Frozen: g.Frozen(), reads: map[attrKey]int{}}
	step := func(r graph.Reader, x, y graph.NodeID, want bool) {
		t.Helper()
		h := match.Assignment{x, y}
		if got := e.Violates(0, r, h, s); got != want {
			t.Fatalf("(%d,%d): member 0 violates = %t, want %t", x, y, got, want)
		}
		if e.Violates(1, r, h, s) {
			t.Fatalf("(%d,%d): member 1 violates with a failing antecedent", x, y)
		}
	}

	// x stays at x0 across three matches: x0.A is read once.
	step(r, x0, y0, false)
	step(r, x0, y1, true)
	step(r, x0, y0, false)
	if n := r.loads(x0, "A"); n != 1 {
		t.Fatalf("x fixed across 3 matches: x0.A read %d times, want 1", n)
	}
	if n := r.loads(y0, "B"); n != 2 {
		t.Fatalf("y0 → y1 → y0: y0.B read %d times, want 2", n)
	}

	// x0 → x1 → x0 re-reads at every change, and the values follow.
	step(r, x1, y1, false)
	step(r, x0, y1, true)
	if n := r.loads(x0, "A"); n != 2 {
		t.Fatalf("x0 → x1 → x0: x0.A read %d times, want 2", n)
	}
	if n := r.loads(x1, "A"); n != 1 {
		t.Fatalf("x0 → x1 → x0: x1.A read %d times, want 1", n)
	}
	if n := r.loads(x0, "Z"); n != 2 {
		t.Fatalf("x0.Z read %d times, want 2 (once per stretch of x = x0)", n)
	}
	c := r.AttrNameID("C")
	for k, n := range r.reads {
		if k.attr == c {
			t.Fatalf("short-circuited member loaded %d.C %d times, want never", k.v, n)
		}
	}

	// The same match on another reader reads that reader: on g2, x0.A =
	// y1.B, so the violation the scratch still holds for g is gone.
	g2 := g.Clone()
	g2.SetAttr(x0, "A", "q")
	r2 := &attrCounter{Frozen: g2.Frozen(), reads: map[attrKey]int{}}
	step(r2, x0, y1, false)
	if r2.loads(x0, "A") != 1 || r2.loads(y1, "B") != 1 {
		t.Fatalf("on a new reader: reads %v, want x0.A and y1.B once each", r2.reads)
	}
	// Begin forgets the values but keeps the binding: the next match reads
	// r2 again.
	s.Begin()
	step(r2, x0, y1, false)
	if r2.loads(x0, "A") != 2 || r2.loads(y1, "B") != 2 {
		t.Fatalf("after Begin: reads %v, want x0.A and y1.B twice each", r2.reads)
	}
}

// TestPlanCacheStructuralHit is the satellite contract: two structurally
// equal but distinct pattern values hit one cached plan, and the shared
// plan serves searches for both values.
func TestPlanCacheStructuralHit(t *testing.T) {
	gr := gen.New(gen.Config{N: 8, K: 3, L: 2, Seed: 7})
	g := gr.ConsistentGraph(30)
	f := g.Frozen()
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

	// The stale-epoch contract is unchanged by fingerprint keying.
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
