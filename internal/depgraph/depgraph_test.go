package depgraph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/pattern"
)

func mk(label string, x []gfd.Literal, y []gfd.Literal) *gfd.GFD {
	p := pattern.New()
	p.AddVar("x", label)
	return gfd.MustNew("g", p, x, y)
}

func TestOrderGFDsEmptyXFirst(t *testing.T) {
	a := mk("a", []gfd.Literal{gfd.Const(0, "A", "1")}, []gfd.Literal{gfd.Const(0, "B", "1")})
	b := mk("a", nil, []gfd.Literal{gfd.Const(0, "A", "1")})
	set := gfd.NewSet(a, b)
	order := OrderGFDs(set)
	if order[0] != 1 {
		t.Errorf("order = %v; the ∅-antecedent GFD must come first", order)
	}
}

func TestOrderGFDsTopological(t *testing.T) {
	// c writes C; b reads C writes B; a reads B. All nonempty X so the
	// partition doesn't reorder. Expect c before b before a.
	a := mk("a", []gfd.Literal{gfd.Const(0, "B", "1")}, []gfd.Literal{gfd.Const(0, "Z", "1")})
	b := mk("a", []gfd.Literal{gfd.Const(0, "C", "1")}, []gfd.Literal{gfd.Const(0, "B", "1")})
	c := mk("a", []gfd.Literal{gfd.Const(0, "D", "1")}, []gfd.Literal{gfd.Const(0, "C", "1")})
	set := gfd.NewSet(a, b, c)
	order := OrderGFDs(set)
	pos := make(map[int]int)
	for i, g := range order {
		pos[g] = i
	}
	if !(pos[2] < pos[1] && pos[1] < pos[0]) {
		t.Errorf("order = %v; want writer-before-reader (c,b,a)", order)
	}
}

func TestOrderGFDsCycleTerminates(t *testing.T) {
	// a and b feed each other: SCC condensation must still give a total
	// order containing both.
	a := mk("a", []gfd.Literal{gfd.Const(0, "A", "1")}, []gfd.Literal{gfd.Const(0, "B", "1")})
	b := mk("a", []gfd.Literal{gfd.Const(0, "B", "1")}, []gfd.Literal{gfd.Const(0, "A", "1")})
	order := OrderGFDs(gfd.NewSet(a, b))
	if len(order) != 2 {
		t.Fatalf("cyclic order = %v", order)
	}
}

// A variable literal mentions two attributes; a reader of either must come
// after the writer.
func TestOrderGFDsVarLiteralBothSides(t *testing.T) {
	p := pattern.New()
	p.AddVar("x", "a")
	p.AddVar("y", "b")
	readerB := mk("b", []gfd.Literal{gfd.Const(0, "B", "1")}, []gfd.Literal{gfd.Const(0, "Z", "1")})
	writer := gfd.MustNew("w", p, []gfd.Literal{gfd.Const(0, "D", "1")}, []gfd.Literal{gfd.Vars(0, "A", 1, "B")})
	if order := OrderGFDs(gfd.NewSet(readerB, writer)); order[0] != 1 {
		t.Errorf("order = %v; the var literal's rhs attribute was not seen as written", order)
	}
}

// refAttrs, refOrderGFDs and refTopoSCC are the order OrderGFDs replaced:
// per-GFD attribute slices and one map per component of the component DAG.
func refAttrs(ls []gfd.Literal) []string {
	var out []string
	for _, l := range ls {
		out = append(out, l.A)
		if l.Kind == gfd.VarLiteral {
			out = append(out, l.B)
		}
	}
	return out
}

func refOrderGFDs(set *gfd.Set) []int {
	n := set.Len()
	attrID := make(map[string]int)
	id := func(a string) int {
		if v, ok := attrID[a]; ok {
			return v
		}
		v := n + len(attrID)
		attrID[a] = v
		return v
	}
	var edges []edge
	for i, g := range set.GFDs {
		for _, a := range refAttrs(g.Y) {
			edges = append(edges, edge{i, id(a)})
		}
		for _, a := range refAttrs(g.X) {
			edges = append(edges, edge{id(a), i})
		}
	}
	total := n + len(attrID)
	adj := make([][]int, total)
	for _, e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	var front, back []int
	for _, i := range refTopoSCC(total, adj) {
		if i >= n {
			continue
		}
		if len(set.GFDs[i].X) == 0 {
			front = append(front, i)
		} else {
			back = append(back, i)
		}
	}
	return append(front, back...)
}

func refTopoSCC(n int, adj [][]int) []int {
	comp := tarjan(n, adj)
	nc := 0
	for _, c := range comp {
		nc = max(nc, c+1)
	}
	cadj := make([]map[int]bool, nc)
	indeg := make([]int, nc)
	for i := range cadj {
		cadj[i] = make(map[int]bool)
	}
	for u := 0; u < n; u++ {
		for _, v := range adj[u] {
			if comp[u] != comp[v] && !cadj[comp[u]][comp[v]] {
				cadj[comp[u]][comp[v]] = true
				indeg[comp[v]]++
			}
		}
	}
	members := make([][]int, nc)
	for i := 0; i < n; i++ {
		members[comp[i]] = append(members[comp[i]], i)
	}
	for _, m := range members {
		sort.Ints(m)
	}
	// Kahn, each step taking the ready component with the smallest member.
	var ready, order []int
	for c := 0; c < nc; c++ {
		if indeg[c] == 0 {
			ready = append(ready, c)
		}
	}
	for len(ready) > 0 {
		best := 0
		for i, c := range ready {
			if members[c][0] < members[ready[best]][0] {
				best = i
			}
		}
		c := ready[best]
		ready = slices.Delete(ready, best, best+1)
		order = append(order, members[c]...)
		for d := range cadj[c] {
			indeg[d]--
			if indeg[d] == 0 {
				ready = append(ready, d)
			}
		}
	}
	return order
}

// randomSet draws n single-variable GFDs over a pool of few attributes, so
// writers and readers meet often and close cycles of every length; about
// one in four has an empty antecedent, and one literal in three is a
// variable literal.
func randomSet(rng *rand.Rand, n int) *gfd.Set {
	names := []string{"A", "B", "C", "D", "E", "F"}
	lits := func(k int) []gfd.Literal {
		var ls []gfd.Literal
		for range k {
			a := names[rng.Intn(len(names))]
			if rng.Intn(3) == 0 {
				ls = append(ls, gfd.Vars(0, a, 0, names[rng.Intn(len(names))]))
			} else {
				ls = append(ls, gfd.Const(0, a, "1"))
			}
		}
		return ls
	}
	set := gfd.NewSet()
	for range n {
		var x []gfd.Literal
		if rng.Intn(4) > 0 {
			x = lits(1 + rng.Intn(3))
		}
		set.Add(mk("a", x, lits(1+rng.Intn(2))))
	}
	return set
}

// TestOrderGFDsMatchesReference holds OrderGFDs to the map-based order it
// replaced: on generated Σs at several seeds, on random sets dense in
// cycles, and on the hand-built sets of the tests above.
func TestOrderGFDsMatchesReference(t *testing.T) {
	var sets []*gfd.Set
	for seed := int64(1); seed <= 4; seed++ {
		sets = append(sets, gen.New(gen.Config{N: 400, K: 6, L: 5, WildcardRate: 0.3, EmptyXRate: 0.1, Seed: seed}).Set())
	}
	rng := rand.New(rand.NewSource(5))
	for range 300 {
		sets = append(sets, randomSet(rng, 1+rng.Intn(30)))
	}
	a := mk("a", []gfd.Literal{gfd.Const(0, "A", "1")}, []gfd.Literal{gfd.Const(0, "B", "1")})
	b := mk("a", []gfd.Literal{gfd.Const(0, "B", "1")}, []gfd.Literal{gfd.Const(0, "A", "1")})
	c := mk("a", []gfd.Literal{gfd.Const(0, "C", "1")}, []gfd.Literal{gfd.Const(0, "B", "1")})
	d := mk("a", nil, []gfd.Literal{gfd.Const(0, "A", "1")})
	sets = append(sets, gfd.NewSet(a, b), gfd.NewSet(c, a, b), gfd.NewSet(b, d, c, a), gfd.NewSet())
	for i, set := range sets {
		if got, want := OrderGFDs(set), refOrderGFDs(set); !slices.Equal(got, want) {
			t.Fatalf("set %d (|Σ| = %d): OrderGFDs = %v, reference %v", i, set.Len(), got, want)
		}
	}
}
