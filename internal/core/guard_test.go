package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// guardTree is a data tree for the three-variable path x -e-> y -e-> z:
// four a-nodes x0–x3, each with two b-children, each with two c-children,
// 16 matches. x_i.A is i mod 2, and every b- and c-node's B is its child
// index (0 or 1); the c-nodes also carry gfd.FalseAttr = gfd.FalseConst0,
// so half of a `then false` consequent holds there.
func guardTree() *graph.Frozen {
	b := graph.NewBuilder(0)
	for i := 0; i < 4; i++ {
		x := b.AddNode("a")
		b.SetAttr(x, "A", fmt.Sprint(i%2))
		for j := 0; j < 2; j++ {
			y := b.AddNode("b")
			b.SetAttr(y, "B", fmt.Sprint(j))
			b.AddEdge(x, y, "e")
			for k := 0; k < 2; k++ {
				z := b.AddNode("c")
				b.SetAttr(z, "B", fmt.Sprint(k))
				b.SetAttr(z, gfd.FalseAttr, gfd.FalseConst0)
				b.AddEdge(y, z, "e")
			}
		}
	}
	return b.Freeze()
}

// guardPath is guardTree's pattern, x -e-> y -e-> z, searched in that order.
func guardPath() (*pattern.Pattern, pattern.Var, pattern.Var, pattern.Var) {
	p := pattern.New()
	x, y, z := p.AddVar("x", "a"), p.AddVar("y", "b"), p.AddVar("z", "c")
	p.AddEdge(x, y, "e")
	p.AddEdge(y, z, "e")
	return p, x, y, z
}

// guardKept enumerates the one pattern group of set in g with its literal
// guard on from the first frame, and returns the candidates the guard kept
// at each search depth, summed over the frames there: the last entry is the
// matches delivered. It fails unless the violations found are the oracle's.
func guardKept(t *testing.T, g *graph.Frozen, set *gfd.Set) []int {
	t.Helper()
	groups := set.Groups()
	if len(groups) != 1 {
		t.Fatalf("%d groups, want 1", len(groups))
	}
	grp := groups[0]
	byGFD := make([][]Violation, set.Len())
	c := newGroupCheck(set, grp, g, 0, context.Background(), byGFD)
	c.scr = c.prog.NewColumnScratch()
	order := match.DefaultOrder(grp.Pattern)
	guard := c.prog.Guard(order)
	kept := make([]int, len(order))
	s := match.NewSearch(grp.Pattern, g, match.Options{Order: order, Filter: func(h match.Assignment, v pattern.Var, cands []graph.NodeID) []graph.NodeID {
		out := guard.Filter(g, c.scr, h, v, cands)
		kept[slices.Index(order, v)] += len(out)
		return out
	}})
	for h, ok := s.Next(); ok; h, ok = s.Next() {
		c.check(h)
	}
	if !sameAsOracle(g, set, slices.Concat(byGFD...)) {
		t.Fatalf("guarded violations differ from the oracle's")
	}
	return kept
}

// TestLiteralGuardPrunesDecidedY: a member whose Y is decided at the root
// variable, and holds there, is refuted at the root, so the guard drops
// the x-nodes with A = 1 and their whole subtrees.
func TestLiteralGuardPrunesDecidedY(t *testing.T) {
	p, x, _, _ := guardPath()
	set := gfd.NewSet(gfd.MustNew("y-at-root", p, nil, []gfd.Literal{gfd.Const(x, "A", "1")}))
	if got, want := guardKept(t, guardTree(), set), []int{2, 4, 8}; !slices.Equal(got, want) {
		t.Fatalf("kept per depth %v, want %v", got, want)
	}
}

// TestLiteralGuardKeepsLiveMember: one member no prefix refutes keeps the
// subtree. Beside the root-refuted member, a member with X y.B = "0" and
// Y x.A = z.B keeps every x. Below an x the first member refutes, y's frame
// keeps the y with B = 0, and z's frame the z with B ≠ x.A: x.A = z.B is
// decided at z, never earlier.
func TestLiteralGuardKeepsLiveMember(t *testing.T) {
	p, x, y, z := guardPath()
	set := gfd.NewSet(
		gfd.MustNew("y-at-root", p, nil, []gfd.Literal{gfd.Const(x, "A", "1")}),
		gfd.MustNew("y-at-leaf", p, []gfd.Literal{gfd.Const(y, "B", "0")}, []gfd.Literal{gfd.Vars(x, "A", z, "B")}),
	)
	// Violating matches: x.A = 0 (8), plus x.A = 1, y.B = 0, z.B = 0 (2).
	if got, want := guardKept(t, guardTree(), set), []int{4, 6, 10}; !slices.Equal(got, want) {
		t.Fatalf("kept per depth %v, want %v", got, want)
	}
}

// TestLiteralGuardEmptyYPrunesGroup: a member with an empty Y can never be
// violated, so a group of such members keeps no root candidate, whatever
// its antecedents.
func TestLiteralGuardEmptyYPrunesGroup(t *testing.T) {
	p, x, y, _ := guardPath()
	set := gfd.NewSet(
		gfd.MustNew("empty", p, nil, nil),
		gfd.MustNew("empty-when", p, []gfd.Literal{gfd.Const(x, "A", "0"), gfd.Const(y, "B", "1")}, nil),
	)
	if got, want := guardKept(t, guardTree(), set), []int{0, 0, 0}; !slices.Equal(got, want) {
		t.Fatalf("kept per depth %v, want %v", got, want)
	}
}

// TestLiteralGuardFalseNeverPrunesOnY: `then false` never holds, even on
// nodes carrying one of its two literals, so only X prunes: a false
// member keeps every match its antecedent holds at.
func TestLiteralGuardFalseNeverPrunesOnY(t *testing.T) {
	p, x, _, z := guardPath()
	// The consequent's literals sit on variable 0, x; z carries half of it.
	always, err := gfd.NewFalse("false", p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := guardKept(t, guardTree(), gfd.NewSet(always)), []int{4, 8, 16}; !slices.Equal(got, want) {
		t.Fatalf("false: kept per depth %v, want %v", got, want)
	}
	p, x, _, z = guardPath()
	when, err := gfd.NewFalse("false-when", p, []gfd.Literal{gfd.Const(x, "A", "1"), gfd.Const(z, "B", "1")})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := guardKept(t, guardTree(), gfd.NewSet(when)), []int{2, 4, 4}; !slices.Equal(got, want) {
		t.Fatalf("false with X: kept per depth %v, want %v", got, want)
	}
	p, _, _, z = guardPath()
	onZ := gfd.MustNew("false-on-z", p, nil, []gfd.Literal{gfd.Const(z, gfd.FalseAttr, gfd.FalseConst0), gfd.Const(z, gfd.FalseAttr, gfd.FalseConst1)})
	if got, want := guardKept(t, guardTree(), gfd.NewSet(onZ)), []int{4, 8, 16}; !slices.Equal(got, want) {
		t.Fatalf("false on z: kept per depth %v, want %v", got, want)
	}
}

// violationsInput decodes fuzz bytes into a data graph and a Σ. The graph
// has 1–12 nodes labelled a or b, each with attributes A and B absent, "0"
// or "1", and up to 24 edges labelled e or f, self-loops and parallel edges
// included. Σ has 1–6 GFDs. Each has a pattern of 1–4 variables labelled
// a, b or the wildcard, with up to 4 edges labelled e, f or the wildcard,
// self-loops included, so a pattern with few edges is disconnected; from
// the second GFD on, it may repeat an earlier GFD's pattern instead, which
// makes a group of several members. X has up to 3 literals. Y is `false`,
// empty, or 1–2 literals. A literal is x.A = c or x.A = y.B, which may
// cross components or be x.A = x.A. It leaves the rest of the bytes in r;
// violationsSeed spells an input out.
func violationsInput(r *fuzzBytes) (*graph.Frozen, *gfd.Set) {
	next := r.next
	vals, attrs := []string{"0", "1"}, []string{"A", "B"}
	b := graph.NewBuilder(0)
	n := 1 + next(12)
	for i := 0; i < n; i++ {
		v := b.AddNode([]string{"a", "b"}[next(2)])
		for _, a := range attrs {
			if k := next(3); k > 0 {
				b.SetAttr(v, a, vals[k-1])
			}
		}
	}
	for e := next(25); e > 0; e-- {
		b.AddEdge(graph.NodeID(next(n)), graph.NodeID(next(n)), []string{"e", "f"}[next(2)])
	}
	lits := func(k, vars int) []gfd.Literal {
		var out []gfd.Literal
		for ; k > 0; k-- {
			x, a := pattern.Var(next(vars)), attrs[next(2)]
			if next(2) == 0 {
				out = append(out, gfd.Const(x, a, vals[next(2)]))
			} else {
				out = append(out, gfd.Vars(x, a, pattern.Var(next(vars)), attrs[next(2)]))
			}
		}
		return out
	}
	set := gfd.NewSet()
	for i, k := 0, 1+next(6); i < k; i++ {
		var p *pattern.Pattern
		if i > 0 && next(2) == 1 {
			p = set.GFDs[next(i)].Pattern
		} else {
			p = pattern.New()
			vars := 1 + next(4)
			for v := 0; v < vars; v++ {
				p.AddVar(fmt.Sprintf("v%d", v), []string{"a", "b", graph.Wildcard}[next(3)])
			}
			for e := next(5); e > 0; e-- {
				p.AddEdge(pattern.Var(next(vars)), pattern.Var(next(vars)), []string{"e", "f", graph.Wildcard}[next(3)])
			}
		}
		vars, name := p.NumVars(), fmt.Sprintf("r%d", i)
		x := lits(next(4), vars)
		switch y := next(4); y {
		case 0:
			phi, err := gfd.NewFalse(name, p, x)
			if err != nil {
				panic(err)
			}
			set.Add(phi)
		default:
			set.Add(gfd.MustNew(name, p, x, lits(y-1, vars)))
		}
	}
	return b.Freeze(), set
}

// fuzzBytes is a fuzz input read a byte at a time. Spent bytes read as 0,
// so every input decodes.
type fuzzBytes []byte

// next returns the next byte mod n.
func (r *fuzzBytes) next(n int) int {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return int(b) % n
}

// violationsSeed spells out a violationsInput: the node bytes (label, A, B
// per node), the edge bytes (from, to, label per edge) and one byte string
// per GFD, each in the decoder's order and within its ranges.
func violationsSeed(nodes, edges []byte, gfds ...[]byte) []byte {
	out := append([]byte{byte(len(nodes)/3 - 1)}, nodes...)
	out = append(append(out, byte(len(edges)/3)), edges...)
	out = append(out, byte(len(gfds)-1))
	for _, g := range gfds {
		out = append(out, g...)
	}
	return out
}

// violationsSeeds are hand-built violationsInputs, the seeds of the fuzzers.
var violationsSeeds = [][]byte{
	// A star: a-node 0 (A=1, B=0) with e-edges to b-nodes 1–4 (B = 0, 1,
	// absent, 1; node 3 has A=0), an f-edge 1 -> 2 and an e-loop on 4.
	violationsSeed(
		[]byte{0, 2, 1, 1, 0, 1, 1, 0, 2, 1, 1, 0, 1, 0, 2},
		[]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 1, 2, 1, 4, 4, 0},
		// x:a -e-> y:b; Y x.A = "1", decided at the root.
		[]byte{1, 0, 1, 1, 0, 1, 0, 0, 2, 0, 0, 0, 1},
		// The same pattern: X y.B = "0", then false.
		[]byte{1, 0, 1, 1, 1, 0, 0, 0},
		// The same pattern: X x.A = x.A, empty Y.
		[]byte{1, 0, 1, 0, 0, 1, 0, 0, 1},
		// Disconnected x:a, y:_: Y x.A = y.B across the components.
		[]byte{0, 1, 0, 2, 0, 0, 2, 0, 0, 1, 1, 1},
		// x:_ with a wildcard self-loop, x -e-> y:b: X y.B = "1", Y x.B = y.B.
		[]byte{0, 1, 2, 1, 2, 0, 0, 2, 0, 1, 0, 1, 1, 1, 0, 1, 2, 0, 1, 1, 1, 1},
	),
	// Two f-triangles' worth of b-nodes, one closed by e-edges, with every
	// attribute pattern, and a four-variable pattern whose literals wait
	// for its last variable, which is a component of its own.
	violationsSeed(
		[]byte{1, 1, 1, 1, 1, 2, 1, 2, 1, 1, 0, 2, 1, 2, 0, 1, 2, 2},
		[]byte{0, 1, 0, 1, 2, 0, 2, 0, 0, 3, 4, 1, 4, 5, 1, 5, 3, 1, 0, 0, 1},
		// x0 -e-> x1 -e-> x2, and x3, all wildcards: X x0.A = x3.B, Y
		// x1.B = x2.A.
		[]byte{3, 2, 2, 2, 2, 2, 0, 1, 0, 1, 2, 0, 1, 0, 0, 1, 3, 1, 2, 1, 1, 1, 2, 0},
		// The same pattern: Y x0.A = "0" and x3.B = x3.B.
		[]byte{1, 0, 0, 3, 0, 0, 0, 0, 3, 1, 1, 3, 1},
		// x:b with an f-loop: X x.A = "1", Y x.B = "1".
		[]byte{0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 2, 0, 1, 0, 1},
	),
}

// FuzzViolations holds validation to the brute-force oracle on decoded
// graphs and Σs: at 1 and 2 workers, with every group armed (value
// columns and the literal guard) before its search starts and never armed,
// the list is the oracle's violation set, the same violation for violation
// and in order every time.
func FuzzViolations(f *testing.F) {
	f.Add([]byte{})
	for _, seed := range violationsSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzBytes(data)
		g, set := violationsInput(&r)
		ctx := context.Background()
		never := func(int) int { return math.MaxInt }
		want, _, err := violations(g, set, ParOptions{Ctx: ctx, testArmAt: never})
		if err != nil {
			t.Fatal(err)
		}
		if !sameAsOracle(g, set, want) {
			t.Fatalf("unarmed violations are not the oracle's\nΣ:\n%s", set)
		}
		for _, w := range []int{1, 2} {
			for armed, at := range map[bool]func(int) int{false: never, true: func(int) int { return 0 }} {
				got, _, err := violations(g, set, ParOptions{Workers: w, Ctx: ctx, testArmAt: at})
				if err != nil {
					t.Fatal(err)
				}
				if !violationsEqual(got, want) {
					t.Fatalf("w=%d armed=%v: %d violations, unarmed one-worker run %d\nΣ:\n%s", w, armed, len(got), len(want), set)
				}
			}
		}
	})
}
