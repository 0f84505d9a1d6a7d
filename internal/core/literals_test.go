package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/oracle"
	"repro/internal/pattern"
)

// testGroupCheck is newGroupCheck with a scratch that reads value columns
// from the first match when columns is set.
func testGroupCheck(set *gfd.Set, grp gfd.Group, columns bool) *groupCheck {
	c := newGroupCheck(set, grp)
	if columns {
		c.scr = c.prog.NewColumnScratch()
	}
	return c
}

// idsAgree evaluates every member of every group of Σ at every match of the
// group's pattern in g, through the group's literal program on value IDs
// (read from rows, or from value columns with columns set) and through the
// oracle's walk over attribute strings, and fails on the first
// disagreement. It returns the number of (match, member) pairs and how many
// of them violate.
func idsAgree(t *testing.T, ctx string, g graph.Reader, set *gfd.Set, columns bool) (evals, violating int) {
	t.Helper()
	for gi, grp := range set.Groups() {
		c := testGroupCheck(set, grp, columns)
		s := match.NewSearch(grp.Pattern, g, match.Options{})
		for h, ok := s.Next(); ok; h, ok = s.Next() {
			for i, mi := range grp.Members {
				got := c.prog.Violates(i, g.Snapshot(), h, c.scr)
				if want := oracle.Violates(g, set.GFDs[mi], h); got != want {
					t.Fatalf("%s group#%d member %s at %v: IDs say violates=%t, strings %t", ctx, gi, set.GFDs[mi].Name, h, got, want)
				}
				evals++
				if got {
					violating++
				}
			}
		}
	}
	return evals, violating
}

// TestLiteralIDsMatchStrings holds literal evaluation on value IDs to the
// independent string evaluation of the oracle: on generated graphs for
// every group, match and member, and by hand on the cases where IDs and
// strings could part — a constant the graph lacks, a missing attribute on
// either side of x.A = y.B, x.A = x.A, a tombstoned node, an overlay whose
// delta brings a new name and value, one scratch on two readers in turn,
// and a Graph edited between two calls on one scratch. Every case runs on
// scratches that search rows and on scratches that read value columns.
func TestLiteralIDsMatchStrings(t *testing.T) {
	for _, columns := range []bool{false, true} {
		t.Run(map[bool]string{false: "rows", true: "columns"}[columns], func(t *testing.T) { literalIDsMatchStrings(t, columns) })
	}
}

func literalIDsMatchStrings(t *testing.T, columns bool) {
	evals, violating := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gr := gen.New(gen.Config{N: 10, K: 4, L: 2, WildcardRate: 0.2, Seed: seed})
		consistent := gr.ConsistentGraph(80)
		perturb(rng, consistent, 8)
		dense := gr.DenseFrozen(500, 6)
		for _, set := range []*gfd.Set{gr.Set(), gr.SharedValidationSet(4, 6)} {
			for name, g := range map[string]graph.Reader{"consistent": consistent, "dense": dense} {
				n, v := idsAgree(t, fmt.Sprintf("seed=%d %s", seed, name), g, set, columns)
				evals, violating = evals+n, violating+v
			}
		}
	}
	if violating == 0 || violating == evals {
		t.Fatalf("vacuous: %d of %d evaluations violate", violating, evals)
	}

	// By hand: x -e-> y, labels a and b.
	p := pattern.New()
	x, y := p.AddVar("x", "a"), p.AddVar("y", "b")
	p.AddEdge(x, y, "e")
	set := gfd.NewSet(
		gfd.MustNew("absentConst", p, nil, []gfd.Literal{gfd.Const(x, "A", "nowhere")}),
		gfd.MustNew("absentConstX", p, []gfd.Literal{gfd.Const(x, "A", "nowhere")}, nil),
		gfd.MustNew("varVar", p, nil, []gfd.Literal{gfd.Vars(x, "A", y, "B")}),
		gfd.MustNew("varVarX", p, []gfd.Literal{gfd.Vars(y, "B", x, "A")}, []gfd.Literal{gfd.Const(y, "C", "c")}),
		gfd.MustNew("self", p, nil, []gfd.Literal{gfd.Vars(x, "A", x, "A")}),
		gfd.MustNew("newName", p, nil, []gfd.Literal{gfd.Const(y, "N", "fresh")}),
	)
	g := graph.New()
	xs := []graph.NodeID{g.AddNode("a"), g.AddNode("a"), g.AddNode("a")}
	ys := []graph.NodeID{g.AddNode("b"), g.AddNode("b"), g.AddNode("b")}
	g.SetAttr(xs[0], "A", "p") // y0.B = p: equal
	g.SetAttr(ys[0], "B", "p")
	g.SetAttr(xs[1], "A", "p") // y1 lacks B
	g.SetAttr(ys[2], "B", "q") // x2 lacks A
	g.SetAttr(ys[2], "C", "c")
	for _, u := range xs {
		for _, w := range ys {
			g.AddEdge(u, w, "e")
		}
	}
	dead := g.AddNode("a")
	g.SetAttr(dead, "A", "p")
	g.AddEdge(dead, ys[0], "e")
	g.RemoveNode(dead)

	// Every (x, y) pair, tombstone included, on one scratch per group.
	type reader struct {
		name string
		r    graph.Reader
	}
	var all []match.Assignment
	for _, u := range append(xs, dead) {
		for _, w := range ys {
			all = append(all, match.Assignment{u, w})
		}
	}
	evalAll := func(c *groupCheck, rd reader) {
		t.Helper()
		for _, h := range all {
			for i, mi := range c.members {
				if got, want := c.prog.Violates(i, rd.r.Snapshot(), h, c.scr), oracle.Violates(rd.r, set.GFDs[mi], h); got != want {
					t.Fatalf("%s: %s at %v: IDs say violates=%t, strings %t", rd.name, set.GFDs[mi].Name, h, got, want)
				}
			}
		}
	}
	// The overlay's delta brings the name N and the value "fresh", which
	// the base tables lack, and the value "q" to x0.
	base := g.Frozen()
	d := graph.NewDelta(base)
	d.SetAttr(ys[1], "N", "fresh")
	d.SetAttr(xs[0], "A", "q")
	overlay := d.Overlay()
	if base.AttrNameID("N") != graph.NoAttr || base.AttrValueID("fresh") != graph.NoValue ||
		overlay.AttrNameID("N") == graph.NoAttr || overlay.AttrValueID("fresh") == graph.NoValue {
		t.Fatal("fixture: N and fresh must be new in the overlay's delta")
	}
	readers := []reader{{"graph", g}, {"frozen", base}, {"overlay", overlay}, {"sharded", base.Sharded(2)}}

	// One scratch across every reader in turn, then back to the first.
	grp := gfd.Group{Pattern: p, Members: []int{0, 1, 2, 3, 4, 5}}
	c := testGroupCheck(set, grp, columns)
	for _, rd := range append(readers, readers[0], readers[2]) {
		evalAll(c, rd)
	}
	// Each GFD on its own scratch, the way Satisfies runs it.
	for mi := range set.GFDs {
		c := testGroupCheck(set, gfd.Group{Pattern: p, Members: []int{mi}}, columns)
		for _, rd := range readers {
			evalAll(c, rd)
		}
	}

	// A Graph edited between two calls on one scratch: the second call must
	// see the edit, which also brings a name and a value the first snapshot
	// lacked.
	c = testGroupCheck(set, grp, columns)
	evalAll(c, reader{"graph before the edit", g})
	g.SetAttr(ys[1], "B", "p")
	g.SetAttr(ys[1], "N", "fresh")
	g.SetAttr(xs[2], "A", "r")
	evalAll(c, reader{"graph after the edit", g})
	h := match.Assignment{xs[0], ys[1]}
	if c.prog.Violates(2, g.Snapshot(), h, c.scr) {
		t.Fatal("x0.A = y1.B holds after the edit, but the scratch still reads the old snapshot")
	}
}
