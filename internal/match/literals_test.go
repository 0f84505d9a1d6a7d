package match

import (
	"testing"

	"repro/internal/graph"
)

// TestLiteralScratchNodeMemo pins the scratch's memo: a slot is re-read
// exactly when the match binds its variable to a different node than the
// one it last read, Begin and a new snapshot are read afresh, and a member
// whose antecedent fails early loads nothing after that literal. A sentinel
// planted in a slot tells a kept value from a reload. The memo is the same
// whether the scratch reads rows or value columns.
func TestLiteralScratchNodeMemo(t *testing.T) {
	g := graph.New()
	x0, x1 := g.AddNode("a"), g.AddNode("a")
	y0, y1 := g.AddNode("b"), g.AddNode("b")
	g.SetAttr(x0, "A", "p")
	g.SetAttr(x1, "A", "q")
	g.SetAttr(y0, "B", "p")
	g.SetAttr(y1, "B", "q")
	// Z and C exist in the graph, so a load of y.C would find a value.
	z := g.AddNode("c")
	g.SetAttr(z, "Z", "z")
	g.SetAttr(z, "C", "c")
	e := CompileLiterals([]MemberLiterals{
		// ∅ → x.A = y.B
		{Y: []LiteralSpec{{V1: 0, A1: "A", V2: 1, A2: "B"}}},
		// x.Z = "never" → y.C = "c": x.Z is missing, so y.C is never reached.
		{
			X: []LiteralSpec{{IsConst: true, V1: 0, A1: "Z", Const: "never"}},
			Y: []LiteralSpec{{IsConst: true, V1: 1, A1: "C", Const: "c"}},
		},
	})
	const xA, yC = 0, 3 // slots in interning order: x.A, y.B, x.Z, y.C
	const sentinel = graph.NoValue - 1
	for _, columns := range []bool{false, true} {
		s := e.NewScratch()
		if columns {
			s = e.NewColumnScratch()
		}
		f := g.Frozen()
		step := func(f *graph.Frozen, x, y graph.NodeID, want bool) {
			t.Helper()
			h := Assignment{x, y}
			if got := e.Violates(0, f, h, s); got != want {
				t.Fatalf("(%d,%d): member 0 violates = %t, want %t", x, y, got, want)
			}
			if e.Violates(1, f, h, s) {
				t.Fatalf("(%d,%d): member 1 violates with a failing antecedent", x, y)
			}
			if n := s.slots[yC].node; n != graph.InvalidNode {
				t.Fatalf("(%d,%d): the short-circuited member loaded y.C at %d", x, y, n)
			}
		}
		// rowValue is what a reload of x.A at v reads.
		rowValue := func(f *graph.Frozen, v graph.NodeID) graph.ValueID { return f.AttrAt(v, f.AttrNameID("A")) }
		planted := func(ctx string, want graph.ValueID) {
			t.Helper()
			if got := s.slots[xA].val; got != want {
				t.Fatalf("%s: x.A slot holds %d, want %d", ctx, got, want)
			}
		}

		// x stays at x0 across matches: the slot keeps what it holds, so the
		// sentinel comes back and x0.A no longer equals y0.B.
		step(f, x0, y0, false)
		if (s.slots[xA].col != nil) != columns {
			t.Fatalf("columns=%t: the x.A slot's column is %v", columns, s.slots[xA].col)
		}
		s.slots[xA].val = sentinel
		step(f, x0, y1, true)
		step(f, x0, y0, true)
		planted("x kept at x0", sentinel)

		// x0 → x1 → x0 re-reads at every change, and the values follow.
		step(f, x1, y1, false)
		planted("x moved to x1", rowValue(f, x1))
		s.slots[xA].val = sentinel
		step(f, x0, y1, true)
		planted("x moved back to x0", rowValue(f, x0))

		// Begin forgets the values but keeps the binding: the next match reloads.
		s.slots[xA].val = sentinel
		s.Begin()
		step(f, x0, y0, false)
		planted("after Begin", rowValue(f, x0))

		// The same match on another snapshot reads that snapshot, with no Begin:
		// on g2, x0.A = y1.B, so the violation the scratch held for g is gone.
		g2 := g.Clone()
		g2.SetAttr(x0, "A", "q")
		f2 := g2.Frozen()
		step(f, x0, y1, true)
		s.slots[xA].val = sentinel
		step(f2, x0, y1, false)
		planted("on a new snapshot", rowValue(f2, x0))
	}
}
