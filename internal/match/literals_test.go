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
		d := graph.NewDelta(f)
		d.SetAttr(x0, "A", "q")
		f2 := d.Overlay()
		step(f, x0, y1, true)
		s.slots[xA].val = sentinel
		step(f2, x0, y1, false)
		planted("on a new snapshot", rowValue(f2, x0))
	}
}

// TestColumnScratchMakesColumnsOnFirstRead pins when a column scratch makes
// value columns: at a slot's first read, not when the scratch binds to the
// snapshot. Member 0's first antecedent literal fails at the match, so it
// reads one of the program's three slots and the snapshot makes one column,
// although it carries all three names. Member 1 reads a name the snapshot
// lacks, which has no column to make.
func TestColumnScratchMakesColumnsOnFirstRead(t *testing.T) {
	b := graph.NewBuilder(0)
	x, y := b.AddNode("a"), b.AddNode("b")
	b.SetAttr(x, "A", "p")
	b.SetAttr(x, "B", "q")
	b.SetAttr(y, "C", "q")
	f := b.Freeze()
	e := CompileLiterals([]MemberLiterals{
		// x.A = "never", x.B = y.C → y.C = "r"
		{
			X: []LiteralSpec{{IsConst: true, V1: 0, A1: "A", Const: "never"}, {V1: 0, A1: "B", V2: 1, A2: "C"}},
			Y: []LiteralSpec{{IsConst: true, V1: 1, A1: "C", Const: "r"}},
		},
		// x.Z = "z" → y.C = "r": no node of the snapshot carries Z.
		{
			X: []LiteralSpec{{IsConst: true, V1: 0, A1: "Z", Const: "z"}},
			Y: []LiteralSpec{{IsConst: true, V1: 1, A1: "C", Const: "r"}},
		},
	})
	s := e.NewColumnScratch()
	h := Assignment{x, y}
	if e.Violates(0, f, h, s) {
		t.Fatal("member 0 violates with a failing antecedent")
	}
	if n := f.NumAttrColumns(); n != 1 {
		t.Fatalf("a failing first literal made %d value columns, want 1 (the slot it read)", n)
	}
	for _, v := range []graph.NodeID{x, y, x} {
		if e.Violates(1, f, Assignment{v, y}, s) {
			t.Fatal("member 1 violates with a missing antecedent attribute")
		}
	}
	if n := f.NumAttrColumns(); n != 1 {
		t.Fatalf("reads of a name the snapshot lacks made columns: %d, want 1", n)
	}
	const xZ = 3 // slots in interning order: x.A, x.B, y.C, x.Z
	if s.slots[xZ].col != nil || s.slots[xZ].name != graph.NoAttr {
		t.Fatalf("the x.Z slot is bound to name %d, column %v; want NoAttr and none", s.slots[xZ].name, s.slots[xZ].col)
	}
}
