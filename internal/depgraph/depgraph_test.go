package depgraph

import (
	"testing"

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
