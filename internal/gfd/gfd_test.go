package gfd

import (
	"strings"
	"testing"

	"repro/internal/pattern"
)

func edgeP() *pattern.Pattern {
	p := pattern.New()
	x := p.AddVar("x", "a")
	y := p.AddVar("y", "b")
	p.AddEdge(x, y, "e")
	return p
}

func TestNewValidatesVariables(t *testing.T) {
	p := edgeP()
	if _, err := New("bad", p, nil, []Literal{Const(5, "A", "1")}); err == nil {
		t.Error("literal on undeclared variable accepted")
	}
	if _, err := New("bad2", p, []Literal{Vars(0, "A", 7, "B")}, nil); err == nil {
		t.Error("var literal with undeclared rhs accepted")
	}
	if _, err := New("ok", p, []Literal{Const(0, "A", "1")}, []Literal{Vars(0, "A", 1, "B")}); err != nil {
		t.Errorf("valid GFD rejected: %v", err)
	}
}

// A pattern without variables has no pivot: the parallel engines cannot
// build a work unit for it, so it is refused at construction.
func TestNewRejectsEmptyPattern(t *testing.T) {
	_, err := New("empty", pattern.New(), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "no variables") {
		t.Errorf("New on a zero-variable pattern: err = %v, want a \"no variables\" error", err)
	}
}

func TestFalseDesugaring(t *testing.T) {
	phi, err := NewFalse("f", edgeP(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !phi.IsFalsehood() {
		t.Error("NewFalse result not recognized as falsehood")
	}
	if len(phi.Y) != 2 {
		t.Errorf("false desugars to %d literals, want 2", len(phi.Y))
	}
	// The two literals must contradict: same term, distinct constants.
	if phi.Y[0].X != phi.Y[0].X || phi.Y[0].A != phi.Y[1].A || phi.Y[0].Const == phi.Y[1].Const {
		t.Errorf("false literals do not contradict: %v", phi.Y)
	}
	// An ordinary GFD is not a falsehood.
	plain := MustNew("p", edgeP(), nil, []Literal{Const(0, "A", "1")})
	if plain.IsFalsehood() {
		t.Error("plain GFD misreported as falsehood")
	}
	// Empty-pattern falsehood is rejected.
	if _, err := NewFalse("e", pattern.New(), nil); err == nil {
		t.Error("false-GFD with no variables accepted")
	}
}

func TestSizeAndSetSize(t *testing.T) {
	phi := MustNew("s", edgeP(), []Literal{Const(0, "A", "1")}, []Literal{Vars(0, "A", 1, "B")})
	// |Q| = 2 vars + 1 edge = 3; |X| = 1; |Y| = 1.
	if phi.Size() != 5 {
		t.Errorf("Size = %d, want 5", phi.Size())
	}
	set := NewSet(phi, phi)
	if set.Size() != 10 || set.Len() != 2 {
		t.Errorf("set Size=%d Len=%d", set.Size(), set.Len())
	}
}

func TestConstants(t *testing.T) {
	phi1 := MustNew("a", edgeP(), []Literal{Const(0, "A", "u")}, []Literal{Const(1, "B", "v")})
	phi2 := MustNew("b", edgeP(), nil, []Literal{Const(0, "A", "u")}) // duplicate "u"
	cs := NewSet(phi1, phi2).Constants()
	if len(cs) != 2 || cs[0] != "u" || cs[1] != "v" {
		t.Errorf("Constants = %v, want [u v]", cs)
	}
}

func TestStringRendering(t *testing.T) {
	phi := MustNew("r", edgeP(), []Literal{Const(0, "A", "1")}, []Literal{Vars(0, "A", 1, "B")})
	s := phi.String()
	for _, want := range []string{"r:", `x.A="1"`, "x.A=y.B", "→"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	f, _ := NewFalse("f", edgeP(), nil)
	if !strings.Contains(f.String(), "false") {
		t.Errorf("falsehood renders as %q", f.String())
	}
}
