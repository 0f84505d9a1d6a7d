// Package gfd defines graph functional dependencies Q[x̄](X → Y) as in
// Section III of the paper: a graph pattern Q scoping an attribute
// dependency X → Y over literals x.A = c and x.A = y.B.
package gfd

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/pattern"
)

// LiteralKind distinguishes the two literal forms.
type LiteralKind int

const (
	// ConstLiteral is x.A = c.
	ConstLiteral LiteralKind = iota
	// VarLiteral is x.A = y.B.
	VarLiteral
)

// Reserved attribute and constants used to desugar the Boolean constant
// false in consequents: false ≡ {x.⊥ = ⊥0, x.⊥ = ⊥1} with distinct
// constants, which no model can satisfy.
const (
	FalseAttr   = "__false"
	FalseConst0 = "__bot0"
	FalseConst1 = "__bot1"
)

// Literal is an attribute literal over pattern variables.
type Literal struct {
	Kind LiteralKind
	X    pattern.Var // left variable
	A    string      // left attribute
	// ConstLiteral:
	Const string
	// VarLiteral:
	Y pattern.Var
	B string
}

// Const returns the literal x.A = c.
func Const(x pattern.Var, a, c string) Literal {
	return Literal{Kind: ConstLiteral, X: x, A: a, Const: c}
}

// Vars returns the literal x.A = y.B.
func Vars(x pattern.Var, a string, y pattern.Var, b string) Literal {
	return Literal{Kind: VarLiteral, X: x, A: a, Y: y, B: b}
}

// String renders the literal using variable indexes (use GFD.FormatLiteral
// for names).
func (l Literal) String() string {
	if l.Kind == ConstLiteral {
		return fmt.Sprintf("$%d.%s=%q", l.X, l.A, l.Const)
	}
	return fmt.Sprintf("$%d.%s=$%d.%s", l.X, l.A, l.Y, l.B)
}

// GFD is a graph functional dependency φ = Q[x̄](X → Y).
type GFD struct {
	// Name is an optional identifier used in diagnostics and work-unit
	// labels; generated GFDs get sequential names.
	Name    string
	Pattern *pattern.Pattern
	X       []Literal // antecedent; empty means "always fires"
	Y       []Literal // consequent; empty means trivially satisfied
}

// New constructs a GFD after Validate has passed its parts, and freezes p.
func New(name string, p *pattern.Pattern, x, y []Literal) (*GFD, error) {
	if err := Validate(name, p, x, y); err != nil {
		return nil, err
	}
	p.Freeze()
	return &GFD{Name: name, Pattern: p, X: x, Y: y}, nil
}

// Validate reports what New refuses, without building a GFD or freezing p:
// a pattern with no variables (it has no pivot to build work units from) and
// a literal that references an undeclared variable.
func Validate(name string, p *pattern.Pattern, x, y []Literal) error {
	if p.NumVars() == 0 {
		return fmt.Errorf("gfd %s: pattern has no variables", name)
	}
	for _, ls := range [2][]Literal{x, y} {
		for _, l := range ls {
			if int(l.X) < 0 || int(l.X) >= p.NumVars() {
				return fmt.Errorf("gfd %s: literal references undeclared variable $%d", name, l.X)
			}
			if l.Kind == VarLiteral && (int(l.Y) < 0 || int(l.Y) >= p.NumVars()) {
				return fmt.Errorf("gfd %s: literal references undeclared variable $%d", name, l.Y)
			}
		}
	}
	return nil
}

// MustNew is New that panics on error. It is a test and example helper
// only: library code routes through New and handles the error (parsers
// propagate it, miners skip the candidate, generators assert their own
// construction invariant).
func MustNew(name string, p *pattern.Pattern, x, y []Literal) *GFD {
	g, err := New(name, p, x, y)
	if err != nil {
		panic(err)
	}
	return g
}

// NewFalse constructs Q[x̄](X → false): the consequent is desugared to two
// contradicting constant literals on a reserved attribute of the first
// variable, following the paper's syntactic-sugar reading.
func NewFalse(name string, p *pattern.Pattern, x []Literal) (*GFD, error) {
	y := falseY()
	return New(name, p, x, y[:])
}

func falseY() [2]Literal {
	return [2]Literal{Const(0, FalseAttr, FalseConst0), Const(0, FalseAttr, FalseConst1)}
}

// IsFalseSugar reports whether the consequent is NewFalse's, literal for
// literal: the one falsehood (IsFalsehood admits others, on any variable and
// beside other literals) that a writer may spell "false" and get back.
func (g *GFD) IsFalseSugar() bool {
	y := falseY()
	return slices.Equal(g.Y, y[:])
}

// IsFalsehood reports whether the consequent is the desugared false.
func (g *GFD) IsFalsehood() bool {
	seen0, seen1 := false, false
	for _, l := range g.Y {
		if l.Kind == ConstLiteral && l.A == FalseAttr {
			switch l.Const {
			case FalseConst0:
				seen0 = true
			case FalseConst1:
				seen1 = true
			}
		}
	}
	return seen0 && seen1
}

// Size returns |φ| = |Q| + |X| + |Y|, the measure used by the small model
// properties.
func (g *GFD) Size() int { return g.Pattern.Size() + len(g.X) + len(g.Y) }

// FormatLiteral renders a literal with the GFD's variable names.
func (g *GFD) FormatLiteral(l Literal) string {
	if l.Kind == ConstLiteral {
		return fmt.Sprintf("%s.%s=%q", g.Pattern.Name(l.X), l.A, l.Const)
	}
	return fmt.Sprintf("%s.%s=%s.%s", g.Pattern.Name(l.X), l.A, g.Pattern.Name(l.Y), l.B)
}

// String renders the GFD.
func (g *GFD) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: Q[%s](", g.Name, g.Pattern.String())
	for i, l := range g.X {
		if i > 0 {
			b.WriteString(" ∧ ")
		}
		b.WriteString(g.FormatLiteral(l))
	}
	b.WriteString(" → ")
	if g.IsFalsehood() {
		b.WriteString("false")
	} else {
		for i, l := range g.Y {
			if i > 0 {
				b.WriteString(" ∧ ")
			}
			b.WriteString(g.FormatLiteral(l))
		}
	}
	b.WriteString(")")
	return b.String()
}

// Set is an ordered set Σ of GFDs.
type Set struct {
	GFDs []*GFD
}

// NewSet builds a Set from the given GFDs.
func NewSet(gfds ...*GFD) *Set { return &Set{GFDs: gfds} }

// Add appends a GFD to Σ.
func (s *Set) Add(g *GFD) { s.GFDs = append(s.GFDs, g) }

// Len returns |Σ| as a count of GFDs.
func (s *Set) Len() int { return len(s.GFDs) }

// Size returns |Σ| as the total size of all GFDs (patterns plus literals),
// the bound of the small model property.
func (s *Set) Size() int {
	n := 0
	for _, g := range s.GFDs {
		n += g.Size()
	}
	return n
}

// Constants returns every constant appearing in Σ's literals (with
// duplicates removed, order deterministic by first occurrence). The small
// model property guarantees models only need these constants plus fresh
// distinct ones.
func (s *Set) Constants() []string {
	seen := make(map[string]bool)
	var out []string
	for _, g := range s.GFDs {
		for _, l := range append(append([]Literal{}, g.X...), g.Y...) {
			if l.Kind == ConstLiteral && !seen[l.Const] {
				seen[l.Const] = true
				out = append(out, l.Const)
			}
		}
	}
	return out
}

// String renders the set, one GFD per line.
func (s *Set) String() string {
	var b strings.Builder
	for _, g := range s.GFDs {
		b.WriteString(g.String())
		b.WriteByte('\n')
	}
	return b.String()
}
