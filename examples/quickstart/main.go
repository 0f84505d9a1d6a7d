// Quickstart: define GFDs, check a graph against them, and run the two
// static analyses — satisfiability and implication — sequentially and in
// parallel.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

func main() {
	// A GFD is a graph pattern plus an attribute dependency X → Y.
	// ϕ: every car with a topSpeed edge to a speed node has one speed value
	// (the paper's ϕ2, specialized): if two speed nodes hang off the same
	// car, their values must agree.
	p := pattern.New()
	car := p.AddVar("x", graph.Wildcard) // wildcard: any entity type
	s1 := p.AddVar("y", "speed")
	s2 := p.AddVar("z", "speed")
	p.AddEdge(car, s1, "topSpeed")
	p.AddEdge(car, s2, "topSpeed")
	phi := gfd.MustNew("functional-topSpeed", p, nil,
		[]gfd.Literal{gfd.Vars(s1, "val", s2, "val")})
	fmt.Println("GFD:", phi)

	// Build a graph violating it (DBpedia's tank anecdote from Example 1).
	b := graph.NewBuilder(0)
	tank := b.AddNode("tank")
	v1 := b.AddNodeWithAttrs("speed", map[string]string{"val": "24.076"})
	v2 := b.AddNodeWithAttrs("speed", map[string]string{"val": "33.336"})
	b.AddEdge(tank, v1, "topSpeed")
	b.AddEdge(tank, v2, "topSpeed")
	g := b.Freeze()

	set := gfd.NewSet(phi)
	if ok, v := core.Satisfies(g, set); !ok {
		fmt.Printf("violation caught: %s at match %v\n", v.GFD.Name, v.Match)
	}

	// Satisfiability: is the rule set itself consistent? Add a conflicting
	// rule and watch SeqSat reject the set.
	q := pattern.New()
	q.AddVar("x", "speed")
	bad1 := gfd.MustNew("speed-is-1", q, nil, []gfd.Literal{gfd.Const(0, "val", "1")})
	q2 := pattern.New()
	q2.AddVar("x", "speed")
	bad2 := gfd.MustNew("speed-is-2", q2, nil, []gfd.Literal{gfd.Const(0, "val", "2")})

	res := core.SeqSat(gfd.NewSet(phi, bad1, bad2))
	fmt.Printf("satisfiable with conflicting rules? %v (%v)\n", res.Satisfiable, res.Conflict)

	res = core.SeqSat(gfd.NewSet(phi, bad1))
	fmt.Printf("satisfiable without the conflict?  %v\n", res.Satisfiable)

	// Implication: speed-is-1 implies any weakening of itself, so the
	// weaker rule is redundant and can be pruned.
	q3 := pattern.New()
	q3.AddVar("x", "speed")
	weaker := gfd.MustNew("weaker", q3,
		[]gfd.Literal{gfd.Const(0, "kind", "max")}, // stronger antecedent
		[]gfd.Literal{gfd.Const(0, "val", "1")})
	imp := core.SeqImp(gfd.NewSet(bad1), weaker)
	fmt.Printf("redundant rule detected? %v (%s)\n", imp.Implied, imp.Reason)

	// The same checks run in parallel with p workers and identical answers.
	par := core.ParSat(gfd.NewSet(phi, bad1, bad2), core.DefaultParOptions(4))
	fmt.Printf("ParSat agrees: %v\n", par.Satisfiable == false)
	pimp := core.ParImp(gfd.NewSet(bad1), weaker, core.DefaultParOptions(4))
	fmt.Printf("ParImp agrees: %v\n", pimp.Implied == true)
}
