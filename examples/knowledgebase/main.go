// Knowledgebase reproduces the paper's motivating scenario (Example 1):
// validating data-quality rules over a DBpedia-style knowledge graph, then
// using them to catch semantic inconsistencies — ϕ1 (locatedIn/partOf
// cycles), ϕ2 (functional topSpeed) and ϕ3 (president/vice-president
// nationality).
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// phi1: for any place x located in place y, y must not also be part of x.
func phi1() *gfd.GFD {
	p := pattern.New()
	x := p.AddVar("x", "place")
	y := p.AddVar("y", "place")
	p.AddEdge(x, y, "locatedIn")
	p.AddEdge(y, x, "partOf")
	phi, _ := gfd.NewFalse("phi1", p, nil)
	return phi
}

// phi2: topSpeed is a functional property of any entity.
func phi2() *gfd.GFD {
	p := pattern.New()
	x := p.AddVar("x", graph.Wildcard)
	y := p.AddVar("y", "speed")
	z := p.AddVar("z", "speed")
	p.AddEdge(x, y, "topSpeed")
	p.AddEdge(x, z, "topSpeed")
	return gfd.MustNew("phi2", p, nil, []gfd.Literal{gfd.Vars(y, "val", z, "val")})
}

// phi3: a president and vice president of the same country share the
// nationality value.
func phi3() *gfd.GFD {
	p := pattern.New()
	x := p.AddVar("x", "person")
	y := p.AddVar("y", "person")
	z := p.AddVar("z", "country")
	w1 := p.AddVar("w1", "nationality")
	w2 := p.AddVar("w2", "nationality")
	p.AddEdge(x, z, "presidentOf")
	p.AddEdge(y, z, "vicePresidentOf")
	p.AddEdge(x, w1, "nationality")
	p.AddEdge(y, w2, "nationality")
	return gfd.MustNew("phi3", p,
		[]gfd.Literal{gfd.Vars(x, "country", y, "country")},
		[]gfd.Literal{gfd.Vars(w1, "val", w2, "val")})
}

func main() {
	rules := gfd.NewSet(phi1(), phi2(), phi3())

	// Step 1 (the paper's satisfiability use case): validate that the rule
	// set is not "dirty" itself before deploying it for error detection.
	// ϕ1 has a false consequent, so a *model* for all three cannot exist
	// (a model must match every pattern) — but pairwise and on real data
	// the rules are consistent; what matters is that ϕ2 and ϕ3 together
	// have a model.
	res := core.SeqSat(gfd.NewSet(phi2(), phi3()))
	fmt.Printf("ϕ2 ∧ ϕ3 consistent: %v\n", res.Satisfiable)

	// Step 2: error detection on a DBpedia-like fragment containing the
	// paper's three real anecdotes.
	b := graph.NewBuilder(0)

	// Bamburi airport / Bamburi (violates ϕ1).
	airport := b.AddNode("place")
	town := b.AddNode("place")
	b.AddEdge(airport, town, "locatedIn")
	b.AddEdge(town, airport, "partOf")

	// Tank with two top speeds (violates ϕ2).
	tank := b.AddNode("tank")
	s1 := b.AddNodeWithAttrs("speed", map[string]string{"val": "24.076"})
	s2 := b.AddNodeWithAttrs("speed", map[string]string{"val": "33.336"})
	b.AddEdge(tank, s1, "topSpeed")
	b.AddEdge(tank, s2, "topSpeed")

	// Botswana's president/vice-president nationality mismatch (violates ϕ3).
	pres := b.AddNodeWithAttrs("person", map[string]string{"country": "Botswana"})
	vice := b.AddNodeWithAttrs("person", map[string]string{"country": "Botswana"})
	botswana := b.AddNode("country")
	n1 := b.AddNodeWithAttrs("nationality", map[string]string{"val": "Botswana"})
	n2 := b.AddNodeWithAttrs("nationality", map[string]string{"val": "Tswana"})
	b.AddEdge(pres, botswana, "presidentOf")
	b.AddEdge(vice, botswana, "vicePresidentOf")
	b.AddEdge(pres, n1, "nationality")
	b.AddEdge(vice, n2, "nationality")

	// A clean entity for contrast.
	clean := b.AddNode("place")
	region := b.AddNode("place")
	b.AddEdge(clean, region, "locatedIn")
	g := b.Freeze()

	violations := core.Violations(g, rules)
	fmt.Printf("found %d inconsistencies:\n", len(violations))
	for _, v := range violations {
		fmt.Printf("  rule %-5s violated at nodes %v\n", v.GFD.Name, v.Match)
	}
}
