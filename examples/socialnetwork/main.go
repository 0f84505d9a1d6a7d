// Socialnetwork reproduces the paper's ϕ4 scenario: credibility rules on a
// Pokec-style social graph. Blogs posted by a domain expert and a
// non-expert on the same topic with opposite accounts mark the
// non-expert's blog as low-trust; the example then checks the rule set
// stays consistent when a moderation rule is added, using ParSat.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// phi4: if person x (expert in the blog's field) posts w1, person y posts
// w2, and w2 opposes w1 on the same topic, then w2 is low-trust.
func phi4() *gfd.GFD {
	p := pattern.New()
	x := p.AddVar("x", "person")
	y := p.AddVar("y", "person")
	f := p.AddVar("f", "field")
	w1 := p.AddVar("w1", "blog")
	w2 := p.AddVar("w2", "blog")
	p.AddEdge(x, f, "expertIn")
	p.AddEdge(x, w1, "post")
	p.AddEdge(y, w2, "post")
	p.AddEdge(w2, w1, "opposite")
	p.AddEdge(w1, f, "about")
	return gfd.MustNew("phi4", p,
		[]gfd.Literal{gfd.Vars(w1, "topic", w2, "topic")},
		[]gfd.Literal{gfd.Const(w2, "trust", "low")})
}

func main() {
	rules := gfd.NewSet(phi4())

	// A small social graph: a database researcher and a politician blog
	// about the future of databases (the paper's own example).
	b := graph.NewBuilder(0)
	scientist := b.AddNode("person")
	politician := b.AddNode("person")
	db := b.AddNode("field")
	b.AddEdge(scientist, db, "expertIn")
	b1 := b.AddNodeWithAttrs("blog", map[string]string{"topic": "future-of-db"})
	b2 := b.AddNodeWithAttrs("blog", map[string]string{"topic": "future-of-db"})
	b.AddEdge(scientist, b1, "post")
	b.AddEdge(politician, b2, "post")
	b.AddEdge(b2, b1, "opposite")
	b.AddEdge(b1, db, "about")
	g := b.Freeze()

	// The graph does not yet record trust: ϕ4 flags b2. The repair is an
	// edit in a delta over the graph, read through its overlay.
	repair := graph.NewDelta(g)
	if ok, v := core.Satisfies(g, rules); !ok {
		fmt.Printf("moderation hit: blog %d should be trust=low (rule %s)\n",
			v.Match[4], v.GFD.Name)
		repair.SetAttr(v.Match[4], "trust", "low")
	}
	if ok, _ := core.Satisfies(repair.Overlay(), rules); ok {
		fmt.Println("after repair the graph satisfies the rules")
	}

	// Rule evolution: a proposed rule says expert-opposed blogs are
	// high-trust when verified. Check the combined set is still
	// satisfiable before deployment — with ParSat, as a moderation service
	// would at scale.
	p := pattern.New()
	w := p.AddVar("w", "blog")
	proposed := gfd.MustNew("verified-high", p,
		[]gfd.Literal{gfd.Const(w, "verified", "yes")},
		[]gfd.Literal{gfd.Const(w, "trust", "high")})

	res := core.ParSat(gfd.NewSet(phi4(), proposed), core.DefaultParOptions(4))
	fmt.Printf("rule set with verified-high is consistent: %v\n", res.Satisfiable)

	// A bad pair marks every blog both low and high unconditionally — the
	// satisfiability check catches the conflict before deployment.
	mkAll := func(name, trust string) *gfd.GFD {
		q := pattern.New()
		v := q.AddVar("w", "blog")
		return gfd.MustNew(name, q, nil, []gfd.Literal{gfd.Const(v, "trust", trust)})
	}
	res = core.ParSat(gfd.NewSet(phi4(), mkAll("always-high", "high"), mkAll("always-low", "low")), core.DefaultParOptions(4))
	fmt.Printf("rule set with always-high + always-low is consistent: %v", res.Satisfiable)
	if !res.Satisfiable {
		fmt.Printf("  (conflict: %v)", res.Conflict)
	}
	fmt.Println()
}
