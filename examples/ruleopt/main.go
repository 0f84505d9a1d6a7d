// Ruleopt demonstrates the paper's optimization use case for implication
// (Section I): a rule-based cleaning pipeline prunes the redundant rules of
// its GFD set — those implied by the rest of the set — so downstream error
// detection enforces fewer rules with the same power.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
)

func main() {
	// A YAGO2-profile rule set and a graph satisfying it. The set is drawn
	// first: it fixes the attribute values the graph is materialized with.
	prof := dataset.YAGO2()
	gr := gen.New(gen.Config{Profile: prof, Seed: 42})
	rules := gr.SharedValidationSet(5, 8)
	g := gr.ConsistentGraph(400)
	if vs := core.Violations(g, rules); len(vs) > 0 {
		log.Fatalf("the base graph violates its own rules (%d violations)", len(vs))
	}
	fmt.Printf("%d rules hold on a clean %d-node %s-profile graph\n", rules.Len(), g.NumNodes(), prof.Name)

	// Rule authors also add hand-written variants; some are redundant —
	// implied by the set. Weakened copies of its rules (stronger
	// antecedent, partial consequent) model that.
	candidates := append([]*gfd.GFD{}, rules.GFDs...)
	for i := 0; i < 5 && i < rules.Len(); i++ {
		base := rules.GFDs[i*7%rules.Len()]
		weak := gfd.MustNew(base.Name+"-manual", base.Pattern,
			append(append([]gfd.Literal{}, base.X...), gfd.Const(0, "extraCond", "yes")),
			base.Y[:1])
		candidates = append(candidates, weak)
	}
	fmt.Printf("rule candidates after manual additions: %d\n", len(candidates))

	// Prune: a rule implied by the others is redundant. Greedy backward
	// elimination with ParImp.
	kept := append([]*gfd.GFD{}, candidates...)
	removed := 0
	opt := core.DefaultParOptions(4)
	for i := 0; i < len(kept); {
		candidate := kept[i]
		rest := gfd.NewSet(append(append([]*gfd.GFD{}, kept[:i]...), kept[i+1:]...)...)
		if core.ParImp(rest, candidate, opt).Implied {
			kept = append(kept[:i], kept[i+1:]...)
			removed++
			continue
		}
		i++
	}
	fmt.Printf("pruned %d redundant rules; %d remain\n", removed, len(kept))
	if removed == 0 {
		log.Fatalf("no rule was pruned although the manual variants are implied by construction")
	}

	// The pruned set keeps the detection power: seed an error and compare.
	// Corrupt every attribute of a few nodes, through a delta over the
	// clean graph, to create violations deterministically (constant rules
	// on those labels must now fail).
	d := graph.NewDelta(g)
	for n := 0; n < 3 && n < g.NumNodes(); n++ {
		for a := range g.Attrs(graph.NodeID(n)) {
			d.SetAttr(graph.NodeID(n), a, "corrupted")
		}
	}
	dirty := d.Overlay()
	full := core.Violations(dirty, gfd.NewSet(candidates...))
	pruned := core.Violations(dirty, gfd.NewSet(kept...))
	fmt.Printf("violations found: full set %d, pruned set %d\n", len(full), len(pruned))
	if len(full) == 0 || len(pruned) == 0 {
		log.Fatalf("the seeded error went undetected (full set %d, pruned set %d violations)", len(full), len(pruned))
	}
	fmt.Println("pruned set preserves detection power on this error")
}
