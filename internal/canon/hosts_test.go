package canon

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

var (
	fuzzNodeLabels = []string{"a", "b", graph.Wildcard}
	fuzzEdgeLabels = []string{"e", "f", graph.Wildcard}
)

// patternFromBytes decodes fuzz bytes into a pattern of at most max
// variables, in FuzzSimulate's encoding (internal/match): the first byte
// picks the variable count, the next one per variable its label, and every
// following triple an edge (from, to, label), all reduced modulo the valid
// range so arbitrary inputs decode.
func patternFromBytes(b []byte, max int) *pattern.Pattern {
	n := 1
	if len(b) > 0 {
		n, b = 1+int(b[0])%max, b[1:]
	}
	p := pattern.New()
	for i := 0; i < n; i++ {
		l := 0
		if len(b) > 0 {
			l, b = int(b[0]), b[1:]
		}
		p.AddVar(fmt.Sprintf("x%d", i), fuzzNodeLabels[l%len(fuzzNodeLabels)])
	}
	for ; len(b) >= 3; b = b[3:] {
		p.AddEdge(pattern.Var(int(b[0])%n), pattern.Var(int(b[1])%n), fuzzEdgeLabels[int(b[2])%len(fuzzEdgeLabels)])
	}
	return p
}

// componentPattern returns component comp of p as a pattern of its own.
func componentPattern(p *pattern.Pattern, comp []pattern.Var) *pattern.Pattern {
	q := pattern.New()
	for _, v := range comp {
		q.AddVar(p.Name(v), p.Label(v))
	}
	at := func(v pattern.Var) pattern.Var { i, _ := slices.BinarySearch(comp, v); return pattern.Var(i) }
	for _, v := range comp {
		for _, e := range p.Out(v) {
			q.AddEdge(at(e.From), at(e.To), e.Label)
		}
	}
	return q
}

// naiveHosts is the definition hostIndex.hosts implements, pair by pair:
// the copies of Σ holding, for every edge of component comp of p, an edge
// whose three labels the pattern edge's labels match.
func naiveHosts(set *gfd.Set, p *pattern.Pattern, comp []pattern.Var) []int32 {
	fits := func(e pattern.Edge, q *pattern.Pattern) bool {
		for _, d := range q.Edges() {
			if pattern.LabelMatches(e.Label, d.Label) &&
				pattern.LabelMatches(p.Label(e.From), q.Label(d.From)) &&
				pattern.LabelMatches(p.Label(e.To), q.Label(d.To)) {
				return true
			}
		}
		return false
	}
	hosts := []int32{}
	for c, phi := range set.GFDs {
		ok := true
		for _, v := range comp {
			for _, e := range p.Out(v) {
				ok = ok && fits(e, phi.Pattern)
			}
		}
		if ok {
			hosts = append(hosts, int32(c))
		}
	}
	return hosts
}

// FuzzHostIndex pins the host index behind Sigma.Scope on arbitrary small
// Σ of three patterns, queried with each of them and with a fourth pattern:
// every edged component's hosts equal the naive pairwise list, and the copies
// whose G^X_Q Admits the component; a search rooted in the scope enumerates
// what one rooted in the label index does, in the same order; and the
// simulation started from the scope equals the one started from the label
// index. CI replays the seed corpus deterministically (see ci.yml); run with
// -fuzz=FuzzHostIndex to explore.
func FuzzHostIndex(f *testing.F) {
	// Node labels: 0 a, 1 b, 2 _; edge labels: 0 e, 1 f, 2 _.
	ab := []byte{1, 0, 1, 0, 1, 0}                 // a -e-> b
	wb := []byte{1, 2, 1, 0, 1, 0}                 // _ -e-> b: a '_' node of G_Σ
	aWild := []byte{1, 0, 1, 0, 1, 2}              // a -_-> b: a '_' edge of G_Σ
	loop := []byte{0, 0, 0, 0, 1}                  // a -f-> itself
	split := []byte{3, 0, 1, 2, 0, 0, 1, 0}        // a -e-> b, and _ , a alone
	two := []byte{3, 0, 1, 1, 2, 0, 1, 0, 2, 3, 1} // a -e-> b, b -f-> _
	for _, seed := range [][4][]byte{
		{ab, wb, aWild, ab},
		{ab, wb, aWild, wb},
		{ab, wb, aWild, aWild},
		{ab, loop, split, {0, 2}},
		{split, two, ab, two},
		{two, two, loop, {2, 2, 2, 0, 1, 2, 1, 0, 2}},
		{{}, {}, {}, {}},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, c0, c1, c2, query []byte) {
		set := gfd.NewSet()
		for i, b := range [][]byte{c0, c1, c2} {
			set.Add(bare(fmt.Sprintf("c%d", i), patternFromBytes(b, 4)))
		}
		cs := BuildSigma(set)
		g := cs.Graph.Frozen()
		sim := match.NewSimulator(g)
		for _, p := range []*pattern.Pattern{set.GFDs[0].Pattern, set.GFDs[1].Pattern, set.GFDs[2].Pattern, patternFromBytes(query, 4)} {
			for _, comp := range p.Components() {
				got, edged := cs.hosts.hosts(p, comp)
				if !edged {
					if len(p.Out(comp[0]))+len(p.In(comp[0])) > 0 || got != nil {
						t.Fatalf("%s, component %v: edged = false, hosts %v", p, comp, got)
					}
					continue
				}
				want := naiveHosts(set, p, comp)
				if !slices.Equal(got, want) {
					t.Fatalf("%s, component %v: hosts %v, naive %v", p, comp, got, want)
				}
				sub := componentPattern(p, comp)
				for c, phi := range set.GFDs {
					if BuildPhi(phi).Admits(sub) != slices.Contains(want, int32(c)) {
						t.Fatalf("%s, component %v: copy %d's Admits disagrees with hosts %v", p, comp, c, want)
					}
				}
			}

			full := match.FindAll(p, g)
			scope, ok := cs.Scope(p)
			var scoped []match.Assignment
			if ok {
				order := match.DefaultOrder(p)
				s := match.NewSearch(p, g, match.Options{Order: order, RootCandidates: scope[order[0]]})
				for h, more := s.Next(); more; h, more = s.Next() {
					scoped = append(scoped, h.Clone())
				}
			}
			if !slices.EqualFunc(scoped, full, slices.Equal) {
				t.Fatalf("%s: scoped search %v, full %v", p, scoped, full)
			}

			wantSim := match.Simulate(p, g)
			var gotSim *match.Sim
			if ok {
				gotSim = sim.Simulate(p, scope)
			}
			if (gotSim == nil) != (wantSim == nil) {
				t.Fatalf("%s: scoped simulation exists = %v, full %v", p, gotSim != nil, wantSim != nil)
			}
			for v := 0; gotSim != nil && v < p.NumVars(); v++ {
				if got, want := gotSim.Nodes(pattern.Var(v)), wantSim.Nodes(pattern.Var(v)); !slices.Equal(got, want) {
					t.Fatalf("%s: scoped sim(x%d) = %v, full %v", p, v, got, want)
				}
			}
		}
	})
}
