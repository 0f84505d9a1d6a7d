// Package discovery is a frequent-GFD miner: the substrate standing in for
// the (unpublished) discovery algorithm of the paper's reference [23], which
// produced the real-life GFD sets the experiments reason about.
//
// The miner is deliberately modest but honest: it finds frequent edge
// triples, grows them into connected patterns up to k nodes, enumerates
// (capped) match sets, and induces attribute dependencies that hold on every
// match — constant rules (∅ → x.A = c), equality rules (x.A = y.B), and
// CFD-style conditional rules (x.A = c → y.B = d) where the antecedent
// value functionally determines the consequent value. Every emitted GFD is
// validated against the input graph, so mined sets are satisfiable (the
// graph is a model when every pattern matches, which holds by construction).
package discovery

import (
	"fmt"
	"sort"

	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// Config bounds the mining process.
type Config struct {
	// MinSupport is the minimum number of occurrences for a frequent edge
	// triple and the minimum number of matches for a rule.
	MinSupport int
	// MaxK bounds pattern size in nodes (the paper's k, up to 6).
	MaxK int
	// MaxPatterns bounds how many patterns are grown.
	MaxPatterns int
	// MaxMatches caps match enumeration per pattern.
	MaxMatches int
	// MaxRules caps the total number of mined GFDs.
	MaxRules int
}

func (c Config) withDefaults() Config {
	if c.MinSupport <= 0 {
		c.MinSupport = 3
	}
	if c.MaxK <= 0 {
		c.MaxK = 4
	}
	if c.MaxPatterns <= 0 {
		c.MaxPatterns = 40
	}
	if c.MaxMatches <= 0 {
		c.MaxMatches = 2000
	}
	if c.MaxRules <= 0 {
		c.MaxRules = 200
	}
	return c
}

type triple struct {
	src, label, dst string
}

// Mine discovers a set of GFDs that hold on g.
func Mine(g graph.Reader, cfg Config) *gfd.Set {
	cfg = cfg.withDefaults()
	freq := frequentTriples(g, cfg.MinSupport)
	patterns := growPatterns(freq, cfg)
	set := gfd.NewSet()
	ruleID := 0
	for _, p := range patterns {
		if set.Len() >= cfg.MaxRules {
			break
		}
		ms := sampleMatches(p, g, cfg.MaxMatches)
		if len(ms) < cfg.MinSupport {
			continue
		}
		for _, r := range induceRules(p, g, ms, cfg) {
			if set.Len() >= cfg.MaxRules {
				break
			}
			r.Name = fmt.Sprintf("mined%d", ruleID)
			ruleID++
			set.Add(r)
		}
	}
	return set
}

// frequentTriples counts (srcLabel, edgeLabel, dstLabel) occurrences and
// returns those meeting the support threshold, most frequent first.
func frequentTriples(g graph.Reader, minSupport int) []triple {
	counts := make(map[triple]int)
	for v := 0; v < g.NumNodes(); v++ {
		for _, e := range g.Out(graph.NodeID(v)) {
			t := triple{src: g.Label(e.From), label: e.Label, dst: g.Label(e.To)}
			counts[t]++
		}
	}
	var out []triple
	for t, c := range counts {
		if c >= minSupport {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if counts[out[i]] != counts[out[j]] {
			return counts[out[i]] > counts[out[j]]
		}
		return lessTriple(out[i], out[j])
	})
	return out
}

func lessTriple(a, b triple) bool {
	if a.src != b.src {
		return a.src < b.src
	}
	if a.label != b.label {
		return a.label < b.label
	}
	return a.dst < b.dst
}

// growPatterns turns frequent triples into connected patterns: each seed
// triple is one 2-node pattern; larger patterns extend a seed along further
// frequent triples up to MaxK nodes.
func growPatterns(freq []triple, cfg Config) []*pattern.Pattern {
	var out []*pattern.Pattern
	for _, t := range freq {
		if len(out) >= cfg.MaxPatterns {
			break
		}
		p := pattern.New()
		x := p.AddVar("x0", t.src)
		y := p.AddVar("x1", t.dst)
		p.AddEdge(x, y, t.label)
		out = append(out, p)
	}
	// One extension round: attach a third/fourth node to each 2-node seed.
	if cfg.MaxK >= 3 {
		var grown []*pattern.Pattern
		for _, p := range out {
			if len(out)+len(grown) >= cfg.MaxPatterns {
				break
			}
			lastLabel := p.Label(1)
			for _, t := range freq {
				if t.src != lastLabel {
					continue
				}
				q := pattern.New()
				x := q.AddVar("x0", p.Label(0))
				y := q.AddVar("x1", p.Label(1))
				z := q.AddVar("x2", t.dst)
				q.AddEdge(x, y, p.Edges()[0].Label)
				q.AddEdge(y, z, t.label)
				grown = append(grown, q)
				break
			}
		}
		out = append(out, grown...)
	}
	return out
}

// sampleMatches enumerates up to limit matches of p in g.
func sampleMatches(p *pattern.Pattern, g graph.Reader, limit int) []match.Assignment {
	s := match.NewSearch(p, g, match.Options{})
	var out []match.Assignment
	for len(out) < limit {
		h, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, h.Clone()) // the sample outlives the search
	}
	return out
}

// induceRules derives dependencies that hold on every sampled match and
// validates them on the full graph.
func induceRules(p *pattern.Pattern, g graph.Reader, ms []match.Assignment, cfg Config) []*gfd.GFD {
	var rules []*gfd.GFD
	attrsOf := func(v pattern.Var) []string {
		// Attributes present at every match image of v.
		counts := make(map[string]int)
		for _, h := range ms {
			for a := range g.Attrs(h[v]) {
				counts[a]++
			}
		}
		var out []string
		for a, c := range counts {
			if c == len(ms) {
				out = append(out, a)
			}
		}
		sort.Strings(out)
		return out
	}
	validate := func(r *gfd.GFD) bool { return satisfies(g, r) }

	for v := 0; v < p.NumVars(); v++ {
		x := pattern.Var(v)
		for _, a := range attrsOf(x) {
			// Constant rule: x.A = c across all matches.
			val, constant := "", true
			for i, h := range ms {
				got, _ := g.Attr(h[x], a)
				if i == 0 {
					val = got
				} else if got != val {
					constant = false
					break
				}
			}
			if constant {
				r, err := gfd.New("", clonePattern(p), nil, []gfd.Literal{gfd.Const(x, a, val)})
				if err == nil && validate(r) {
					rules = append(rules, r)
				}
				continue
			}
			// Conditional and equality rules against other variables.
			for w := 0; w < p.NumVars(); w++ {
				y := pattern.Var(w)
				for _, b := range attrsOf(y) {
					if x == y && a == b {
						continue
					}
					rules = append(rules, mineDependency(p, g, ms, x, a, y, b, cfg, validate)...)
				}
			}
		}
	}
	return rules
}

// mineDependency looks at the value pairs of (x.A, y.B) across matches and
// emits an equality rule when always equal, or conditional rules when x.A's
// value functionally determines y.B's.
func mineDependency(p *pattern.Pattern, g graph.Reader, ms []match.Assignment, x pattern.Var, a string, y pattern.Var, b string, cfg Config, validate func(*gfd.GFD) bool) []*gfd.GFD {
	equal := true
	determines := true
	image := make(map[string]string)
	for _, h := range ms {
		va, _ := g.Attr(h[x], a)
		vb, _ := g.Attr(h[y], b)
		if va != vb {
			equal = false
		}
		if prev, seen := image[va]; seen && prev != vb {
			determines = false
			break
		}
		image[va] = vb
	}
	var out []*gfd.GFD
	if equal {
		r, err := gfd.New("", clonePattern(p), nil, []gfd.Literal{gfd.Vars(x, a, y, b)})
		if err == nil && validate(r) {
			out = append(out, r)
		}
		return out
	}
	if determines && len(image) > 1 && len(image) <= 4 {
		keys := make([]string, 0, len(image))
		for c := range image {
			keys = append(keys, c)
		}
		sort.Strings(keys)
		for _, c := range keys {
			r, err := gfd.New("", clonePattern(p),
				[]gfd.Literal{gfd.Const(x, a, c)},
				[]gfd.Literal{gfd.Const(y, b, image[c])})
			if err == nil && validate(r) {
				out = append(out, r)
			}
		}
	}
	return out
}

// clonePattern copies p so each rule owns its pattern (Σ construction
// assumes renaming-apart, which canonical graphs do by node offsets).
func clonePattern(p *pattern.Pattern) *pattern.Pattern {
	q := pattern.New()
	for i := 0; i < p.NumVars(); i++ {
		q.AddVar(p.Name(pattern.Var(i)), p.Label(pattern.Var(i)))
	}
	for _, e := range p.Edges() {
		q.AddEdge(e.From, e.To, e.Label)
	}
	return q
}

// satisfies is a local copy of the model-check oracle to avoid importing
// core (which would invert the dependency layering).
func satisfies(g graph.Reader, phi *gfd.GFD) bool {
	s := match.NewSearch(phi.Pattern, g, match.Options{})
	for {
		h, ok := s.Next()
		if !ok {
			return true
		}
		if holds(g, h, phi.X) && !holds(g, h, phi.Y) {
			return false
		}
	}
}

func holds(g graph.Reader, h match.Assignment, ls []gfd.Literal) bool {
	for _, l := range ls {
		switch l.Kind {
		case gfd.ConstLiteral:
			v, ok := g.Attr(h[l.X], l.A)
			if !ok || v != l.Const {
				return false
			}
		case gfd.VarLiteral:
			v1, ok1 := g.Attr(h[l.X], l.A)
			v2, ok2 := g.Attr(h[l.Y], l.B)
			if !ok1 || !ok2 || v1 != v2 {
				return false
			}
		}
	}
	return true
}
