// Package gen is the GFD generator of Section VII: it produces sets Σ of
// GFDs Q[x̄](X → Y) controlled by (a) |Σ|, (b) the maximum number k of
// pattern nodes, and (c) the maximum number l of literals in X and Y,
// seeded with the node labels, frequent edges and active attributes of a
// dataset profile.
//
// Satisfiability control. The generator maintains a hidden value function
// W(label, attr) → constant. A "consistent" GFD only asserts literals that
// agree with W (constant literals use W's value; variable literals relate
// attribute pairs with equal W values), so the population assigning every
// x.A := W(L(x), A) is a model of any set of consistent GFDs: generated
// sets are satisfiable by construction. Injecting conflicts (GFDs that
// contradict W on patterns guaranteed to match) makes sets unsatisfiable by
// construction — both directions have ground truth without solving the
// coNP-hard problem.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// newGFD routes GFD construction through the error-returning gfd.New
// (gfd.MustNew is a test/example helper). The generator only ever builds
// literals over its own patterns' declared variables, so a validation
// failure is a generator bug and is asserted as such rather than silently
// dropped.
func newGFD(name string, p *pattern.Pattern, xs, ys []gfd.Literal) *gfd.GFD {
	phi, err := gfd.New(name, p, xs, ys)
	if err != nil {
		panic(fmt.Sprintf("gen: generated an invalid GFD: %v", err))
	}
	return phi
}

// Config controls generation.
type Config struct {
	// N is |Σ|, the number of GFDs (paper: up to 10000).
	N int
	// K is the maximum number of pattern nodes (paper: up to 6; varied 2–10
	// in Exp-3).
	K int
	// L is the maximum number of literals in X and in Y (paper: up to 5).
	L int
	// Profile seeds labels, edge labels and attributes; nil means DBpedia.
	Profile *dataset.Profile
	// Conflicts injects this many W-contradicting GFDs (0 = satisfiable by
	// construction). The paper expands mined sets with up to 10 random GFDs
	// to test satisfiability.
	Conflicts int
	// WildcardRate is the probability a pattern node is labeled '_'.
	WildcardRate float64
	// EmptyXRate is the probability a GFD has an empty antecedent.
	EmptyXRate float64
	Seed       int64
}

func (c Config) withDefaults() Config {
	if c.N <= 0 {
		c.N = 100
	}
	if c.K < 1 {
		c.K = 4
	}
	if c.L < 1 {
		c.L = 3
	}
	if c.Profile == nil {
		c.Profile = dataset.DBpedia()
	}
	if c.WildcardRate == 0 {
		c.WildcardRate = 0.1
	}
	if c.EmptyXRate == 0 {
		c.EmptyXRate = 0.3
	}
	return c
}

// Generator produces GFDs and remembers the hidden value function W so
// callers can also materialize consistent data graphs and implication
// instances.
type Generator struct {
	cfg Config
	rng *rand.Rand
	// w is the hidden value function W(label, attr) → constant, extended
	// lazily. Wildcard labels share one global row so consistency holds for
	// every instantiation.
	w map[[2]string]string
	// frequentEdges is a small pool of (srcLabel, edgeLabel, dstLabel)
	// triples reused across patterns, mimicking mined frequent edges: it
	// makes patterns overlap, which is what makes reasoning interact.
	frequentEdges [][3]string
}

// New constructs a Generator.
func New(cfg Config) *Generator {
	cfg = cfg.withDefaults()
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), w: make(map[[2]string]string)}
	// Frequent-edge pool: a small schema of (srcLabel, edgeLabel, dstLabel)
	// triples over the most frequent labels. Every generated pattern is a
	// walk in this schema, so patterns of different GFDs share subpatterns
	// and genuinely interact in the canonical graph — the property mined
	// GFD sets have and the reasoning algorithms are stressed by.
	pool := 12 + cfg.N/200
	if pool > 48 {
		pool = 48
	}
	edgeHead := len(cfg.Profile.EdgeLabels)
	if edgeHead > 8 {
		edgeHead = 8
	}
	for i := 0; i < pool; i++ {
		src := g.headLabel()
		dst := g.headLabel()
		el := cfg.Profile.EdgeLabels[g.rng.Intn(edgeHead)]
		g.frequentEdges = append(g.frequentEdges, [3]string{src, el, dst})
	}
	return g
}

// Schema returns a copy of the generator's frequent-edge pool: the
// (srcLabel, edgeLabel, dstLabel) triples every generated pattern walks.
// Callers use it to build workload-aligned probe patterns (e.g. the cycle
// patterns of the matching benchmarks) without reaching into the pool.
func (g *Generator) Schema() [][3]string {
	return append([][3]string(nil), g.frequentEdges...)
}

// SchemaTriangles enumerates triangle patterns x-[l1]->y-[l2]->z closed by
// a schema edge between x and z (either direction), up to max distinct
// patterns. Triangles are the canonical rejection-heavy matching workload:
// on a dense data graph the closing edge is satisfied by only a few percent
// of the two-hop paths, so the pattern-matching benchmarks use them to
// measure filtering cost rather than match materialization.
func SchemaTriangles(schema [][3]string, max int) []*pattern.Pattern {
	var ps []*pattern.Pattern
	seen := make(map[string]bool)
	for _, t1 := range schema {
		for _, t2 := range schema {
			if t2[0] != t1[2] {
				continue
			}
			for _, t3 := range schema {
				fwd := t3[0] == t1[0] && t3[2] == t2[2]
				rev := t3[0] == t2[2] && t3[2] == t1[0]
				if !fwd && !rev {
					continue
				}
				key := fmt.Sprint(t1, t2, t3, fwd)
				if seen[key] {
					continue
				}
				seen[key] = true
				p := pattern.New()
				x := p.AddVar("x", t1[0])
				y := p.AddVar("y", t1[2])
				z := p.AddVar("z", t2[2])
				p.AddEdge(x, y, t1[1])
				p.AddEdge(y, z, t2[1])
				if fwd {
					p.AddEdge(x, z, t3[1])
				} else {
					p.AddEdge(z, x, t3[1])
				}
				ps = append(ps, p)
				if len(ps) >= max {
					return ps
				}
			}
		}
	}
	return ps
}

// headLabel samples from the frequent (low-index) head of the label
// universe so patterns share labels and interact.
func (g *Generator) headLabel() string {
	labels := g.cfg.Profile.NodeLabels
	head := len(labels) / 25
	if head < 4 {
		head = 4
	}
	if head > len(labels) {
		head = len(labels)
	}
	return labels[g.rng.Intn(head)]
}

// wOf returns W(label, attr), extending W lazily with a fresh constant.
// The wildcard label is collapsed to a single row, so a wildcard node's
// asserted values agree across all labels it may match.
func (g *Generator) wOf(label, attr string) string {
	key := [2]string{graph.Wildcard, attr}
	if label != graph.Wildcard {
		// Wildcard rows take precedence: once any wildcard literal uses
		// attr, every label shares its value for attr. Conservative but
		// guarantees consistency.
		if v, ok := g.w[key]; ok {
			return v
		}
		key = [2]string{label, attr}
	}
	if v, ok := g.w[key]; ok {
		return v
	}
	v := fmt.Sprintf("w%d", len(g.w))
	g.w[key] = v
	return v
}

// wOfWildcardAware: when asserting on a wildcard variable, force the global
// row and migrate nothing (existing per-label rows may disagree; avoid by
// only using per-label rows for concrete labels that have not been asserted
// via wildcard). To keep the invariant simple, wildcard literals always use
// attributes from a reserved disjoint slice of the attribute universe.
func (g *Generator) attrFor(label string) string {
	attrs := g.cfg.Profile.Attrs
	if len(attrs) < 2 {
		return attrs[0]
	}
	half := len(attrs) / 2
	if label == graph.Wildcard {
		// Reserved wildcard attribute range.
		return attrs[g.rng.Intn(half)]
	}
	return attrs[half+g.rng.Intn(len(attrs)-half)]
}

// Pattern generates a connected random pattern with between 2 and K nodes
// (or 1 when K==1), grown as a walk in the frequent-edge schema: each new
// variable extends an existing one along a schema triple whose source (or
// destination) label matches, so labels and edge labels stay schema-
// consistent and patterns embed into each other's canonical-graph copies.
func (g *Generator) Pattern() *pattern.Pattern {
	k := 1
	if g.cfg.K > 1 {
		k = 2 + g.rng.Intn(g.cfg.K-1)
	}
	p := pattern.New()
	labels := make([]string, 0, k)
	add := func(label string) pattern.Var {
		v := p.AddVar(fmt.Sprintf("x%d", len(labels)), label)
		labels = append(labels, label)
		return v
	}
	seed := g.frequentEdges[g.rng.Intn(len(g.frequentEdges))]
	if k == 1 {
		add(seed[0])
	} else {
		x := add(seed[0])
		y := add(seed[2])
		p.AddEdge(x, y, seed[1])
	}
	for len(labels) < k {
		// Extend a random existing variable along a matching schema triple.
		vi := g.rng.Intn(len(labels))
		fes := g.triplesAt(labels[vi])
		if len(fes) == 0 {
			// No schema triple touches this label (possible for wildcarded
			// labels); extend from variable 0 instead.
			vi = 0
			fes = g.triplesAt(labels[0])
			if len(fes) == 0 {
				break
			}
		}
		fe := fes[g.rng.Intn(len(fes))]
		if fe[0] == labels[vi] {
			w := add(fe[2])
			p.AddEdge(pattern.Var(vi), w, fe[1])
		} else {
			w := add(fe[0])
			p.AddEdge(w, pattern.Var(vi), fe[1])
		}
	}
	// Occasionally close a cycle along a schema triple between existing
	// variables, as real mined patterns have (e.g. Q1's locatedIn/partOf).
	if len(labels) > 1 && g.rng.Intn(3) == 0 {
		a := g.rng.Intn(len(labels))
		b := g.rng.Intn(len(labels))
		for _, fe := range g.triplesAt(labels[a]) {
			if fe[0] == labels[a] && fe[2] == labels[b] {
				p.AddEdge(pattern.Var(a), pattern.Var(b), fe[1])
				break
			}
		}
	}
	// Wildcard relabeling happens only now: '_' still matches everything a
	// concrete label would, so schema consistency is preserved. Relabeling
	// in place is impossible on the immutable pattern, so wildcards are
	// decided before AddVar via the rate — emulated here by rebuilding.
	if g.cfg.WildcardRate > 0 {
		rebuilt := pattern.New()
		for i, l := range labels {
			if g.rng.Float64() < g.cfg.WildcardRate {
				l = graph.Wildcard
			}
			rebuilt.AddVar(fmt.Sprintf("x%d", i), l)
		}
		for _, e := range p.Edges() {
			rebuilt.AddEdge(e.From, e.To, e.Label)
		}
		return rebuilt
	}
	return p
}

// triplesAt returns the schema triples whose source or destination label is
// l.
func (g *Generator) triplesAt(l string) [][3]string {
	var out [][3]string
	for _, fe := range g.frequentEdges {
		if fe[0] == l || fe[2] == l {
			out = append(out, fe)
		}
	}
	return out
}

// consistentLiteral builds a literal that agrees with W over pattern p.
func (g *Generator) consistentLiteral(p *pattern.Pattern) gfd.Literal {
	x := pattern.Var(g.rng.Intn(p.NumVars()))
	lx := p.Label(x)
	a := g.attrFor(lx)
	if g.rng.Float64() < 0.3 && p.NumVars() > 1 {
		// Variable literal: find a (y, B) with W(ly,B) == W(lx,A). The
		// cheapest guaranteed-equal pair is the same attribute on a
		// same-label variable; otherwise force equality by defining W rows.
		y := pattern.Var(g.rng.Intn(p.NumVars()))
		ly := p.Label(y)
		if ly == lx {
			// Define the W row so consistent graphs materialize the
			// attribute (x.A = y.A needs A to exist, not just be equal).
			g.wOf(lx, a)
			return gfd.Vars(x, a, y, a)
		}
		// Align W rows: pick an attribute b for y and define W(ly,b) to be
		// W(lx,a) if unset; if both set and unequal, fall back to a constant
		// literal.
		b := g.attrFor(ly)
		va := g.wOf(lx, a)
		keyB := [2]string{ly, b}
		if ly == graph.Wildcard {
			keyB = [2]string{graph.Wildcard, b}
		}
		if vb, ok := g.w[keyB]; ok {
			if vb == va {
				return gfd.Vars(x, a, y, b)
			}
			return gfd.Const(x, a, va)
		}
		g.w[keyB] = va
		return gfd.Vars(x, a, y, b)
	}
	return gfd.Const(x, a, g.wOf(lx, a))
}

// GFD generates one W-consistent GFD.
func (g *Generator) GFD(name string) *gfd.GFD { return g.gfd(name, false) }

func (g *Generator) gfd(name string, forceEmptyX bool) *gfd.GFD {
	p := g.Pattern()
	var xs, ys []gfd.Literal
	if !forceEmptyX && g.rng.Float64() >= g.cfg.EmptyXRate {
		nx := 1 + g.rng.Intn(g.cfg.L)
		for i := 0; i < nx; i++ {
			xs = append(xs, g.consistentLiteral(p))
		}
	}
	ny := 1 + g.rng.Intn(g.cfg.L)
	for i := 0; i < ny; i++ {
		ys = append(ys, g.consistentLiteral(p))
	}
	return newGFD(name, p, xs, ys)
}

// anchorGFD builds a single-node, empty-antecedent, W-consistent GFD that
// injected conflicts negate: its pattern always matches in G_Σ (its own
// copy), so the contradiction is guaranteed to fire.
func (g *Generator) anchorGFD(name string) *gfd.GFD {
	p := pattern.New()
	p.AddVar("x", g.headLabel())
	a := g.attrFor(p.Label(0))
	return newGFD(name, p, nil, []gfd.Literal{gfd.Const(0, a, g.wOf(p.Label(0), a))})
}

// conflictGFD negates the anchor's constant literal on the same label.
func (g *Generator) conflictGFD(name string, anchor *gfd.GFD) *gfd.GFD {
	l := anchor.Y[0]
	p := pattern.New()
	p.AddVar("x", anchor.Pattern.Label(l.X))
	return newGFD(name, p, nil, []gfd.Literal{gfd.Const(0, l.A, l.Const+"'")})
}

// Set generates Σ per the configuration. With Conflicts == 0 the result is
// satisfiable by construction (the W population is a model); otherwise it is
// unsatisfiable by construction: an empty-antecedent anchor GFD is included
// and each injected conflict negates its constant on the same label.
func (g *Generator) Set() *gfd.Set {
	set := gfd.NewSet()
	n := g.cfg.N
	if g.cfg.Conflicts > 0 && n > 0 {
		n-- // the anchor takes one slot so |Σ| stays as configured
	}
	for i := 0; i < n; i++ {
		set.Add(g.GFD(fmt.Sprintf("gfd%d", i)))
	}
	if g.cfg.Conflicts > 0 {
		anchor := g.anchorGFD("anchor")
		set.Add(anchor)
		for i := 0; i < g.cfg.Conflicts; i++ {
			set.Add(g.conflictGFD(fmt.Sprintf("conflict%d", i), anchor))
		}
	}
	return set
}

// ImpliedGFD derives from Σ a GFD that Σ provably implies: it strengthens
// the antecedent and weakens the consequent of a member (Armstrong-style:
// Q[x̄](X → Y) implies Q[x̄](X∪Z → Y') for Y' ⊆ Y).
func (g *Generator) ImpliedGFD(set *gfd.Set) *gfd.GFD {
	base := set.GFDs[g.rng.Intn(set.Len())]
	xs := append([]gfd.Literal{}, base.X...)
	// Strengthen X with a consistent literal (on the same pattern).
	xs = append(xs, g.consistentLiteral(base.Pattern))
	ys := []gfd.Literal{base.Y[g.rng.Intn(len(base.Y))]}
	return newGFD(base.Name+"-implied", base.Pattern, xs, ys)
}

// ImpInstance builds an implication instance (Σ', φ) whose decision
// requires propagating a dependency chain of the given length: Σ' is a
// regular consistent set plus chainLen single-node GFDs
// ψ_i: x.a_i = W → x.a_{i+1} = W on a shared frequent label, listed in
// reverse order; φ's antecedent seeds the chain head and its consequent
// asks for a constant W never uses on the chain tail's attribute. The
// instance is not implied, but answering requires running the whole chain
// to the fixpoint — an ordered pass fires it once, while an unordered
// chase needs ~chainLen rounds (the structural gap behind the paper's
// SeqImp-vs-ParImpRDF comparison). Mined real-life rule sets have this
// interaction depth naturally.
func (g *Generator) ImpInstance(chainLen int) (*gfd.Set, *gfd.GFD) {
	if chainLen < 1 {
		chainLen = 4
	}
	attrs := g.cfg.Profile.Attrs
	half := len(attrs) / 2
	if chainLen+1 > len(attrs)-half {
		chainLen = len(attrs) - half - 1
	}
	label := g.headLabel()
	chainAttrs := attrs[half : half+chainLen+1]

	n := g.cfg.N - chainLen
	if n < 0 {
		n = 0
	}
	set := gfd.NewSet()
	for i := 0; i < n; i++ {
		set.Add(g.GFD(fmt.Sprintf("gfd%d", i)))
	}
	// Chain links, appended in reverse so list order is maximally unhelpful.
	for i := chainLen - 1; i >= 0; i-- {
		p := pattern.New()
		p.AddVar("x", label)
		set.Add(newGFD(fmt.Sprintf("chain%d", i), p,
			[]gfd.Literal{gfd.Const(0, chainAttrs[i], g.wOf(label, chainAttrs[i]))},
			[]gfd.Literal{gfd.Const(0, chainAttrs[i+1], g.wOf(label, chainAttrs[i+1]))}))
	}
	// φ seeds the chain head; its consequent is never deducible. Its
	// pattern is a full generated pattern (the canonical graph G^X_Q the
	// enforcement runs on) extended with a chain-labeled variable carrying
	// the seed, so the implication check does pattern-matching work
	// proportional to k like the satisfiability side.
	qp := g.Pattern()
	seedVar := qp.AddVar("seed", label)
	if qp.NumVars() > 1 {
		fe := g.triplesAt(label)
		if len(fe) > 0 && fe[0][0] == label {
			qp.AddEdge(seedVar, 0, fe[0][1])
		} else if len(fe) > 0 {
			qp.AddEdge(0, seedVar, fe[0][1])
		}
	}
	phi := newGFD("target", qp,
		[]gfd.Literal{gfd.Const(seedVar, chainAttrs[0], g.wOf(label, chainAttrs[0]))},
		[]gfd.Literal{gfd.Const(seedVar, chainAttrs[chainLen], "never")})
	return set, phi
}

// NonImpliedGFD builds a GFD almost surely not implied by a consistent Σ: a
// fresh pattern whose consequent asserts a constant W never uses.
func (g *Generator) NonImpliedGFD() *gfd.GFD {
	p := g.Pattern()
	x := pattern.Var(g.rng.Intn(p.NumVars()))
	a := g.attrFor(p.Label(x))
	return newGFD("non-implied", p, nil, []gfd.Literal{gfd.Const(x, a, "never")})
}

// ConsistentGraph materializes a data graph where every node's attributes
// follow W — a model-like graph for the mined-GFD scenario.
func (g *Generator) ConsistentGraph(nodes int) *graph.Graph {
	gr := graph.New()
	labels := g.consistentNodes(gr, nodes)
	g.consistentEdges(gr, labels)
	return gr
}

// consistentEdges links each node along the frequent-edge schema to the
// first node carrying the destination label.
func (g *Generator) consistentEdges(gr graph.Sink, labels []string) {
	first := make(map[string]graph.NodeID, 8)
	for i, l := range labels {
		if _, ok := first[l]; !ok {
			first[l] = graph.NodeID(i)
		}
	}
	for i := range labels {
		for _, fe := range g.frequentEdges {
			if fe[0] != labels[i] {
				continue
			}
			if j, ok := first[fe[2]]; ok {
				gr.AddEdge(graph.NodeID(i), j, fe[1])
			}
		}
	}
}

// consistentNodes appends nodes carrying profile labels and W-consistent
// attribute values into the build target — the shared substrate of the
// Consistent/Dense materializations. It returns each node's label.
func (g *Generator) consistentNodes(gr graph.Sink, nodes int) []string {
	labels := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		labels[i] = g.headLabel()
		id := gr.AddNode(labels[i])
		for _, a := range g.cfg.Profile.Attrs {
			// Only materialize attributes W knows for this label (or via
			// the wildcard row).
			if v, ok := g.w[[2]string{labels[i], a}]; ok {
				gr.SetAttr(id, a, v)
			} else if v, ok := g.w[[2]string{graph.Wildcard, a}]; ok {
				gr.SetAttr(id, a, v)
			}
		}
	}
	return labels
}

// DenseGraph materializes a consistent data graph like ConsistentGraph but
// label-dense: each node draws up to degree outgoing edges by sampling the
// schema triples at its label with replacement, each toward a uniformly
// random node carrying the destination label. The result stays a model of
// consistent GFDs (attributes follow W) while giving every label a large
// candidate set and every node a fat multi-label adjacency — the workload
// where matching cost is dominated by adjacency filtering.
func (g *Generator) DenseGraph(nodes, degree int) *graph.Graph {
	gr := graph.New()
	labels := g.consistentNodes(gr, nodes)
	g.denseEdges(gr, labels, degree)
	return gr
}

// DenseFrozen is DenseGraph through the bulk-load path: O(1) edge appends
// into a graph.Builder, sorted once at Freeze. Given the same generator
// state it draws the same nodes and edges as DenseGraph (pinned by the
// equivalence tests), making it the materialization for read-only
// consumers of large dense workloads. A caller that edits the graph before
// reading it (the CI workloads perturb attributes) starts from DenseGraph.
func (g *Generator) DenseFrozen(nodes, degree int) *graph.Frozen {
	b := graph.NewBuilder(nodes * degree)
	labels := g.consistentNodes(b, nodes)
	g.denseEdges(b, labels, degree)
	return b.Freeze()
}

// ValidationSet builds one empty-antecedent GFD per schema triangle (up to
// max), each asserting a W-consistent constant on the triangle's first
// variable. Calling it *before* materializing a Consistent/Dense graph
// forces the W rows those literals read, so the clean graph satisfies the
// set and violations appear exactly where later updates perturb attributes
// or close new triangles — the canonical validation workload for the
// incremental-revalidation benchmarks (a triangle at a touched node is
// found from that node, so the delta-scoped re-enumeration stays local).
func (g *Generator) ValidationSet(max int) *gfd.Set {
	set := gfd.NewSet()
	for i, p := range SchemaTriangles(g.frequentEdges, max) {
		a := g.attrFor(p.Label(0))
		set.Add(newGFD(fmt.Sprintf("tri%d", i), p, nil,
			[]gfd.Literal{gfd.Const(0, a, g.wOf(p.Label(0), a))}))
	}
	return set
}

// SharedValidationSet is ValidationSet with deliberate pattern sharing: up
// to maxPatterns schema triangles, each carried by perPattern GFDs with
// their own W-consistent literals. Members alternate between the shared
// pattern value and a rebuilt structurally equal copy with fresh variable
// names, so grouped evaluation must bucket by structure — pointer identity
// would split every other member off. Clean Consistent/Dense graphs
// materialized after this call satisfy the set (every literal agrees with
// W); perturbing attributes or closing triangles creates violations. This
// is the workload of the multi_gfd_speedup benchmark and the
// grouped-equivalence tests.
func (g *Generator) SharedValidationSet(maxPatterns, perPattern int) *gfd.Set {
	if perPattern < 1 {
		perPattern = 1
	}
	set := gfd.NewSet()
	for i, p := range SchemaTriangles(g.frequentEdges, maxPatterns) {
		for j := 0; j < perPattern; j++ {
			q := p
			if j%2 == 1 {
				q = renamedCopy(p, fmt.Sprintf("r%d_%d", i, j))
			}
			x := pattern.Var(j % q.NumVars())
			a := g.attrFor(q.Label(x))
			var xs []gfd.Literal
			if j%3 == 2 {
				xs = []gfd.Literal{g.consistentLiteral(q)}
			}
			set.Add(newGFD(fmt.Sprintf("tri%d_%d", i, j), q, xs,
				[]gfd.Literal{gfd.Const(x, a, g.wOf(q.Label(x), a))}))
		}
	}
	return set
}

// SharedSet is Set with deliberate pattern sharing for the reasoning
// algorithms: every member is followed by `copies` duplicates that keep its
// X → Y literals but carry a rebuilt, structurally equal pattern with fresh
// variable names. Satisfiability and implication answers are unchanged by
// construction (the duplicates assert what the originals already assert),
// so a run over the shared set must agree with the unshared semantics while
// enumerating each pattern shape once per group.
func (g *Generator) SharedSet(copies int) *gfd.Set {
	base := g.Set()
	if copies < 1 {
		return base
	}
	set := gfd.NewSet()
	for i, phi := range base.GFDs {
		set.Add(phi)
		for c := 1; c <= copies; c++ {
			q := renamedCopy(phi.Pattern, fmt.Sprintf("d%d_%d", i, c))
			set.Add(newGFD(fmt.Sprintf("%s-dup%d", phi.Name, c), q,
				append([]gfd.Literal{}, phi.X...),
				append([]gfd.Literal{}, phi.Y...)))
		}
	}
	return set
}

// renamedCopy rebuilds p with fresh variable names: a distinct,
// structurally equal pattern value.
func renamedCopy(p *pattern.Pattern, prefix string) *pattern.Pattern {
	q := pattern.New()
	for v := 0; v < p.NumVars(); v++ {
		q.AddVar(fmt.Sprintf("%s_%d", prefix, v), p.Label(pattern.Var(v)))
	}
	for _, e := range p.Edges() {
		q.AddEdge(e.From, e.To, e.Label)
	}
	return q
}

// MutateDelta applies n random updates to the delta, schema-consistent like
// the base materializations: added nodes carry W-consistent attributes and
// wire into the schema, added edges follow the frequent-edge triples,
// removals drop sampled base edges (and occasionally whole nodes), and
// attribute rewrites split between W-consistent values and fresh noise
// values that flip literal evaluations. The op mix mirrors a slowly
// changing graph: mostly edge churn, some attribute churn, rare node churn.
// The target is any graph.Mutator: a bare in-memory Delta, or a WAL fronting
// one — the latter persists the stream as it is generated, the fixture path
// for recovery tests and benchmarks.
func (g *Generator) MutateDelta(d graph.Mutator, n int) {
	base := d.Base()
	alive := func() (graph.NodeID, bool) {
		for try := 0; try < 16 && d.NumNodes() > 0; try++ {
			v := graph.NodeID(g.rng.Intn(d.NumNodes()))
			if d.Alive(v) {
				return v, true
			}
		}
		return 0, false
	}
	// Per-label candidate cache: CandidateNodes copies the label run on
	// every call (graph.Reader copy contract) and aliveTarget runs per op.
	// The base snapshot is immutable while the delta absorbs the updates,
	// so one copy per label serves the whole stream.
	candCache := map[string][]graph.NodeID{}
	aliveTarget := func(label string) (graph.NodeID, bool) {
		targets, ok := candCache[label]
		if !ok {
			targets = graph.CandidateNodes(base, label)
			candCache[label] = targets
		}
		for try := 0; try < 8 && len(targets) > 0; try++ {
			t := targets[g.rng.Intn(len(targets))]
			if d.Alive(t) {
				return t, true
			}
		}
		return 0, false
	}
	for i := 0; i < n; i++ {
		switch r := g.rng.Intn(100); {
		case r < 15: // add a node, schema-wired into the existing graph
			l := g.headLabel()
			id := d.AddNode(l)
			for _, a := range g.cfg.Profile.Attrs {
				if v, ok := g.w[[2]string{l, a}]; ok {
					d.SetAttr(id, a, v)
				} else if v, ok := g.w[[2]string{graph.Wildcard, a}]; ok {
					d.SetAttr(id, a, v)
				}
			}
			for _, fe := range g.triplesAt(l) {
				if fe[0] != l {
					continue
				}
				if t, ok := aliveTarget(fe[2]); ok {
					d.AddEdge(id, t, fe[1])
				}
			}
		case r < 45: // add a schema edge between existing nodes
			v, ok := alive()
			if !ok {
				continue
			}
			var fes [][3]string
			for _, fe := range g.triplesAt(d.Label(v)) {
				if fe[0] == d.Label(v) {
					fes = append(fes, fe)
				}
			}
			if len(fes) == 0 {
				continue
			}
			fe := fes[g.rng.Intn(len(fes))]
			if t, ok := aliveTarget(fe[2]); ok {
				d.AddEdge(v, t, fe[1])
			}
		case r < 65: // remove a sampled base edge (no-op if already gone)
			if base.NumNodes() == 0 {
				continue
			}
			v := graph.NodeID(g.rng.Intn(base.NumNodes()))
			es := base.Out(v)
			if len(es) == 0 {
				continue
			}
			e := es[g.rng.Intn(len(es))]
			d.RemoveEdge(e.From, e.To, e.Label)
		case r < 92: // attribute rewrite: half consistent, half noise
			v, ok := alive()
			if !ok {
				continue
			}
			attrs := g.cfg.Profile.Attrs
			a := attrs[g.rng.Intn(len(attrs))]
			if g.rng.Intn(2) == 0 {
				d.SetAttr(v, a, g.wOf(d.Label(v), a))
			} else {
				d.SetAttr(v, a, fmt.Sprintf("noise%d", g.rng.Intn(16)))
			}
		default: // remove a node outright
			if v, ok := alive(); ok {
				d.RemoveNode(v)
			}
		}
	}
}

// DenseDelta builds a fresh n-op update stream over the base snapshot; see
// MutateDelta for the op mix.
func (g *Generator) DenseDelta(base *graph.Frozen, n int) *graph.Delta {
	d := graph.NewDelta(base)
	g.MutateDelta(d, n)
	return d
}

// denseEdges draws the label-dense edge set into the build target.
func (g *Generator) denseEdges(gr graph.Sink, labels []string, degree int) {
	byLabel := make(map[string][]graph.NodeID, 8)
	for i, l := range labels {
		byLabel[l] = append(byLabel[l], graph.NodeID(i))
	}
	for i := range labels {
		var fes [][3]string
		for _, fe := range g.frequentEdges {
			if fe[0] == labels[i] && len(byLabel[fe[2]]) > 0 {
				fes = append(fes, fe)
			}
		}
		if len(fes) == 0 {
			continue
		}
		for d := 0; d < degree; d++ {
			fe := fes[g.rng.Intn(len(fes))]
			targets := byLabel[fe[2]]
			gr.AddEdge(graph.NodeID(i), targets[g.rng.Intn(len(targets))], fe[1])
		}
	}
}
