package core

// The reference chase: every engine against a naive chase that shares no
// code with them, on gen workloads, the paper's worked examples and
// hand-built Σs with disconnected patterns.

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/canon"
	"repro/internal/eq"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/oracle"
	"repro/internal/pattern"
)

// refChase is the naive chase the engines are checked against: every match
// of every GFD of Σ, found by the brute-force oracle, is enforced on a
// map-based union-find over terms until a pass over all of them changes
// nothing. It uses no match.Search, no eq.Eq and no pending index; eq.Term
// is only its key type.
type refChase struct {
	parent   map[eq.Term]eq.Term
	konst    map[eq.Term]string // at class roots
	conflict bool
}

func newRefChase() *refChase {
	return &refChase{parent: map[eq.Term]eq.Term{}, konst: map[eq.Term]string{}}
}

func (r *refChase) find(t eq.Term) eq.Term {
	for r.parent[t] != t {
		t = r.parent[t]
	}
	return t
}

func (r *refChase) has(t eq.Term) bool {
	_, ok := r.parent[t]
	return ok
}

// holds reports whether Eq deduces every literal of ls at h: a term's class
// must exist, a constant literal needs that constant on it, and a variable
// literal needs one class, or two classes with one constant.
func (r *refChase) holds(ls []gfd.Literal, h []graph.NodeID) bool {
	for _, l := range ls {
		t := eq.Term{Node: h[l.X], Attr: l.A}
		if !r.has(t) {
			return false
		}
		ct, okt := r.konst[r.find(t)]
		if l.Kind == gfd.ConstLiteral {
			if !okt || ct != l.Const {
				return false
			}
			continue
		}
		u := eq.Term{Node: h[l.Y], Attr: l.B}
		if !r.has(u) {
			return false
		}
		if cu, oku := r.konst[r.find(u)]; r.find(t) != r.find(u) && (!okt || !oku || ct != cu) {
			return false
		}
	}
	return true
}

// enforce applies literal l at h and reports whether Eq changed.
func (r *refChase) enforce(l gfd.Literal, h []graph.NodeID) bool {
	changed := false
	add := func(t eq.Term) eq.Term {
		if !r.has(t) {
			r.parent[t] = t
			changed = true
		}
		return r.find(t)
	}
	rt := add(eq.Term{Node: h[l.X], Attr: l.A})
	if l.Kind == gfd.ConstLiteral {
		return r.assign(rt, l.Const) || changed
	}
	ru := add(eq.Term{Node: h[l.Y], Attr: l.B})
	if rt == ru {
		return changed
	}
	r.parent[ru] = rt
	if c, ok := r.konst[ru]; ok {
		delete(r.konst, ru)
		r.assign(rt, c)
	}
	return true
}

func (r *refChase) assign(root eq.Term, c string) bool {
	old, ok := r.konst[root]
	if !ok {
		r.konst[root] = c
		return true
	}
	r.conflict = r.conflict || old != c
	return false
}

// run chases Σ on g to a fixpoint or the first conflict.
func (r *refChase) run(set *gfd.Set, g graph.Reader) {
	ms := make([][][]graph.NodeID, set.Len())
	for i, phi := range set.GFDs {
		ms[i] = oracle.Matches(phi.Pattern, g)
	}
	for changed := true; changed && !r.conflict; {
		changed = false
		for i, phi := range set.GFDs {
			for _, h := range ms[i] {
				if r.conflict || !r.holds(phi.X, h) {
					continue
				}
				for _, l := range phi.Y {
					changed = r.enforce(l, h) || changed
				}
			}
		}
	}
}

// classes renders the relation as eq.Eq.Classes does.
func (r *refChase) classes() string {
	members := map[eq.Term][]string{}
	for t := range r.parent {
		root := r.find(t)
		members[root] = append(members[root], t.String())
	}
	var lines []string
	for root, ms := range members {
		slices.Sort(ms)
		line := strings.Join(ms, ",")
		if c, ok := r.konst[root]; ok {
			line += "=" + c
		}
		lines = append(lines, line)
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// refSat is the reference answer to satisfiability: the chase of Σ on G_Σ.
func refSat(set *gfd.Set) (sat bool, classes string) {
	r := newRefChase()
	r.run(set, canon.BuildSigma(set).Graph)
	return !r.conflict, r.classes()
}

// refImp is the reference answer to Σ |= φ: the chase of Σ on G^X_Q from
// Eq_X, implied when it conflicts or deduces Y. It builds its own G^X_Q on a
// graph.Graph, so it does not share canon.BuildPhi's.
func refImp(set *gfd.Set, phi *gfd.GFD) bool {
	id := make([]graph.NodeID, phi.Pattern.NumVars())
	for v := range id {
		id[v] = graph.NodeID(v)
	}
	r := newRefChase()
	for _, l := range phi.X {
		r.enforce(l, id)
	}
	if !r.conflict && !r.holds(phi.Y, id) {
		g := graph.New()
		phi.Pattern.AppendTo(g)
		r.run(set, g)
	}
	return r.conflict || r.holds(phi.Y, id)
}

// classesOf renders term-disjoint relations as one, in eq.Eq.Classes' form.
func classesOf(rels []*eq.Eq) string {
	var lines []string
	for _, e := range rels {
		if c := e.Classes(); c != "" {
			lines = append(lines, strings.Split(c, "\n")...)
		}
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// refSatEngines runs Σ through SeqSat and ParSat at p ∈ {1, 2, 4} — at the
// default chunk size and at one copy a chunk, which cuts even a small G_Σ
// into many tasks, so coupled copies must be kept together by coupling.
// Which worker runs which chunk depends on the schedule, so the one-copy
// runs are repeated.
func refSatEngines(set *gfd.Set) map[string]*SatResult {
	out := map[string]*SatResult{"SeqSat": SeqSat(set)}
	for _, p := range []int{1, 2, 4} {
		out[fmt.Sprintf("ParSat p=%d", p)] = ParSat(set, DefaultParOptions(p))
		for rep := 0; rep < 8 && set.Len() > 0; rep++ {
			out[fmt.Sprintf("ParSat p=%d, 1 copy a chunk, run %d", p, rep)] = newSatEngine(DefaultParOptions(p), set).sat(1)
		}
	}
	return out
}

// checkAgainstRef compares every engine's satisfiability answer with the
// reference chase: the verdict, and on a satisfiable Σ the final classes,
// which ParSat splits over its workers' relations. It reports whether Σ was
// satisfiable.
func checkAgainstRef(t *testing.T, name string, set *gfd.Set) bool {
	t.Helper()
	sat, want := refSat(set)
	for engine, res := range refSatEngines(set) {
		if res.Err != nil || res.Satisfiable != sat {
			t.Errorf("%s, %s: satisfiable %v (err %v), reference %v\n%s", name, engine, res.Satisfiable, res.Err, sat, set)
			continue
		}
		if sat && set.Len() > 0 {
			if got := classesOf(res.witness.eqs); got != want {
				t.Errorf("%s, %s: final classes\n%s\nreference\n%s\nΣ:\n%s", name, engine, got, want, set)
			}
			if !IsModel(res.Model(), set) {
				t.Errorf("%s, %s: the witness is not a model", name, engine)
			}
		}
	}
	return sat
}

// checkImpAgainstRef compares every engine's implication verdict with the
// reference chase's. Which of a conflict and a deduction ends a run first
// may differ, so only Implied is compared.
func checkImpAgainstRef(t *testing.T, name string, set *gfd.Set, phi *gfd.GFD) bool {
	t.Helper()
	want := refImp(set, phi)
	engines := map[string]*ImpResult{"SeqImp": SeqImp(set, phi)}
	for _, p := range []int{1, 2, 4} {
		engines[fmt.Sprintf("ParImp p=%d", p)] = ParImp(set, phi, DefaultParOptions(p))
	}
	for engine, res := range engines {
		if res.Err != nil || res.Implied != want {
			t.Errorf("%s, %s: implied %v (%v, err %v), reference %v\nΣ:\n%sφ: %s", name, engine, res.Implied, res.Reason, res.Err, want, set, phi)
		}
	}
	return want
}

// disconnectedSets are hand-built Σs whose patterns have two components, one
// per way a literal can reach past the pivot's component, each with rules
// over the single components so that the disconnected rule joins terms of
// different copies of G_Σ. Each comes satisfiable and, with a conflicting
// rule added, unsatisfiable.
func disconnectedSets() map[string][2]*gfd.Set {
	node := func(label string) *pattern.Pattern {
		p := pattern.New()
		p.AddVar("x", label)
		return p
	}
	edge := func(from, to string) *pattern.Pattern {
		p := pattern.New()
		p.AddEdge(p.AddVar("x", from), p.AddVar("y", to), "e")
		return p
	}
	// two returns the pattern x(a) plus y(b) -e-> z(c): an edgeless
	// component beside an edge.
	two := func() *pattern.Pattern {
		p := pattern.New()
		p.AddVar("x", "a")
		y, z := p.AddVar("y", "b"), p.AddVar("z", "c")
		p.AddEdge(y, z, "e")
		return p
	}
	// pair returns the pattern u(a) -e-> v(b) plus w(c) -e-> x(d): two
	// edged components.
	pair := func() *pattern.Pattern {
		p := pattern.New()
		p.AddEdge(p.AddVar("u", "a"), p.AddVar("v", "b"), "e")
		p.AddEdge(p.AddVar("w", "c"), p.AddVar("x", "d"), "e")
		return p
	}
	mk := func(rules ...*gfd.GFD) *gfd.Set { return gfd.NewSet(rules...) }
	out := map[string][2]*gfd.Set{}
	add := func(name string, base []*gfd.GFD, bad *gfd.GFD) {
		out[name] = [2]*gfd.Set{mk(base...), mk(append(slices.Clone(base), bad)...)}
	}
	// A literal across components: x.A = y.A joins every a-node's A with
	// every b-node's, over all copies.
	add("literal across components", []*gfd.GFD{
		gfd.MustNew("cross", two(), nil, []gfd.Literal{gfd.Vars(0, "A", 1, "A")}),
		gfd.MustNew("a1", node("a"), nil, []gfd.Literal{gfd.Const(0, "A", "1")}),
		gfd.MustNew("bc", edge("b", "c"), nil, []gfd.Literal{gfd.Const(1, "C", "1")}),
	}, gfd.MustNew("b2", edge("b", "c"), nil, []gfd.Literal{gfd.Const(0, "A", "2")}))
	// Literals only on the component that is not the pivot's: the edge
	// component has the fewest pivot candidates, the literals sit on x.
	add("literals on a non-pivot component", []*gfd.GFD{
		gfd.MustNew("xonly", two(), []gfd.Literal{gfd.Const(0, "A", "1")}, []gfd.Literal{gfd.Const(0, "B", "1")}),
		gfd.MustNew("a1", node("a"), nil, []gfd.Literal{gfd.Const(0, "A", "1")}),
		gfd.MustNew("a1b", node("a"), nil, []gfd.Literal{gfd.Vars(0, "A", 0, "A")}),
	}, gfd.MustNew("b2", node("a"), []gfd.Literal{gfd.Const(0, "A", "1")}, []gfd.Literal{gfd.Const(0, "B", "2")}))
	// X on one component, Y on the other.
	add("X on one component, Y on the other", []*gfd.GFD{
		gfd.MustNew("xy", pair(), []gfd.Literal{gfd.Const(0, "A", "1")}, []gfd.Literal{gfd.Const(3, "D", "1")}),
		gfd.MustNew("ua", edge("a", "b"), nil, []gfd.Literal{gfd.Const(0, "A", "1")}),
		gfd.MustNew("wd", edge("c", "d"), []gfd.Literal{gfd.Const(1, "D", "1")}, []gfd.Literal{gfd.Const(0, "C", "1")}),
	}, gfd.MustNew("wc", edge("c", "d"), nil, []gfd.Literal{gfd.Const(0, "C", "2")}))
	// An edgeless component with a literal of its own, beside a wildcard
	// node: every node's K joins the one constant.
	wild := pattern.New()
	wild.AddVar("x", "a")
	wild.AddVar("any", graph.Wildcard)
	add("an edgeless component", []*gfd.GFD{
		gfd.MustNew("anyk", wild, []gfd.Literal{gfd.Const(0, "A", "1")}, []gfd.Literal{gfd.Const(1, "K", "k")}),
		gfd.MustNew("a1", node("a"), nil, []gfd.Literal{gfd.Const(0, "A", "1")}),
		gfd.MustNew("bc", edge("b", "c"), nil, []gfd.Literal{gfd.Vars(0, "K", 1, "J")}),
	}, gfd.MustNew("cj", edge("b", "c"), nil, []gfd.Literal{gfd.Const(1, "J", "j")}))
	return out
}

// wideSet is Σ of wide fan-out patterns: a hub with three spokes, all
// wildcard-free, matching combinatorially inside each copy; conflicting adds
// one rule whose constant differs.
func wideSet(conflicting bool) *gfd.Set {
	mkWide := func(name, val string) *gfd.GFD {
		p := pattern.New()
		h := p.AddVar("h", "a")
		for i := 0; i < 3; i++ {
			p.AddEdge(h, p.AddVar(fmt.Sprintf("s%d", i), "b"), "p")
		}
		return gfd.MustNew(name, p, nil, []gfd.Literal{gfd.Const(h, "A", val)})
	}
	set := gfd.NewSet()
	for i := 0; i < 6; i++ {
		set.Add(mkWide(fmt.Sprintf("w%d", i), "1"))
	}
	if conflicting {
		set.Add(mkWide("conflict", "2"))
	}
	return set
}

// TestEnginesAgreeWithReferenceChase checks SeqSat, ParSat, SeqImp and
// ParImp at p ∈ {1, 2, 4} against the reference chase: on gen workloads, the
// paper's worked examples, a wide fan-out Σ and hand-built Σs with
// disconnected patterns — the verdict, and on a satisfiable Σ the final
// classes.
func TestEnginesAgreeWithReferenceChase(t *testing.T) {
	sat, unsat := 0, 0
	count := func(ok bool) {
		if ok {
			sat++
		} else {
			unsat++
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, conflicts := range []int{0, 1} {
			set := gen.New(gen.Config{N: 12, K: 3, L: 2, WildcardRate: 0.3, Conflicts: conflicts, Seed: seed}).Set()
			count(checkAgainstRef(t, fmt.Sprintf("gen seed %d, %d conflicts", seed, conflicts), set))
		}
		gr := gen.New(gen.Config{N: 10, K: 3, L: 2, Seed: seed})
		sigma, chain := gr.ImpInstance(3)
		for _, phi := range []*gfd.GFD{chain, gr.ImpliedGFD(sigma), gr.NonImpliedGFD()} {
			checkImpAgainstRef(t, fmt.Sprintf("gen seed %d, %s", seed, phi.Name), sigma, phi)
		}
	}

	phi5 := gfd.MustNew("phi5", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "0")})
	phi6 := gfd.MustNew("phi6", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "1")})
	phi7 := gfd.MustNew("phi7", q6(), nil, []gfd.Literal{gfd.Const(0, "A", "0"), gfd.Const(1, "B", "1")})
	phi8 := gfd.MustNew("phi8", q7(), []gfd.Literal{gfd.Const(1, "B", "1")}, []gfd.Literal{gfd.Const(0, "A", "1")})
	phi9 := gfd.MustNew("phi9", q6(), []gfd.Literal{gfd.Const(1, "B", "1")}, []gfd.Literal{gfd.Const(3, "C", "1")})
	phi10 := gfd.MustNew("phi10", q7(), []gfd.Literal{gfd.Const(3, "C", "1")}, []gfd.Literal{gfd.Const(0, "A", "1")})
	for name, set := range map[string]*gfd.Set{
		"Example 2, one pattern":    gfd.NewSet(phi5, phi6),
		"Example 2, two patterns":   gfd.NewSet(phi7, phi8),
		"Example 4":                 gfd.NewSet(phi7, phi9, phi10),
		"Example 4 without phi7":    gfd.NewSet(phi9, phi10),
		"phi7 alone":                gfd.NewSet(phi7),
		"wide fan-out":              wideSet(false),
		"wide fan-out, conflicting": wideSet(true),
	} {
		count(checkAgainstRef(t, name, set))
	}
	sigma := impExample8Sigma()
	for _, phi := range []*gfd.GFD{
		gfd.MustNew("phi13", q7(), []gfd.Literal{gfd.Const(2, "B", "2")}, []gfd.Literal{gfd.Const(2, "C", "2")}),
		gfd.MustNew("phi14", q7(), []gfd.Literal{gfd.Const(0, "A", "0")}, []gfd.Literal{gfd.Const(2, "C", "2")}),
		gfd.MustNew("ni", q8(), nil, []gfd.Literal{gfd.Const(0, "A", "2")}),
	} {
		checkImpAgainstRef(t, "Example 8, "+phi.Name, sigma, phi)
	}

	for name, sets := range disconnectedSets() {
		if !checkAgainstRef(t, name, sets[0]) {
			t.Errorf("%s: the base Σ is unsatisfiable; the case tests no classes", name)
		}
		if checkAgainstRef(t, name+", conflicting", sets[1]) {
			t.Errorf("%s: the conflicting rule left Σ satisfiable; the case tests no conflict", name)
		}
		for _, phi := range sets[1].GFDs {
			checkImpAgainstRef(t, name+", "+phi.Name, sets[0], phi)
		}
		sat++
		unsat++
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("the inputs are degenerate: %d satisfiable, %d unsatisfiable", sat, unsat)
	}
}

// TestChunkChaseIsTermClosed: every handle a ParSat worker's relation holds
// lies in a copy of a chunk that worker ran — so the workers' relations are
// term-disjoint and none needs another's. It runs at one copy a chunk, on
// gen's Σ and on the disconnected Σs, whose chunks hold only as long as
// coupling keeps the copies a match can reach together.
func TestChunkChaseIsTermClosed(t *testing.T) {
	sets := map[string]*gfd.Set{
		"gen": gen.New(gen.Config{N: 40, K: 4, L: 3, WildcardRate: 0.3, Seed: 2}).Set(),
	}
	for name, s := range disconnectedSets() {
		sets[name] = s[0]
	}
	for name, set := range sets {
		for _, p := range []int{2, 4} {
			for rep := 0; rep < 5; rep++ {
				opt := DefaultParOptions(p)
				roots := make([][]graph.NodeID, p) // per worker, a root of each task it ran
				opt.testHookTask = func(w int, task []unit) { roots[w] = append(roots[w], task[0].roots[0]) }
				eng := newSatEngine(opt, set)
				res := eng.sat(1)
				if res.Err != nil || !res.Satisfiable {
					t.Fatalf("%s, p=%d: satisfiable %v, err %v", name, p, res.Satisfiable, res.Err)
				}
				_, chunk := eng.chunks(1) // the cut the run made
				ran := make([]map[int32]bool, p)
				for w, rs := range roots {
					ran[w] = map[int32]bool{}
					for _, n := range rs {
						ran[w][chunk[n]] = true
					}
				}
				for w, e := range res.witness.eqs {
					for h := range e.NumHandles() {
						if n := e.TermAt(eq.Handle(h)).Node; !ran[w][chunk[n]] {
							t.Fatalf("%s, p=%d: worker %d holds %v, in chunk %d, which it did not run", name, p, w, e.TermAt(eq.Handle(h)), chunk[n])
						}
					}
				}
			}
		}
	}
}

// chaseInput decodes fuzz bytes into a small Σ — up to four rules over
// patterns of one or two variables, labels a, b or the wildcard, antecedents
// of up to three literals over attributes A–C and constants 0–1 — and an
// order of all its matches on G_Σ, drawn from the bytes left. Spent bytes
// read as 0, so every input decodes. It returns nil for a Σ gfd.New refuses.
func chaseInput(data []byte) (*gfd.Set, []Match) {
	next := func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b) % n
	}
	labels, attrs, consts := []string{"a", "b", graph.Wildcard}, []string{"A", "B", "C"}, []string{"0", "1"}
	lits := func(n, vars int) []gfd.Literal {
		var out []gfd.Literal
		for ; n > 0; n-- {
			x, a := pattern.Var(next(vars)), attrs[next(len(attrs))]
			if next(2) == 0 {
				out = append(out, gfd.Const(x, a, consts[next(len(consts))]))
			} else {
				out = append(out, gfd.Vars(x, a, pattern.Var(next(vars)), attrs[next(len(attrs))]))
			}
		}
		return out
	}
	set := gfd.NewSet()
	for i, n := 0, 1+next(4); i < n; i++ {
		p := pattern.New()
		vars := 1 + next(2)
		for v := 0; v < vars; v++ {
			p.AddVar(fmt.Sprintf("v%d", v), labels[next(len(labels))])
		}
		if vars == 2 && next(2) == 1 {
			p.AddEdge(0, 1, "e")
		}
		x := lits(next(4), vars)
		phi, err := gfd.New(fmt.Sprintf("r%d", i), p, x, lits(1+next(2), vars))
		if err != nil {
			return nil, nil
		}
		set.Add(phi)
	}
	g := canon.BuildSigma(set).Graph
	var ms []Match
	for gi, phi := range set.GFDs {
		for _, h := range oracle.Matches(phi.Pattern, g) {
			ms = append(ms, Match{GFD: gi, H: h})
		}
	}
	for i := len(ms) - 1; i > 0; i-- {
		j := next(i + 1)
		ms[i], ms[j] = ms[j], ms[i]
	}
	return set, ms
}

// FuzzChase holds the watched chase to the reference: the matches of a
// decoded Σ on G_Σ, offered in a decoded order, must reach the reference
// chase's verdict and, on a satisfiable Σ, its final classes. And no wake
// was missed: every match still parked has its watch on its first blocked
// literal, or an impossible literal behind the watch. Its seed corpus,
// replayed by go test, is testdata/fuzz/FuzzChase: a watch that moves onto
// the term being drained, watches that move and matches that die, a Σ with
// many matches, and an unsatisfiable Σ.
func FuzzChase(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		set, ms := chaseInput(data)
		if set == nil {
			t.Skip("Σ refused")
		}
		enf := enforceMatches(set, ms)
		sat, want := refSat(set)
		if got := enf.conflict() == nil; got != sat {
			t.Fatalf("satisfiable %v, reference %v\nΣ:\n%s", got, sat, set)
		}
		if !sat {
			return
		}
		if got := enf.eq.Classes(); got != want {
			t.Fatalf("final classes\n%s\nreference\n%s\nΣ:\n%s", got, want, set)
		}
		for i := range enf.parked {
			p := &enf.parked[i]
			if p.w == done {
				continue
			}
			state, w := enf.checkX(&enf.rules[p.gi], enf.copyOf(p), 0)
			if state != xImpossible && (state != xBlocked || w != int(p.w)) {
				t.Fatalf("parked match %d of %s watches literal %d, but its antecedent is %v from literal %d\nΣ:\n%s", i, set.GFDs[p.gi].Name, p.w, state, w, set)
			}
		}
	})
}
