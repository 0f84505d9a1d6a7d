package core

// The reference chase: every engine against a naive chase that shares no
// code with them, on gen workloads, the paper's worked examples and
// hand-built Σs with disconnected patterns.

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

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
	parent map[eq.Term]eq.Term
	// konst lists, at a class root, the constants forced on the class; two
	// of them are a conflict.
	konst    map[eq.Term][]string
	conflict bool
	// pastConflicts runs the chase on past a conflict, to the fixpoint in
	// which every class holds every constant the rules force on it. A
	// literal holds there when some constant makes it true, so the fixpoint
	// contains every state an engine's chase can reach before it stops.
	pastConflicts bool
}

func newRefChase() *refChase {
	return &refChase{parent: map[eq.Term]eq.Term{}, konst: map[eq.Term][]string{}}
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
		ct := r.konst[r.find(t)]
		if l.Kind == gfd.ConstLiteral {
			if !slices.Contains(ct, l.Const) {
				return false
			}
			continue
		}
		u := eq.Term{Node: h[l.Y], Attr: l.B}
		if !r.has(u) {
			return false
		}
		if cu := r.konst[r.find(u)]; r.find(t) != r.find(u) && !slices.ContainsFunc(ct, func(c string) bool { return slices.Contains(cu, c) }) {
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
	for _, c := range r.konst[ru] {
		r.assign(rt, c)
	}
	delete(r.konst, ru)
	return true
}

func (r *refChase) assign(root eq.Term, c string) bool {
	if slices.Contains(r.konst[root], c) {
		return false
	}
	r.konst[root] = append(r.konst[root], c)
	r.conflict = r.conflict || len(r.konst[root]) > 1
	return true
}

// stopped reports whether the chase ends here: at its first conflict,
// unless it runs past conflicts.
func (r *refChase) stopped() bool { return r.conflict && !r.pastConflicts }

// run chases Σ on g to a fixpoint, or to the first conflict.
func (r *refChase) run(set *gfd.Set, g graph.Reader) {
	ms := make([][][]graph.NodeID, set.Len())
	for i, phi := range set.GFDs {
		ms[i] = oracle.Matches(phi.Pattern, g)
	}
	for changed := true; changed && !r.stopped(); {
		changed = false
		for i, phi := range set.GFDs {
			for _, h := range ms[i] {
				if r.stopped() || !r.holds(phi.X, h) {
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
		for _, c := range r.konst[root] { // one at most, without a conflict
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

// forces reports whether the chase forces both c1 and c2 on the class of t:
// on a chase run past conflicts, that an engine's conflict at t is real.
func (r *refChase) forces(t eq.Term, c1, c2 string) bool {
	cs := r.konst[r.find(t)]
	return r.has(t) && slices.Contains(cs, c1) && slices.Contains(cs, c2)
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
// which ParSat's workers write to views of one table. It reports whether Σ
// was satisfiable.
func checkAgainstRef(t *testing.T, name string, set *gfd.Set) bool {
	t.Helper()
	sat, want := refSat(set)
	for engine, res := range refSatEngines(set) {
		checkSatResult(t, name+", "+engine, set, res, sat, want)
	}
	return sat
}

// checkSatResult compares one satisfiability answer with the reference's:
// the verdict, and on a satisfiable Σ the final classes and a model.
func checkSatResult(t *testing.T, run string, set *gfd.Set, res *SatResult, sat bool, classes string) {
	t.Helper()
	if res.Err != nil || res.Satisfiable != sat {
		t.Errorf("%s: satisfiable %v (err %v), reference %v\n%s", run, res.Satisfiable, res.Err, sat, set)
		return
	}
	if sat && set.Len() > 0 {
		if got := res.witness.eq.Classes(); got != classes {
			t.Errorf("%s: final classes\n%s\nreference\n%s\nΣ:\n%s", run, got, classes, set)
		}
		if !IsModel(res.Model(), set) {
			t.Errorf("%s: the witness is not a model", run)
		}
	}
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

// refSatSets are the Σs the satisfiability engines are held to the
// reference chase on: gen workloads with and without a conflict, the
// paper's worked examples, a wide fan-out Σ and the disconnected Σs, each of
// the last two satisfiable and with a conflicting rule.
func refSatSets() map[string]*gfd.Set {
	out := map[string]*gfd.Set{}
	for seed := int64(1); seed <= 3; seed++ {
		for _, conflicts := range []int{0, 1} {
			out[fmt.Sprintf("gen seed %d, %d conflicts", seed, conflicts)] = gen.New(gen.Config{N: 12, K: 3, L: 2, WildcardRate: 0.3, Conflicts: conflicts, Seed: seed}).Set()
		}
	}
	phi5 := gfd.MustNew("phi5", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "0")})
	phi6 := gfd.MustNew("phi6", q5(), nil, []gfd.Literal{gfd.Const(0, "A", "1")})
	phi7 := gfd.MustNew("phi7", q6(), nil, []gfd.Literal{gfd.Const(0, "A", "0"), gfd.Const(1, "B", "1")})
	phi8 := gfd.MustNew("phi8", q7(), []gfd.Literal{gfd.Const(1, "B", "1")}, []gfd.Literal{gfd.Const(0, "A", "1")})
	phi9 := gfd.MustNew("phi9", q6(), []gfd.Literal{gfd.Const(1, "B", "1")}, []gfd.Literal{gfd.Const(3, "C", "1")})
	phi10 := gfd.MustNew("phi10", q7(), []gfd.Literal{gfd.Const(3, "C", "1")}, []gfd.Literal{gfd.Const(0, "A", "1")})
	out["Example 2, one pattern"] = gfd.NewSet(phi5, phi6)
	out["Example 2, two patterns"] = gfd.NewSet(phi7, phi8)
	out["Example 4"] = gfd.NewSet(phi7, phi9, phi10)
	out["Example 4 without phi7"] = gfd.NewSet(phi9, phi10)
	out["phi7 alone"] = gfd.NewSet(phi7)
	out["wide fan-out"] = wideSet(false)
	out["wide fan-out, conflicting"] = wideSet(true)
	for name, sets := range disconnectedSets() {
		out[name] = sets[0]
		out[name+", conflicting"] = sets[1]
	}
	return out
}

// impInstance is a question Σ |= φ the implication engines are held to the
// reference chase on.
type impInstance struct {
	name  string
	sigma *gfd.Set
	phi   *gfd.GFD
}

// refImpInstances are gen's implication instances, Example 8's and, for
// each disconnected Σ, every rule of its conflicting variant asked of the
// base.
func refImpInstances() []impInstance {
	var out []impInstance
	for seed := int64(1); seed <= 3; seed++ {
		gr := gen.New(gen.Config{N: 10, K: 3, L: 2, Seed: seed})
		sigma, chain := gr.ImpInstance(3)
		for _, phi := range []*gfd.GFD{chain, gr.ImpliedGFD(sigma), gr.NonImpliedGFD()} {
			out = append(out, impInstance{fmt.Sprintf("gen seed %d, %s", seed, phi.Name), sigma, phi})
		}
	}
	sigma := impExample8Sigma()
	for _, phi := range []*gfd.GFD{
		gfd.MustNew("phi13", q7(), []gfd.Literal{gfd.Const(2, "B", "2")}, []gfd.Literal{gfd.Const(2, "C", "2")}),
		gfd.MustNew("phi14", q7(), []gfd.Literal{gfd.Const(0, "A", "0")}, []gfd.Literal{gfd.Const(2, "C", "2")}),
		gfd.MustNew("ni", q8(), nil, []gfd.Literal{gfd.Const(0, "A", "2")}),
	} {
		out = append(out, impInstance{"Example 8, " + phi.Name, sigma, phi})
	}
	for name, sets := range disconnectedSets() {
		for _, phi := range sets[1].GFDs {
			out = append(out, impInstance{name + ", " + phi.Name, sets[0], phi})
		}
	}
	return out
}

// TestEnginesAgreeWithReferenceChase checks SeqSat, ParSat, SeqImp and
// ParImp at p ∈ {1, 2, 4} against the reference chase: on refSatSets and on
// refImpInstances — the verdict, and on a satisfiable Σ the final classes.
func TestEnginesAgreeWithReferenceChase(t *testing.T) {
	sat, unsat := 0, 0
	for name, set := range refSatSets() {
		if checkAgainstRef(t, name, set) {
			sat++
		} else {
			unsat++
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("the inputs are degenerate: %d satisfiable, %d unsatisfiable", sat, unsat)
	}
	for _, c := range refImpInstances() {
		checkImpAgainstRef(t, c.name, c.sigma, c.phi)
	}
	for name, sets := range disconnectedSets() {
		if ok, _ := refSat(sets[0]); !ok {
			t.Errorf("%s: the base Σ is unsatisfiable; the case tests no classes", name)
		}
		if ok, _ := refSat(sets[1]); ok {
			t.Errorf("%s: the conflicting rule left Σ satisfiable; the case tests no conflict", name)
		}
	}
}

// perturbed returns opt with its worker seams — a task taken, a unit
// started, ParImp's chase taking a unit — made to yield or sleep 0–50 µs,
// each pause drawn from seed, before any hook opt already has. The pauses
// shuffle which worker takes which task and how far the others get
// meanwhile, so a schedule the pool's cursor rarely produces on an idle
// machine is run, and -race sees workers interleave inside the chase.
func perturbed(opt ParOptions, seed int64) ParOptions {
	pause := seededPauses(seed)
	task, start, chase := opt.testHookTask, opt.testHookUnitStart, opt.testHookChase
	opt.testHookTask = func(w int, u []unit) {
		pause()
		if task != nil {
			task(w, u)
		}
	}
	opt.testHookUnitStart = func(gi int) {
		pause()
		if start != nil {
			start(gi)
		}
	}
	opt.testHookChase = func(i int) {
		pause()
		if chase != nil {
			chase(i)
		}
	}
	return opt
}

// seededPauses returns a pause for a worker seam: a yield or a sleep of
// 1–50 µs, drawn from seed, safe to call from every worker at once.
func seededPauses(seed int64) func() {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func() {
		mu.Lock()
		d := rng.Intn(51)
		mu.Unlock()
		if d == 0 {
			runtime.Gosched()
		} else {
			time.Sleep(time.Duration(d) * time.Microsecond)
		}
	}
}

// perturbedSeeds is how many perturbed schedules each Σ runs under.
const perturbedSeeds = 16

// TestPerturbedSchedulesAgreeWithReferenceChase runs refSatSets through
// ParSat at p ∈ {2, 4} under perturbed schedules, at the default chunk size
// and at one copy a chunk: the verdict and, on a satisfiable Σ, the final
// classes must be the reference chase's. On an unsatisfiable Σ the first
// chunk to conflict names the conflict, so the term named may differ from
// run to run; it must still be real: the reference chase, run past
// conflicts, forces both of its constants on the term's class.
func TestPerturbedSchedulesAgreeWithReferenceChase(t *testing.T) {
	conflicts := 0
	for name, set := range refSatSets() {
		sat, classes := refSat(set)
		past := newRefChase()
		past.pastConflicts = true
		past.run(set, canon.BuildSigma(set).Graph)
		for _, p := range []int{2, 4} {
			for seed := int64(1); seed <= perturbedSeeds; seed++ {
				opt := perturbed(DefaultParOptions(p), seed)
				for size, res := range map[string]*SatResult{
					"default chunks": ParSat(set, opt),
					"1 copy a chunk": newSatEngine(opt, set).sat(1),
				} {
					run := fmt.Sprintf("%s, p=%d, seed %d, %s", name, p, seed, size)
					checkSatResult(t, run, set, res, sat, classes)
					if c := res.Conflict; c != nil {
						conflicts++
						if !past.forces(c.Term, c.C1, c.C2) {
							t.Errorf("%s: the conflict %v is not one the reference chase forces", run, c)
						}
					}
				}
			}
		}
	}
	if conflicts == 0 {
		t.Fatal("no run conflicted: the conflicts named are not tested")
	}
}

// TestPerturbedSchedulesImpAgreeWithReferenceChase runs refImpInstances
// through ParImp at p ∈ {2, 4} under perturbed schedules: the verdict must
// be the reference chase's.
func TestPerturbedSchedulesImpAgreeWithReferenceChase(t *testing.T) {
	for _, c := range refImpInstances() {
		want := refImp(c.sigma, c.phi)
		for _, p := range []int{2, 4} {
			for seed := int64(1); seed <= perturbedSeeds; seed++ {
				if res := ParImp(c.sigma, c.phi, perturbed(DefaultParOptions(p), seed)); res.Err != nil || res.Implied != want {
					t.Errorf("%s, p=%d, seed %d: implied %v (%v, err %v), reference %v", c.name, p, seed, res.Implied, res.Reason, res.Err, want)
				}
			}
		}
	}
}

// TestChunkChaseIsTermClosed: every term a ParSat worker's chase reads or
// writes — a literal it checks, a class it enforces, a pending list it
// files a match under — lies in a copy of a chunk that worker ran, so the
// workers' views of the one table touch disjoint slots. It runs at one copy
// a chunk, under perturbed schedules, on gen's Σ and on the disconnected
// Σs, whose chunks hold only as long as coupling keeps the copies a match
// can reach together.
func TestChunkChaseIsTermClosed(t *testing.T) {
	sets := map[string]*gfd.Set{
		"gen": gen.New(gen.Config{N: 40, K: 4, L: 3, WildcardRate: 0.3, Seed: 2}).Set(),
	}
	for name, s := range disconnectedSets() {
		sets[name] = s[0]
	}
	for name, set := range sets {
		for _, p := range []int{2, 4} {
			for seed := int64(1); seed <= 5; seed++ {
				roots := make([][]graph.NodeID, p)   // per worker, a root of each task it ran
				touched := make([][]graph.NodeID, p) // per worker, the nodes of the terms its chase touched
				opt := DefaultParOptions(p)
				opt.testHookTask = func(w int, task []unit) { roots[w] = append(roots[w], task[0].roots[0]) }
				opt.testHookTerm = func(w int, n graph.NodeID) { touched[w] = append(touched[w], n) }
				eng := newSatEngine(perturbed(opt, seed), set)
				res := eng.sat(1)
				if res.Err != nil || !res.Satisfiable {
					t.Fatalf("%s, p=%d: satisfiable %v, err %v", name, p, res.Satisfiable, res.Err)
				}
				_, chunk := eng.chunks(1) // the cut the run made
				n := 0
				for w, ns := range touched {
					ran := map[int32]bool{}
					for _, r := range roots[w] {
						ran[chunk[r]] = true
					}
					for _, v := range ns {
						if !ran[chunk[v]] {
							t.Fatalf("%s, p=%d, seed %d: worker %d touched a term of node %d, in chunk %d, which it did not run", name, p, seed, w, v, chunk[v])
						}
					}
					n += len(ns)
				}
				if n == 0 {
					t.Fatalf("%s, p=%d: no chase touched a term; nothing is tested", name, p)
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
