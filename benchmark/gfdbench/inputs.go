package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/gfdio"
	"repro/internal/graph"
)

// The four input families, each shared by the workloads that run it in
// different modes.
const (
	groupSat   = "sat-dbpedia"
	groupImp   = "imp-batch"
	groupCheck = "check-dense"
	groupStore = "store-lifecycle"
)

// shapeSeed pins the structural draw (patterns, schema, edges, op mix) of
// every input. The metrics are absolute time-to-answer, so the work must not
// change between runs that are compared: a structural re-draw moves SeqSat's
// time on |Σ|=1600 by ±30% from seed to seed, which would bury any bound
// this benchmark could state. --seed instead re-draws every name the
// programs can see — GFD names, every constant in Σ, in the data graphs and
// in the update stream — plus the target order (imp-batch) and which nodes
// are perturbed (check-dense): different bytes and different answers, the
// same amount of work.
const shapeSeed = 1

// storeShapeSeed is the first shape seed whose frequent-edge schema closes
// triangles, which the store-lifecycle rule set is made of.
const storeShapeSeed = 1

// sizes are the input dimensions. fullSizes is what the driver runs and what
// pins.json describes; miniSizes lets the tests drive every workload end to
// end in seconds.
type sizes struct {
	Name string

	// SetupReps is how often a run repeats its set-up: setup_s is the median,
	// which also keeps a cold first compile from setting the number.
	SetupReps int

	SatN int // |Σ| of sat-dbpedia (K=6, L=5, wildcard 0.3)

	ImpN       int // |Σ| of imp-batch (K=6, L=5, wildcard 0.4, chain of 6)
	ImpTargets int // targets φ decided one process each

	CheckN       int // |Σ| of check-dense (K=4, L=2)
	CheckNodes   int
	CheckDegree  int
	CheckPerturb int // nodes whose attributes are overwritten
	CheckMinViol int // the expected answer must hold at least this many

	StoreNodes    int
	StoreDegree   int
	StorePerturb  int // nodes whose attributes are overwritten in the ingested graph
	StoreBatches  int
	StoreBatchOps int
}

var fullSizes = sizes{
	Name: "full", SetupReps: 3,
	SatN: 1600,
	ImpN: 1200, ImpTargets: 30,
	CheckN: 100, CheckNodes: 4000, CheckDegree: 8, CheckPerturb: 80, CheckMinViol: 50,
	StoreNodes: 14000, StoreDegree: 12, StorePerturb: 700, StoreBatches: 30, StoreBatchOps: 50,
}

var miniSizes = sizes{
	Name: "mini", SetupReps: 1,
	SatN: 60,
	ImpN: 60, ImpTargets: 6,
	CheckN: 20, CheckNodes: 600, CheckDegree: 4, CheckPerturb: 40, CheckMinViol: 1,
	StoreNodes: 1500, StoreDegree: 5, StorePerturb: 300, StoreBatches: 20, StoreBatchOps: 10,
}

// namer derives seed-dependent names. Renaming is injective (the original
// name stays as a prefix), so equalities and conflicts between constants are
// preserved exactly.
type namer struct{ seed int64 }

func (n namer) name(s string) string {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%s", n.seed, s)
	return fmt.Sprintf("%s.%04x", s, h.Sum32()&0xffff)
}

func (n namer) literals(ls []gfd.Literal) []gfd.Literal {
	out := make([]gfd.Literal, len(ls))
	for i, l := range ls {
		if l.Kind == gfd.ConstLiteral {
			l.Const = n.name(l.Const)
		}
		out[i] = l
	}
	return out
}

func (n namer) gfd(phi *gfd.GFD) (*gfd.GFD, error) {
	return gfd.New(n.name(phi.Name), phi.Pattern, n.literals(phi.X), n.literals(phi.Y))
}

func (n namer) set(in *gfd.Set) (*gfd.Set, error) {
	out := gfd.NewSet()
	for _, phi := range in.GFDs {
		r, err := n.gfd(phi)
		if err != nil {
			return nil, err
		}
		out.Add(r)
	}
	return out, nil
}

// renamingMutator renames attribute values on their way into a delta or a
// WAL, so a generated update stream speaks the same constants as the renamed
// base graph and rule set.
type renamingMutator struct {
	graph.Mutator
	names namer
}

func (m renamingMutator) SetAttr(v graph.NodeID, attr, value string) {
	m.Mutator.SetAttr(v, attr, m.names.name(value))
}

func (m renamingMutator) AddNodeWithAttrs(label string, attrs map[string]string) graph.NodeID {
	id := m.Mutator.AddNode(label)
	for _, k := range sortedNames(attrs) {
		m.SetAttr(id, k, attrs[k])
	}
	return id
}

// rebuild appends f's nodes and edges into a fresh Builder with every
// attribute value passed through value(node, attr, old). Attributes are set
// in sorted key order so the frozen result — and the snapshot bytes written
// from it — is deterministic.
func rebuild(f *graph.Frozen, value func(v graph.NodeID, attr, old string) string) *graph.Builder {
	b := graph.NewBuilder(f.NumEdges())
	for i := 0; i < f.NumNodes(); i++ {
		v := graph.NodeID(i)
		id := b.AddNode(f.Label(v))
		attrs := f.Attrs(v)
		for _, k := range sortedNames(attrs) {
			b.SetAttr(id, k, value(v, k, attrs[k]))
		}
	}
	for i := 0; i < f.NumNodes(); i++ {
		for _, e := range f.Out(graph.NodeID(i)) {
			b.AddEdge(e.From, e.To, e.Label)
		}
	}
	return b
}

// impTarget is one implication query with the answer known by construction.
type impTarget struct {
	path    string
	phi     *gfd.GFD
	implied bool
}

// inputs is one workload family's generated input: the files the programs
// read, the same objects in memory for the traced pass and the probes, and
// the answers every operation is checked against.
type inputs struct {
	group string
	dir   string
	size  sizes
	seed  int64
	names namer
	sum   hash.Hash // SHA-256 over them, names included, in generation order
	desc  string    // input size, printed beside the metrics

	set       *gfd.Set
	sigmaPath string

	unsatPath string // sat: a Conflicts=3 set for the smoke operation

	targets []impTarget // imp

	data      *graph.Frozen // check, store: the data graph as written
	graphPath string        // check: store.snap; store: graph.txt

	// wantViolations is check-dense's expected answer, rendered as the CLI
	// prints it. Filled by expect(), not by the timed set-up.
	wantViolations []string
}

func (in *inputs) path(name string) string { return filepath.Join(in.dir, name) }

func (in *inputs) writeGFDs(name string, set *gfd.Set) (string, error) {
	var buf bytes.Buffer
	if err := gfdio.WriteGFDs(&buf, set); err != nil {
		return "", fmt.Errorf("write %s: %w", name, err)
	}
	return in.writeFile(name, buf.Bytes())
}

func (in *inputs) writeFile(name string, data []byte) (string, error) {
	p := in.path(name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		return "", err
	}
	fmt.Fprintf(in.sum, "%s %d\n", name, len(data))
	in.sum.Write(data)
	return p, nil
}

// digest identifies the generated input: the SHA-256 over every input file.
func (in *inputs) digest() string { return hex.EncodeToString(in.sum.Sum(nil)) }

// The generator configurations of the three gen-driven families; the layer
// probes draw their update streams from generators built the same way.
func satConfig(sz sizes) gen.Config {
	return gen.Config{N: sz.SatN, K: 6, L: 5, WildcardRate: 0.3, Seed: shapeSeed}
}

func impConfig(sz sizes) gen.Config {
	return gen.Config{N: sz.ImpN, K: 6, L: 5, WildcardRate: 0.4, Seed: shapeSeed}
}

func checkConfig(sz sizes) gen.Config {
	return gen.Config{N: sz.CheckN, K: 4, L: 2, Seed: shapeSeed}
}

// generate builds the group's inputs under dir from the seed. It is the
// timed part of set-up: generation and file writes only.
func generate(group, dir string, seed int64, sz sizes) (*inputs, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{group: group, dir: dir, size: sz, seed: seed, names: namer{seed}, sum: sha256.New()}
	var err error
	switch group {
	case groupSat:
		err = in.generateSat()
	case groupImp:
		err = in.generateImp()
	case groupCheck:
		err = in.generateCheck()
	case groupStore:
		err = in.generateStore()
	default:
		err = fmt.Errorf("unknown input group %q", group)
	}
	if err != nil {
		return nil, fmt.Errorf("generate %s: %w", group, err)
	}
	return in, nil
}

func (in *inputs) generateSat() error {
	sz := in.size
	g := gen.New(satConfig(sz))
	var err error
	if in.set, err = in.names.set(g.Set()); err != nil {
		return err
	}
	if in.sigmaPath, err = in.writeGFDs("sigma.gfd", in.set); err != nil {
		return err
	}
	n := sz.SatN / 8
	if n < 20 {
		n = 20
	}
	u := gen.New(gen.Config{N: n, K: 6, L: 5, WildcardRate: 0.3, Conflicts: 3, Seed: shapeSeed})
	unsat, err := in.names.set(u.Set())
	if err != nil {
		return err
	}
	if in.unsatPath, err = in.writeGFDs("unsat.gfd", unsat); err != nil {
		return err
	}
	in.desc = fmt.Sprintf("|Σ|=%d K=6 L=5 wildcard=0.3", in.set.Len())
	return nil
}

func (in *inputs) generateImp() error {
	sz := in.size
	g := gen.New(impConfig(sz))
	rawSet, chain := g.ImpInstance(6)
	type raw struct {
		phi     *gfd.GFD
		implied bool
	}
	raws := []raw{{chain, false}}
	for i := 1; i < sz.ImpTargets; i++ {
		if i%2 == 1 {
			raws = append(raws, raw{g.ImpliedGFD(rawSet), true})
		} else {
			raws = append(raws, raw{g.NonImpliedGFD(), false})
		}
	}
	rand.New(rand.NewSource(in.seed)).Shuffle(len(raws), func(i, j int) { raws[i], raws[j] = raws[j], raws[i] })

	var err error
	if in.set, err = in.names.set(rawSet); err != nil {
		return err
	}
	if in.sigmaPath, err = in.writeGFDs("sigma.gfd", in.set); err != nil {
		return err
	}
	for i, r := range raws {
		phi, err := in.names.gfd(r.phi)
		if err != nil {
			return err
		}
		p, err := in.writeGFDs(fmt.Sprintf("target%03d.gfd", i), gfd.NewSet(phi))
		if err != nil {
			return err
		}
		in.targets = append(in.targets, impTarget{path: p, phi: phi, implied: r.implied})
	}
	in.desc = fmt.Sprintf("%d targets × |Σ|=%d K=6 L=5 wildcard=0.4", len(in.targets), in.set.Len())
	return nil
}

func (in *inputs) generateCheck() error {
	sz := in.size
	g := gen.New(checkConfig(sz))
	var err error
	// Σ first: generating it defines the W rows the graph's attributes read.
	if in.set, err = in.names.set(g.Set()); err != nil {
		return err
	}
	in.data = in.perturbedCopy(g.DenseFrozen(sz.CheckNodes, sz.CheckDegree), sz.CheckPerturb)
	if in.sigmaPath, err = in.writeGFDs("sigma.gfd", in.set); err != nil {
		return err
	}
	var snap bytes.Buffer
	if err := gfdio.WriteSnapshot(&snap, in.data); err != nil {
		return err
	}
	if in.graphPath, err = in.writeFile("store.snap", snap.Bytes()); err != nil {
		return err
	}
	in.desc = fmt.Sprintf("|Σ|=%d K=4 L=2 on %d nodes / %d edges, %d nodes perturbed",
		in.set.Len(), in.data.NumNodes(), in.data.NumEdges(), sz.CheckPerturb)
	return nil
}

// perturbedCopy renames every attribute value of a W-consistent graph and
// overwrites the attributes of n seed-chosen nodes, so the rules that read
// them are violated on the matches through those nodes.
func (in *inputs) perturbedCopy(clean *graph.Frozen, n int) *graph.Frozen {
	rng := rand.New(rand.NewSource(in.seed))
	perturbed := make(map[graph.NodeID]bool, n)
	for len(perturbed) < n && len(perturbed) < clean.NumNodes() {
		perturbed[graph.NodeID(rng.Intn(clean.NumNodes()))] = true
	}
	return rebuild(clean, func(v graph.NodeID, _, old string) string {
		if perturbed[v] {
			return in.names.name("perturbed")
		}
		return in.names.name(old)
	}).Freeze()
}

// storeGenerator returns a generator whose schema and value function W are
// those of the store-lifecycle base graph: the writer loop draws its update
// stream from one of these per pass, so every pass applies the same stream.
func storeGenerator() (*gen.Generator, *gfd.Set) {
	g := gen.New(gen.Config{N: 40, K: 6, L: 2, WildcardRate: 0.2, Seed: storeShapeSeed})
	return g, g.SharedValidationSet(6, 8)
}

func (in *inputs) generateStore() error {
	sz := in.size
	g, rawSet := storeGenerator()
	if rawSet.Len() == 0 {
		return fmt.Errorf("shape seed %d closes no schema triangle", storeShapeSeed)
	}
	var err error
	if in.set, err = in.names.set(rawSet); err != nil {
		return err
	}
	in.data = in.perturbedCopy(g.DenseFrozen(sz.StoreNodes, sz.StoreDegree), sz.StorePerturb)
	if in.sigmaPath, err = in.writeGFDs("sigma.gfd", in.set); err != nil {
		return err
	}
	var txt bytes.Buffer
	if err := gfdio.WriteGraph(&txt, in.data); err != nil {
		return err
	}
	if in.graphPath, err = in.writeFile("graph.txt", txt.Bytes()); err != nil {
		return err
	}
	in.desc = fmt.Sprintf("%d nodes / %d edges ingested (%d nodes perturbed), then %d batches × %d ops, |Σ|=%d triangle rules",
		in.data.NumNodes(), in.data.NumEdges(), sz.StorePerturb, sz.StoreBatches, sz.StoreBatchOps, in.set.Len())
	return nil
}

// expect computes the answers that are not known by construction. It runs
// once per run, outside the timed set-up.
func (in *inputs) expect() error {
	if in.group != groupCheck {
		return nil
	}
	in.wantViolations = violationLines(core.Violations(in.data, in.set))
	if len(in.wantViolations) < in.size.CheckMinViol {
		return fmt.Errorf("check-dense: expected answer has %d violations, want at least %d",
			len(in.wantViolations), in.size.CheckMinViol)
	}
	return nil
}

// violationLines renders violations exactly as `gfdreason check` prints
// them, so a child's stdout compares line for line.
func violationLines(vs []core.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("violation of %s at %v", v.GFD.Name, v.Match)
	}
	return out
}
