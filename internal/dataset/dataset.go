// Package dataset provides synthetic stand-ins for the paper's three
// real-life workloads (Section VII): DBpedia, YAGO2 and Pokec.
//
// Substitution note (see DESIGN.md): the paper mines GFDs from the real
// graphs with the (unpublished) discovery algorithm of [23]. We reproduce
// the published *statistics* of each graph — number of node types, edge
// types, and the GFD-set sizes mined from each — as generation profiles.
// The reasoning algorithms only ever see GFD sets, so matching pattern
// size/shape distribution, label selectivity and literal mix preserves the
// experiments' behaviour. Profiles also synthesize data graphs drawn from
// the same label universe for the storage benchmarks and tests.
package dataset

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"repro/internal/graph"
)

// Profile describes one dataset's label/attribute universe and published
// statistics.
type Profile struct {
	Name string
	// NodeLabels and EdgeLabels reproduce the published type counts
	// (DBpedia: 200/160, YAGO2: 13/36, Pokec: 269/11).
	NodeLabels []string
	EdgeLabels []string
	// Attrs is the attribute universe GFD literals draw from.
	Attrs []string
	// GFDCount is the number of GFDs the paper mined from this dataset.
	GFDCount int
	// Zipf skews label frequencies: lower-indexed labels are more frequent,
	// mimicking the heavy-tailed type distributions of knowledge graphs.
	Zipf float64
}

// Paper-reported statistics.
const (
	dbpediaNodeTypes = 200
	dbpediaEdgeTypes = 160
	yagoNodeTypes    = 13
	yagoEdgeTypes    = 36
	pokecNodeTypes   = 269
	pokecEdgeTypes   = 11
)

func mkLabels(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

func mkAttrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("attr%d", i)
	}
	return out
}

// DBpedia returns the DBpedia profile: 200 entity types, 160 link types,
// 8000+ mined GFDs.
func DBpedia() *Profile {
	return &Profile{
		Name:       "DBpedia",
		NodeLabels: mkLabels("type", dbpediaNodeTypes),
		EdgeLabels: mkLabels("link", dbpediaEdgeTypes),
		Attrs:      mkAttrs(24),
		GFDCount:   8000,
		Zipf:       1.1,
	}
}

// YAGO2 returns the YAGO2 profile: 13 node types, 36 link types, 6000+
// mined GFDs.
func YAGO2() *Profile {
	return &Profile{
		Name:       "YAGO2",
		NodeLabels: mkLabels("ytype", yagoNodeTypes),
		EdgeLabels: mkLabels("ylink", yagoEdgeTypes),
		Attrs:      mkAttrs(16),
		GFDCount:   6000,
		Zipf:       0.9,
	}
}

// Pokec returns the Pokec profile: 269 node types, 11 edge types, 10000+
// mined GFDs.
func Pokec() *Profile {
	return &Profile{
		Name:       "Pokec",
		NodeLabels: mkLabels("ptype", pokecNodeTypes),
		EdgeLabels: mkLabels("plink", pokecEdgeTypes),
		Attrs:      mkAttrs(20),
		GFDCount:   10000,
		Zipf:       1.2,
	}
}

// All returns the three profiles in the paper's order.
func All() []*Profile {
	return []*Profile{DBpedia(), YAGO2(), Pokec()}
}

// SampleNodeLabel draws a node label with the profile's Zipf-like skew.
func (p *Profile) SampleNodeLabel(rng *rand.Rand) string {
	return p.NodeLabels[zipfIndex(rng, len(p.NodeLabels), p.Zipf)]
}

// SampleEdgeLabel draws an edge label uniformly.
func (p *Profile) SampleEdgeLabel(rng *rand.Rand) string {
	return p.EdgeLabels[rng.Intn(len(p.EdgeLabels))]
}

// SampleAttr draws an attribute uniformly.
func (p *Profile) SampleAttr(rng *rand.Rand) string {
	return p.Attrs[rng.Intn(len(p.Attrs))]
}

// zipfIndex draws an index in [0,n) with P(i) ∝ 1/(i+1)^s, via inverse
// transform on the truncated harmonic weights.
func zipfIndex(rng *rand.Rand, n int, s float64) int {
	if s <= 0 {
		return rng.Intn(n)
	}
	// For modest n the linear scan is fine and allocation-free.
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / powf(float64(i+1), s)
	}
	u := rng.Float64() * total
	for i := 0; i < n; i++ {
		u -= 1 / powf(float64(i+1), s)
		if u <= 0 {
			return i
		}
	}
	return n - 1
}

func powf(x, y float64) float64 { return math.Pow(x, y) }

// GraphConfig controls synthetic data-graph generation.
type GraphConfig struct {
	Nodes int
	// EdgesPerNode is the average out-degree.
	EdgesPerNode int
	// AttrsPerNode is the average number of attributes per node.
	AttrsPerNode int
	// Values is the size of the per-attribute value domain; small domains
	// make the same values recur across nodes.
	Values int
	Seed   int64
}

// SampleGraph synthesizes a data graph from the profile: Zipf-skewed node
// labels, uniform edge labels, preferential attachment for a heavy-tailed
// degree distribution, and correlated attribute values (a node's values are
// a function of its label for a subset of attributes, so functional
// dependencies genuinely hold and can be mined).
func (p *Profile) SampleGraph(cfg GraphConfig) *graph.Graph {
	g := graph.New()
	p.sampleInto(g, cfg.withDefaults())
	return g
}

// SampleFrozen is SampleGraph through the bulk-load path: the same
// synthesis (identical per seed) appended into a graph.Builder and frozen
// into the immutable CSR snapshot — the representation to pick when the
// sample is only read (matching, mining, validation benchmarks).
func (p *Profile) SampleFrozen(cfg GraphConfig) *graph.Frozen {
	cfg = cfg.withDefaults()
	b := graph.NewBuilder(cfg.Nodes * cfg.EdgesPerNode)
	p.sampleInto(b, cfg)
	return b.Freeze()
}

// SampleSharded is SampleFrozen pre-partitioned into shards for the
// parallel consumers (the fan-out matcher, per-worker placement). Pass
// shards <= 0 for graph.DefaultShardCount.
func (p *Profile) SampleSharded(cfg GraphConfig, shards int) *graph.Sharded {
	cfg = cfg.withDefaults()
	if shards <= 0 {
		shards = graph.DefaultShardCount(cfg.Nodes)
	}
	b := graph.NewBuilder(cfg.Nodes * cfg.EdgesPerNode)
	p.sampleInto(b, cfg)
	return b.FreezeSharded(shards)
}

// SampleDelta synthesizes an update stream of ops random updates against a
// sampled snapshot, drawn from the same distributions as SampleGraph: added
// nodes carry Zipf-skewed labels and the schema-determined attribute slice,
// added edges use the deterministic label-pair edge labeling, removals drop
// sampled existing edges (occasionally whole nodes), and attribute rewrites
// redraw the small-domain noise values. Feed the result to
// Frozen.Refreeze/Delta.Overlay for the continuously-changing-graph
// workloads.
func (p *Profile) SampleDelta(base *graph.Frozen, ops int, seed int64) *graph.Delta {
	d := graph.NewDelta(base)
	p.SampleDeltaInto(d, ops, seed)
	return d
}

// SampleDeltaInto is SampleDelta against any graph.Mutator: a bare Delta, or
// a WAL fronting one — which persists the identical op stream as it is
// generated, the fixture path for the recovery tests and benchmarks.
func (p *Profile) SampleDeltaInto(d graph.Mutator, ops int, seed int64) {
	base := d.Base()
	rng := rand.New(rand.NewSource(seed))
	labelIdx := make(map[string]int, len(p.NodeLabels))
	for i, l := range p.NodeLabels {
		labelIdx[l] = i
	}
	alive := func() (graph.NodeID, bool) {
		for try := 0; try < 16 && d.NumNodes() > 0; try++ {
			v := graph.NodeID(rng.Intn(d.NumNodes()))
			if d.Alive(v) {
				return v, true
			}
		}
		return 0, false
	}
	edgeLabel := func(from, to graph.NodeID) string {
		return p.EdgeLabels[(labelIdx[d.Label(from)]*7+labelIdx[d.Label(to)]*3)%len(p.EdgeLabels)]
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(100); {
		case r < 15: // add a node with the schema attribute slice
			li := zipfIndex(rng, len(p.NodeLabels), p.Zipf)
			label := p.NodeLabels[li]
			id := d.AddNode(label)
			for a := 0; a < 3; a++ {
				attr := p.Attrs[(li+a)%len(p.Attrs)]
				if a%2 == 0 {
					d.SetAttr(id, attr, fmt.Sprintf("%s-%s", label, attr))
				} else {
					d.SetAttr(id, attr, fmt.Sprintf("v%d", rng.Intn(8)))
				}
			}
			if to, ok := alive(); ok && to != id {
				d.AddEdge(id, to, edgeLabel(id, to))
			}
		case r < 50: // add an edge under the deterministic labeling
			from, ok1 := alive()
			to, ok2 := alive()
			if !ok1 || !ok2 {
				continue
			}
			d.AddEdge(from, to, edgeLabel(from, to))
		case r < 70: // remove a sampled base edge
			if base.NumNodes() == 0 {
				continue
			}
			v := graph.NodeID(rng.Intn(base.NumNodes()))
			es := base.Out(v)
			if len(es) == 0 {
				continue
			}
			e := es[rng.Intn(len(es))]
			d.RemoveEdge(e.From, e.To, e.Label)
		case r < 94: // redraw an attribute value
			v, ok := alive()
			if !ok {
				continue
			}
			li := labelIdx[d.Label(v)]
			attr := p.Attrs[(li+rng.Intn(3))%len(p.Attrs)]
			d.SetAttr(v, attr, fmt.Sprintf("v%d", rng.Intn(8)))
		default:
			if v, ok := alive(); ok {
				d.RemoveNode(v)
			}
		}
	}
}

// SampleSnapshotTo writes a SampleFrozen graph straight to a binary
// snapshot image: the persisted-fixture path for tools and tests that want
// an on-disk store without a text intermediary.
func (p *Profile) SampleSnapshotTo(w io.Writer, cfg GraphConfig) error {
	return p.SampleFrozen(cfg).WriteSnapshot(w)
}

func (cfg GraphConfig) withDefaults() GraphConfig {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1000
	}
	if cfg.EdgesPerNode <= 0 {
		cfg.EdgesPerNode = 3
	}
	if cfg.AttrsPerNode <= 0 {
		cfg.AttrsPerNode = 3
	}
	if cfg.Values <= 0 {
		cfg.Values = 8
	}
	return cfg
}

// sampleInto synthesizes the profile sample into either build target.
// cfg must already be normalized via withDefaults.
func (p *Profile) sampleInto(g graph.Sink, cfg GraphConfig) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	labelIdx := make([]int, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		li := zipfIndex(rng, len(p.NodeLabels), p.Zipf)
		labelIdx[i] = li
		label := p.NodeLabels[li]
		id := g.AddNode(label)
		// Each label carries a deterministic attribute slice of the
		// universe (as a schema would), with label-determined values for
		// even offsets (mineable FDs) and small-domain noise for odd ones.
		for a := 0; a < cfg.AttrsPerNode; a++ {
			attr := p.Attrs[(li+a)%len(p.Attrs)]
			var val string
			if a%2 == 0 {
				val = fmt.Sprintf("%s-%s", label, attr)
			} else {
				val = fmt.Sprintf("v%d", rng.Intn(cfg.Values))
			}
			g.SetAttr(id, attr, val)
		}
	}
	// Edges follow an implicit schema: the edge label between two node
	// labels is a deterministic function of the label pair, concentrating
	// (src, edge, dst) triples the way real typed graphs do. Targets use
	// preferential attachment for a heavy-tailed degree distribution.
	for i := 0; i < cfg.Nodes; i++ {
		for e := 0; e < cfg.EdgesPerNode; e++ {
			var to graph.NodeID
			if rng.Float64() < 0.6 && i > 0 {
				// Preferential: earlier nodes accumulate degree.
				to = graph.NodeID(rng.Intn(i))
			} else {
				to = graph.NodeID(rng.Intn(cfg.Nodes))
			}
			el := p.EdgeLabels[(labelIdx[i]*7+labelIdx[to]*3)%len(p.EdgeLabels)]
			g.AddEdge(graph.NodeID(i), to, el)
		}
	}
}
