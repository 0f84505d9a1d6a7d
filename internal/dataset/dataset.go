// Package dataset provides synthetic stand-ins for the paper's three
// real-life workloads (Section VII): DBpedia, YAGO2 and Pokec.
//
// Substitution note (see DESIGN.md): the paper mines GFDs from the real
// graphs with the (unpublished) discovery algorithm of [23]. We reproduce
// the published *statistics* of each graph — number of node types, edge
// types, and the GFD-set sizes mined from each — as generation profiles.
// The reasoning algorithms only ever see GFD sets, so matching pattern
// size/shape distribution, label selectivity and literal mix preserves the
// experiments' behaviour. Data graphs over a profile's label universe come
// from internal/gen (ConsistentGraph, DenseFrozen, MutateDelta).
package dataset

import "fmt"

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
	}
}

// All returns the three profiles in the paper's order.
func All() []*Profile {
	return []*Profile{DBpedia(), YAGO2(), Pokec()}
}
