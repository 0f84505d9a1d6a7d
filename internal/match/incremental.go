// Delta-scoped candidate generation. When a graph changes by a small delta,
// the only matches that can appear, vanish, or change their literal
// evaluation are those whose image meets the touched nodes: a match's edges
// and attributes all live at its image, so an image disjoint from the
// touched set is bitwise-identical in both versions of the graph. Rooting a
// search's first variable at the touched nodes it may match (via
// Options.RootCandidates, the same hook the sharded fan-out partitions with)
// enumerates exactly the matches that map that variable into the touched
// set. core.Revalidate builds incremental GFD revalidation on top.
package match

import (
	"repro/internal/graph"
	"repro/internal/pattern"
)

// scopedBitsetRatio is the frequency-to-scope skew beyond which the bitset
// path of ScopedRootCandidates wins: probing |scope| bits must undercut
// walking the label's full candidate run.
const scopedBitsetRatio = 4

// ScopedRootCandidates returns the candidates of variable v restricted to
// scope, an ascending node list, ascending — ready to pass as
// Options.RootCandidates with an Order that starts at v. The restriction is
// label-consistent by construction: it filters v's label's own candidate
// set. When g's snapshot serves a candidate bitset for the label and the
// scope is much smaller than the label's frequency, the filter flips
// direction — probe each scope member against the bitset, O(|scope|)
// instead of O(freq) — which is the common shape in revalidation: a small
// touched set against a high-frequency label.
func ScopedRootCandidates(p *pattern.Pattern, g graph.Reader, v pattern.Var, scope []graph.NodeID) []graph.NodeID {
	f, label := g.Snapshot(), p.Label(v)
	if len(scope)*scopedBitsetRatio < f.LabelFrequency(label) {
		if bs := f.CandidateBitset(label); bs != nil {
			var out []graph.NodeID
			for _, u := range scope {
				if bs.Test(u) {
					out = append(out, u)
				}
			}
			return out
		}
	}
	cands := f.AppendCandidates(nil, label)
	kept, i := cands[:0], 0
	for _, c := range cands {
		for i < len(scope) && scope[i] < c {
			i++
		}
		if i < len(scope) && scope[i] == c {
			kept = append(kept, c)
		}
	}
	return kept
}
