// Delta-scoped candidate generation. When a graph changes by a small delta,
// the only matches that can appear, vanish, or change their literal
// evaluation are those whose image intersects the touched nodes: a match's
// edges and attributes all live at its image, so an image disjoint from the
// touched set is bitwise-identical in both versions of the graph. Because a
// pattern edge always maps onto a data edge, the image of any match touching
// a node t keeps its root variable within Radius(root) hops of t — so
// restricting the root frame's candidates to the touched set's
// radius-neighborhood (via Options.RootCandidates, the same hook the sharded
// fan-out partitions with) re-enumerates exactly the matches that could have
// changed. core.Revalidate builds incremental GFD revalidation on top.
package match

import (
	"sort"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// scopedBitsetRatio is the frequency-to-neighborhood skew beyond which the
// bitset path of ScopedRootCandidates wins: probing |hood| bits plus
// sorting the (≤ |hood|) survivors must undercut walking the label's full
// candidate run with a map lookup per element.
const scopedBitsetRatio = 4

// ScopedRootCandidates returns the candidate list for the first variable of
// order (the root frame) restricted to hood, ascending — ready to pass as
// Options.RootCandidates together with the same Order. The restriction is
// label-consistent by construction: it filters the root label's own
// candidate set. When the snapshot serves a candidate bitset for the root
// label and the neighborhood is much smaller than the label's frequency,
// the filter flips direction — probe each hood member against the bitset
// and sort the survivors, O(|hood|·(1+log|hood|)) instead of O(freq) —
// which is the common shape in revalidation: a small touched set against a
// high-frequency root label.
func ScopedRootCandidates(p *pattern.Pattern, g graph.Reader, order []pattern.Var, hood map[graph.NodeID]bool) []graph.NodeID {
	if len(order) == 0 {
		return nil
	}
	label := p.Label(order[0])
	if bp, ok := g.(graph.BitsetProvider); ok && len(hood)*scopedBitsetRatio < g.LabelFrequency(label) {
		if bs := bp.CandidateBitset(label); bs != nil {
			out := make([]graph.NodeID, 0, len(hood))
			for v := range hood {
				if bs.Test(v) {
					out = append(out, v)
				}
			}
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out
		}
	}
	cands := g.AppendCandidates(nil, label)
	kept := cands[:0]
	for _, v := range cands {
		if hood[v] {
			kept = append(kept, v)
		}
	}
	return kept
}
