package match_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
)

// genReaders materializes one gen workload under the three representations
// a search runs on: the mutable graph, its frozen snapshot, and an overlay
// that removed a few of the snapshot's edges and one node.
func genReaders(seed int64) (*gen.Generator, map[string]graph.Reader) {
	gr := gen.New(gen.Config{N: 10, K: 4, L: 2, Profile: dataset.All()[int(seed)%len(dataset.All())], WildcardRate: 0.3, Seed: seed})
	f := gr.ConsistentGraph(40)
	g := mutableCopy(f)
	d := graph.NewDelta(f)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 6; i++ {
		if es := g.Out(graph.NodeID(rng.Intn(g.NumNodes()))); len(es) > 0 {
			e := es[rng.Intn(len(es))]
			d.RemoveEdge(e.From, e.To, e.Label)
		}
	}
	d.RemoveNode(graph.NodeID(rng.Intn(g.NumNodes())))
	return gr, map[string]graph.Reader{"mutable": g, "frozen": f, "overlay": d.Overlay()}
}

// drain runs the search dry, rendering each match as it is handed out.
func drain(s *match.Search) []string {
	var out []string
	for h, ok := s.Next(); ok; h, ok = s.Next() {
		out = append(out, fmt.Sprint(h))
	}
	return out
}

// TestNextIsAView pins the lifetime contract: what Next returns is the
// search's own assignment, so a result kept without Clone changes under the
// next Next while a Clone does not — and the Find* helpers, which return
// slices, hand out matches that share no memory.
func TestNextIsAView(t *testing.T) {
	viewed := false
	for seed := int64(1); seed <= 4; seed++ {
		gr, readers := genReaders(seed)
		f := readers["frozen"].(*graph.Frozen)
		for i := 0; i < 6; i++ {
			p := gr.Pattern()
			s := match.NewSearch(p, f, match.Options{})
			first, ok := s.Next()
			if !ok {
				continue
			}
			kept, before := first.Clone(), fmt.Sprint(first)
			if second, ok := s.Next(); ok {
				viewed = true
				if fmt.Sprint(first) != fmt.Sprint(second) {
					t.Fatalf("seed=%d %s: the retained result %v does not follow the search's next match %v", seed, p, first, second)
				}
				if fmt.Sprint(second) == before {
					t.Fatalf("seed=%d %s: two consecutive matches are equal: %v", seed, p, second)
				}
			}
			if fmt.Sprint(kept) != before {
				t.Fatalf("seed=%d %s: the clone moved with the search: %v, was %s", seed, p, kept, before)
			}

			for name, all := range map[string][]match.Assignment{
				"FindAll":        match.FindAll(p, f),
				"FindAllOpts":    match.FindAllOpts(p, f, match.Options{Order: match.DefaultOrder(p)}),
				"FindAllSharded": match.FindAllSharded(p, f.Sharded(3), 2, match.Options{}),
			} {
				want := drain(match.NewSearch(p, f, match.Options{}))
				if len(all) != len(want) {
					t.Fatalf("seed=%d %s %s: %d matches, the search yields %d", seed, p, name, len(all), len(want))
				}
				// Scribbling over one result must leave every other intact.
				for j := range all {
					for v := range all[j] {
						all[j][v] = graph.InvalidNode
					}
					for k := j + 1; k < len(all); k++ {
						if fmt.Sprint(all[k]) != want[k] {
							t.Fatalf("seed=%d %s %s: results %d and %d share memory", seed, p, name, j, k)
						}
					}
				}
			}
		}
	}
	if !viewed {
		t.Fatal("no pattern had two matches; the view half of the test is vacuous")
	}
}

// TestSeedPastOpenVariable roots a search in one node of the variable the
// default order puts last, with that variable's pivot order: the other
// variables are still enumerated in order and the match set is the
// oracle's, restricted to the root.
func TestSeedPastOpenVariable(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 4; seed++ {
		gr, readers := genReaders(seed)
		f := readers["frozen"]
		for i := 0; i < 6; i++ {
			p := gr.Pattern()
			order := match.DefaultOrder(p)
			full := match.FindAll(p, f)
			if len(order) < 2 || len(full) == 0 {
				continue
			}
			last := order[len(order)-1]
			z := full[len(full)/2][last]
			got := matchSet(p, f, match.Options{Order: p.PivotOrder(last), RootCandidates: []graph.NodeID{z}})
			want := oracleSet(p, f, func(h []graph.NodeID) bool { return h[last] == z })
			diffSets(t, fmt.Sprintf("seed=%d %s rooted at x%d", seed, p, last), got, want)
			checked += len(want)
		}
	}
	if checked == 0 {
		t.Fatal("no rooted match compared; test is vacuous")
	}
}

// TestEnumerateGroupedOracle anchors the grouped enumeration on the
// brute-force oracle, with a harness that keeps every emitted match. The
// harness must clone: keeping the views themselves leaves each group with
// copies of whatever its search held last, which the comparison catches.
func TestEnumerateGroupedOracle(t *testing.T) {
	noticed := false
	for seed := int64(1); seed <= 6; seed++ {
		gr, readers := genReaders(seed)
		pats := make([]*pattern.Pattern, 0, 9)
		for i := 0; i < 6; i++ {
			pats = append(pats, gr.Pattern())
		}
		pats = append(pats, prefixChainPatterns()...)
		groups := make([]match.PatternGroup, len(pats))
		for i, p := range pats {
			groups[i] = match.PatternGroup{Pattern: p}
		}
		readers["family"] = familyGraph().Frozen()
		for name, r := range readers {
			collect := func(keep func(match.Assignment) match.Assignment) [][]match.Assignment {
				got := make([][]match.Assignment, len(pats))
				_, err := match.EnumerateGrouped(context.Background(), r, groups, func(gi int, h match.Assignment) bool {
					got[gi] = append(got[gi], keep(h))
					return true
				})
				if err != nil {
					t.Fatalf("seed=%d %s: %v", seed, name, err)
				}
				return got
			}
			cloned := collect(match.Assignment.Clone)
			retained := collect(func(h match.Assignment) match.Assignment { return h })
			for i, p := range pats {
				want := oracleSet(p, r, nil)
				diffSets(t, fmt.Sprintf("seed=%d %s group %d %s", seed, name, i, p), matchSetOf(cloned[i]), want)
				if len(want) > 1 && fmt.Sprint(matchSetOf(retained[i])) != fmt.Sprint(want) {
					noticed = true
				}
			}
		}
	}
	if !noticed {
		t.Fatal("a harness that retains views without cloning passed the oracle comparison")
	}
}
