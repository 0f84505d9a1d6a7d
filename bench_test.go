// Benchmarks regenerating the paper's evaluation (Section VII): one
// benchmark per table/figure, at a reduced fixed scale so `go test -bench=.`
// completes quickly. The full parameter sweeps with paper-style tables are
// produced by `go run ./cmd/benchall` (internal/bench holds the harness);
// DESIGN.md "Per-experiment index" maps each runner to its paper figure.
package repro

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/gfd"
	"repro/internal/graph"
	"repro/internal/match"
	"repro/internal/pattern"
	"repro/internal/rdfchase"
)

// benchN is the per-benchmark workload size (the paper uses 6000–10000
// GFDs on a 20-machine cluster; benchmarks run laptop-scale).
const benchN = 150

func benchSet(b *testing.B, prof *dataset.Profile, n, k, l int) *gfd.Set {
	b.Helper()
	g := gen.New(gen.Config{N: n, K: k, L: l, Profile: prof, WildcardRate: 0.2, Seed: 1})
	return g.Set()
}

func benchImp(b *testing.B, prof *dataset.Profile, n, k, l int) (*gfd.Set, *gfd.GFD) {
	b.Helper()
	g := gen.New(gen.Config{N: n, K: k, L: l, Profile: prof, WildcardRate: 0.2, Seed: 1})
	return g.ImpInstance(6)
}

func parOpt(p int) core.ParOptions {
	opt := core.DefaultParOptions(p)
	opt.TTL = 20 * time.Millisecond
	return opt
}

// BenchmarkFig5SequentialTable reproduces Fig. 5: SeqSat, SeqImp and the
// chase baseline ParImpRDF on each dataset's GFDs.
func BenchmarkFig5SequentialTable(b *testing.B) {
	for _, prof := range dataset.All() {
		set := benchSet(b, prof, benchN, 6, 5)
		impSet, phi := benchImp(b, prof, benchN, 6, 5)
		b.Run("SeqSat/"+prof.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SeqSat(set)
			}
		})
		b.Run("SeqImp/"+prof.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SeqImp(impSet, phi)
			}
		})
		b.Run("ParImpRDF/"+prof.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rdfchase.Implies(impSet, phi)
			}
		})
	}
}

// varyP runs a parallel satisfiability benchmark across the paper's p axis.
func benchVaryPSat(b *testing.B, prof *dataset.Profile) {
	set := benchSet(b, prof, 2*benchN, 6, 5)
	for _, p := range []int{4, 12, 20} {
		for _, variant := range []string{"full", "nb"} {
			opt := parOpt(p)
			if variant == "nb" {
				opt.TTL = 0 // no unit splitting
			}
			b.Run(fmt.Sprintf("%s/p=%d", variant, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.ParSat(set, opt)
				}
			})
		}
	}
}

func benchVaryPImp(b *testing.B, prof *dataset.Profile) {
	set, phi := benchImp(b, prof, 2*benchN, 6, 5)
	for _, p := range []int{4, 12, 20} {
		for _, variant := range []string{"full", "nb"} {
			opt := parOpt(p)
			if variant == "nb" {
				opt.TTL = 0 // no unit splitting
			}
			b.Run(fmt.Sprintf("%s/p=%d", variant, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					core.ParImp(set, phi, opt)
				}
			})
		}
	}
}

// BenchmarkFig6aVaryPSatDBpedia reproduces Fig. 6(a).
func BenchmarkFig6aVaryPSatDBpedia(b *testing.B) { benchVaryPSat(b, dataset.DBpedia()) }

// BenchmarkFig6bVaryPSatYAGO2 reproduces Fig. 6(b).
func BenchmarkFig6bVaryPSatYAGO2(b *testing.B) { benchVaryPSat(b, dataset.YAGO2()) }

// BenchmarkFig6cVaryPImpDBpedia reproduces Fig. 6(c).
func BenchmarkFig6cVaryPImpDBpedia(b *testing.B) { benchVaryPImp(b, dataset.DBpedia()) }

// BenchmarkFig6dVaryPImpYAGO2 reproduces Fig. 6(d).
func BenchmarkFig6dVaryPImpYAGO2(b *testing.B) { benchVaryPImp(b, dataset.YAGO2()) }

// BenchmarkFig6eVarySigmaSat reproduces Fig. 6(e): satisfiability vs |Σ|
// (synthetic, k=6, l=5, p=4).
func BenchmarkFig6eVarySigmaSat(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		g := gen.New(gen.Config{N: n, K: 6, L: 5, Seed: 1})
		set := g.Set()
		b.Run(fmt.Sprintf("SeqSat/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SeqSat(set)
			}
		})
		b.Run(fmt.Sprintf("ParSat/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ParSat(set, parOpt(4))
			}
		})
	}
}

// BenchmarkFig6fVarySigmaImp reproduces Fig. 6(f): implication vs |Σ|,
// including the chase baseline.
func BenchmarkFig6fVarySigmaImp(b *testing.B) {
	for _, n := range []int{50, 100, 200} {
		g := gen.New(gen.Config{N: n, K: 6, L: 5, Seed: 1})
		set, phi := g.ImpInstance(6)
		b.Run(fmt.Sprintf("SeqImp/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SeqImp(set, phi)
			}
		})
		b.Run(fmt.Sprintf("ParImp/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ParImp(set, phi, parOpt(4))
			}
		})
		b.Run(fmt.Sprintf("ParImpRDF/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rdfchase.Implies(set, phi)
			}
		})
	}
}

// BenchmarkFig6gVaryKSat reproduces Fig. 6(g): satisfiability vs pattern
// size k (l=3, p=4, DBpedia seeds).
func BenchmarkFig6gVaryKSat(b *testing.B) {
	for _, k := range []int{2, 6, 10} {
		set := benchSet(b, dataset.DBpedia(), benchN, k, 3)
		b.Run(fmt.Sprintf("SeqSat/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SeqSat(set)
			}
		})
		b.Run(fmt.Sprintf("ParSat/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ParSat(set, parOpt(4))
			}
		})
	}
}

// BenchmarkFig6hVaryLSat reproduces Fig. 6(h): satisfiability vs literal
// count l (k=5).
func BenchmarkFig6hVaryLSat(b *testing.B) {
	for _, l := range []int{1, 3, 5} {
		set := benchSet(b, dataset.DBpedia(), benchN, 5, l)
		b.Run(fmt.Sprintf("SeqSat/l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SeqSat(set)
			}
		})
		b.Run(fmt.Sprintf("ParSat/l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ParSat(set, parOpt(4))
			}
		})
	}
}

// BenchmarkFig6iVaryKImp reproduces Fig. 6(i): implication vs k.
func BenchmarkFig6iVaryKImp(b *testing.B) {
	for _, k := range []int{2, 6, 10} {
		set, phi := benchImp(b, dataset.DBpedia(), benchN, k, 3)
		b.Run(fmt.Sprintf("SeqImp/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SeqImp(set, phi)
			}
		})
		b.Run(fmt.Sprintf("ParImp/k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ParImp(set, phi, parOpt(4))
			}
		})
	}
}

// BenchmarkFig6jVaryLImp reproduces Fig. 6(j): implication vs l.
func BenchmarkFig6jVaryLImp(b *testing.B) {
	for _, l := range []int{1, 3, 5} {
		set, phi := benchImp(b, dataset.DBpedia(), benchN, 5, l)
		b.Run(fmt.Sprintf("SeqImp/l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SeqImp(set, phi)
			}
		})
		b.Run(fmt.Sprintf("ParImp/l=%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ParImp(set, phi, parOpt(4))
			}
		})
	}
}

// BenchmarkFig6kVaryTTLSat reproduces Fig. 6(k): the straggler TTL sweep
// for satisfiability (p=4); the paper's 0.1s–8s axis maps to milliseconds
// at this workload scale.
func BenchmarkFig6kVaryTTLSat(b *testing.B) {
	set := benchSet(b, dataset.DBpedia(), benchN, 6, 3)
	for _, ttl := range []time.Duration{time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond} {
		opt := parOpt(4)
		opt.TTL = ttl
		b.Run(fmt.Sprintf("TTL=%v", ttl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ParSat(set, opt)
			}
		})
	}
}

// benchMatchWorkload builds the label-dense matching workload shared by
// the BenchmarkMatch* trio: a dense consistent data graph (every node
// carries a fat multi-label adjacency, every label a large candidate set)
// plus triangle patterns walked out of the generator's own schema. The
// closing edge of each triangle is satisfied by only a few percent of the
// two-hop paths, so the search rejects most partial assignments — exactly
// the adjacency-filtering work the index accelerates. (Tree patterns on a
// dense graph are output-bound instead: nearly every branch succeeds and
// enumeration cost is owned by match materialization, which no index can
// shrink.) The workload is bench.MatchWorkload at the default workload
// seed — exactly the one the CI regression gate measures.
func benchMatchWorkload(b *testing.B) (*graph.Graph, []*pattern.Pattern) {
	b.Helper()
	g, ps, err := bench.MatchWorkload(1)
	if err != nil {
		b.Fatal(err)
	}
	return g, ps
}

// benchMatch fully enumerates every pattern's homomorphisms against the
// given representation of the workload graph. Full enumeration (rather
// than a match cap) keeps the representations comparable: both explore
// exactly the same search tree, so the measured difference is pure
// per-trial filtering cost.
func benchMatch(b *testing.B, g graph.Reader, ps []*pattern.Pattern) {
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			total += match.NewSearch(p, g, match.Options{}).CountAll()
		}
	}
	if total == 0 {
		b.Fatal("workload produced no matches; benchmark is vacuous")
	}
	// Matches are views, so allocs/op no longer tracks the match count;
	// this does, and must agree between the representations.
	b.ReportMetric(float64(total)/float64(b.N), "matches/op")
}

// BenchmarkMatchIndexed measures the matching inner loop on the mutable
// graph's label-keyed adjacency index with signature pruning.
func BenchmarkMatchIndexed(b *testing.B) {
	g, ps := benchMatchWorkload(b)
	benchMatch(b, g, ps)
}

// BenchmarkMatchFrozen runs the identical enumeration on the frozen CSR
// snapshot of the same workload graph: the two-representation acceptance
// gate is that this stays within a few percent of (or beats)
// BenchmarkMatchIndexed.
func BenchmarkMatchFrozen(b *testing.B) {
	g, ps := benchMatchWorkload(b)
	f := g.Frozen()
	benchMatch(b, f, ps)
}

// BenchmarkMatchSharded fans the same enumeration out per shard of the
// sharded snapshot at the CI gate's worker width: each shard's slice of the
// root candidate set runs as an independent search. Compare with
// BenchmarkMatchFrozen for the parallel speedup (bounded by core count; on
// one core it measures the fan-out overhead, which the CI gate bounds).
func BenchmarkMatchSharded(b *testing.B) {
	g, ps := benchMatchWorkload(b)
	s := g.Frozen().Sharded(bench.CIShardWorkers)
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			total += match.CountSharded(p, s, bench.CIShardWorkers, match.Options{})
		}
	}
	if total == 0 {
		b.Fatal("workload produced no matches; benchmark is vacuous")
	}
}

// BenchmarkParSatSharded measures ParSat on the shared parallel-reasoning
// workload (bench.ParWorkload, the one the CI report's parsat_steal_ms is
// measured on): 8 workers, millisecond TTL so straggler splitting fires and
// split branches exercise the pool's deques.
func BenchmarkParSatSharded(b *testing.B) {
	set, opt := bench.ParWorkload(1)
	for i := 0; i < b.N; i++ {
		core.ParSat(set, opt)
	}
}

// BenchmarkRefreezeIncremental measures Frozen.Refreeze merging a 1% delta
// into the 100k-edge hub-heavy ingest base (bench.RefreezeWorkload, the
// workload the CI gate's refreeze_speedup ratio is measured on). Each
// iteration refreezes a pre-built delta whose overlay already materialized
// the merged rows — the lifecycle position Refreeze runs in. Compare with
// BenchmarkRefreezeRebuild for the incremental speedup.
func BenchmarkRefreezeIncremental(b *testing.B) {
	base, mkDelta, _, _, _ := bench.RefreezeWorkload(1)
	d := mkDelta()
	d.Overlay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.Refreeze(d)
	}
}

// BenchmarkRefreezeRebuild is the from-scratch comparison: Builder.Freeze
// over the final-state edge arrays of the same workload.
func BenchmarkRefreezeRebuild(b *testing.B) {
	_, _, from, to, lab := bench.RefreezeWorkload(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.IngestFrozen(from, to, lab)
	}
}

// BenchmarkSnapshotLoad measures graph.ReadSnapshot of the ingest base's
// binary image (the workload the CI gate's snapshot_load_speedup ratio is
// measured on). Compare with BenchmarkSnapshotRebuild for the load speedup.
func BenchmarkSnapshotLoad(b *testing.B) {
	from, to, lab := bench.HubHeavyIngest(1)
	img, err := bench.SnapshotImage(bench.IngestFrozen(from, to, lab))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(img)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ReadSnapshot(bytes.NewReader(img)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRebuild is the from-edges comparison: Builder.Freeze over
// the same workload's raw arrays — what serving would pay without the image.
func BenchmarkSnapshotRebuild(b *testing.B) {
	from, to, lab := bench.HubHeavyIngest(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bench.IngestFrozen(from, to, lab)
	}
}

// BenchmarkSnapshotSave measures graph.Frozen.WriteSnapshot of the same
// base to memory.
func BenchmarkSnapshotSave(b *testing.B) {
	from, to, lab := bench.HubHeavyIngest(1)
	f := bench.IngestFrozen(from, to, lab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.SnapshotImage(f); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRefreezeDeadBase and BenchmarkRefreezeCompacted bracket the CI
// gate's compact_refreeze_speedup ratio: identical 1%-scale churn refrozen
// against the 30%-dead base and against its compacted equivalent.
func BenchmarkRefreezeDeadBase(b *testing.B) {
	deadBase, _, _, mkDead, _, err := bench.CompactWorkload(1)
	if err != nil {
		b.Fatal(err)
	}
	d := mkDead()
	d.Overlay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deadBase.Refreeze(d)
	}
}

func BenchmarkRefreezeCompacted(b *testing.B) {
	_, compacted, _, _, mkCompact, err := bench.CompactWorkload(1)
	if err != nil {
		b.Fatal(err)
	}
	d := mkCompact()
	d.Overlay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compacted.Refreeze(d)
	}
}

// BenchmarkWALRecover measures graph.Recover replaying the canonical
// sampled update stream over its base.
func BenchmarkWALRecover(b *testing.B) {
	base, apply := bench.WALWorkload(1)
	var log bytes.Buffer
	w := graph.NewWAL(&log, graph.NewDelta(base))
	apply(w)
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(log.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := graph.Recover(base, bytes.NewReader(log.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRevalidateIncremental measures core.Revalidate re-validating the
// triangle workload after a small delta (bench.ValidateWorkload, the CI
// gate's incr_validate_speedup workload). Compare with
// BenchmarkRevalidateFull.
func BenchmarkRevalidateIncremental(b *testing.B) {
	set, base, delta, err := bench.ValidateWorkload(1)
	if err != nil {
		b.Fatal(err)
	}
	prev := core.Violations(base, set)
	delta.Overlay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.RevalidateDelta(set, delta, prev, core.RevalidateOptions{})
	}
}

// BenchmarkRevalidateFull is the full recomputation over the same overlay.
func BenchmarkRevalidateFull(b *testing.B) {
	set, _, delta, err := bench.ValidateWorkload(1)
	if err != nil {
		b.Fatal(err)
	}
	overlay := delta.Overlay()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Violations(overlay, set)
	}
}

// BenchmarkFig6lVaryTTLImp reproduces Fig. 6(l): the TTL sweep for
// implication.
func BenchmarkFig6lVaryTTLImp(b *testing.B) {
	set, phi := benchImp(b, dataset.DBpedia(), benchN, 6, 3)
	for _, ttl := range []time.Duration{time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond} {
		opt := parOpt(4)
		opt.TTL = ttl
		b.Run(fmt.Sprintf("TTL=%v", ttl), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.ParImp(set, phi, opt)
			}
		})
	}
}

// BenchmarkEnforce measures the enforcement layer on its own: every match of
// a DBpedia-profile Σ in G_Σ is enumerated once, outside the timer, and each
// iteration resolves Σ's literals and chases those matches through a fresh
// enforcer and Eq. Run with -benchmem: the layer runs on IDs, so ns/match
// and allocs/match are what a change to eq or the pending index moves.
func BenchmarkEnforce(b *testing.B) {
	set, ms := bench.EnforceWorkload(1600, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st, con := core.EnforceMatches(set, ms); con != nil || st.Enforcements == 0 {
			b.Fatalf("enforcement workload is vacuous or conflicted: %+v, %v", st, con)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(ms)), "ns/match")
}

// BenchmarkSimulateSigma measures the simulation pre-pass on its own: every
// pattern group of a DBpedia-profile Σ against G_Σ, once with a one-shot
// match.Simulate per group (what the end-to-end benchmark's match.simulate_s
// probe times) and once through a shared match.Simulator (what each ParSat
// worker does). Run with -benchmem: the gap between the two is the seed
// memo, the allocation figures are the sparse layout.
func BenchmarkSimulateSigma(b *testing.B) {
	for _, n := range []int{400, 1600} {
		groups, g := bench.SimulateWorkload(n, 1)
		for _, mode := range []string{"oneshot", "shared"} {
			b.Run(fmt.Sprintf("N=%d/%s", n, mode), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if bench.SimulateSigma(groups, g, mode == "shared") == 0 {
						b.Fatal("no pattern of Σ simulates into G_Σ; benchmark is vacuous")
					}
				}
			})
		}
	}
}
