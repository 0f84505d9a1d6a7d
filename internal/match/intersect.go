// Adaptive intersection kernels. Frame verification and candidate
// generation reduce to one primitive: compact a sorted candidate list to
// the elements present in a second sorted list (or set). The linear merge
// in match.go is optimal when the operands are comparably sized, but the
// hot workloads are skewed — a handful of generated candidates intersected
// with a hub's ten-thousand-entry adjacency run — and there a galloping
// (exponential-probe) search pays O(short·log(long)) instead of O(long).
// The picker chooses per call from the operand cardinalities; a snapshot's
// candidate bitset (Frozen.CandidateBitset) serves the third shape, where
// membership in a high-frequency label's candidate set is tested per
// element in O(1).
//
// Every kernel computes the same function — base filtered, in place, to
// the elements contained in list, preserving base's order and multiplicity
// — so they are interchangeable per call site. FuzzIntersect and the
// adaptive-equivalence property tests pin that contract.
package match

import (
	"repro/internal/graph"
	"repro/internal/pattern"
)

// gallopRatio is the length skew beyond which galloping beats the linear
// merge: iterating the short side with exponential probes into the long
// side costs ~short·(log₂(long/short)+2) compares against the merge's
// short+long, so the crossover sits near long/short ≈ 8 once the gallop's
// branchier inner loop is priced in.
const gallopRatio = 8

// intersectAdaptive is the strategy picker: merge for comparable operand
// lengths, gallop from the shorter side for skewed ones.
func intersectAdaptive(base, list []graph.NodeID) []graph.NodeID {
	switch {
	case len(base) == 0 || len(list) == 0:
		return base[:0]
	case len(list) >= gallopRatio*len(base):
		return intersectGallopList(base, list)
	case len(base) >= gallopRatio*len(list):
		return intersectGallopBase(base, list)
	}
	return intersectSorted(base, list)
}

// gallopSearch returns the first index i ≥ lo with list[i] ≥ x: an
// exponential probe from lo (1, 2, 4, … steps) brackets x, then a binary
// search pins it. Cost is O(log d) where d is the distance from lo, so a
// pass of ascending lookups that advances lo as it goes totals
// O(short·log(long/short)) — each lookup pays for the distance it moved,
// not for the whole list.
func gallopSearch(list []graph.NodeID, lo int, x graph.NodeID) int {
	if lo >= len(list) || list[lo] >= x {
		return lo
	}
	step := 1
	i := lo
	for i+step < len(list) && list[i+step] < x {
		i += step
		step <<= 1
	}
	hi := i + step
	if hi > len(list) {
		hi = len(list)
	}
	i++
	for i < hi {
		m := int(uint(i+hi) >> 1)
		if list[m] < x {
			i = m + 1
		} else {
			hi = m
		}
	}
	return i
}

// intersectGallopList iterates base (the short side) and gallops a cursor
// through list. On a match the cursor stays put, so duplicate base
// elements re-test the same list slot and keep their multiplicity exactly
// as the merge does. In-place compaction is safe: the write index never
// passes the read index.
func intersectGallopList(base, list []graph.NodeID) []graph.NodeID {
	kept := base[:0]
	lo := 0
	for _, n := range base {
		lo = gallopSearch(list, lo, n)
		if lo >= len(list) {
			break
		}
		if list[lo] == n {
			kept = append(kept, n)
		}
	}
	return kept
}

// intersectGallopBase iterates list (the short side) and gallops through
// base, keeping every base occurrence of each matched value. In-place
// compaction is safe for the same reason as above: after k appends the
// read cursor is at least k, so writes trail reads.
func intersectGallopBase(base, list []graph.NodeID) []graph.NodeID {
	kept := base[:0]
	lo := 0
	for _, n := range list {
		lo = gallopSearch(base, lo, n)
		if lo >= len(base) {
			break
		}
		for lo < len(base) && base[lo] == n {
			kept = append(kept, n)
			lo++
		}
	}
	return kept
}

// intersectBitset compacts base to the elements the bitset contains: the
// O(1)-membership kernel for operands served as a snapshot candidate
// bitset.
func intersectBitset(base []graph.NodeID, bs graph.Bitset) []graph.NodeID {
	kept := base[:0]
	for _, n := range base {
		if bs.Test(n) {
			kept = append(kept, n)
		}
	}
	return kept
}

// expandFrom appends to base the members of run (an assigned neighbor's
// label-filtered adjacency) that can match v, i.e. run filtered by v's
// node label. The kernel is picked from the operand cardinalities:
//
//   - v's label is the wildcard: no filter, append run whole;
//   - v's label run is much shorter than the adjacency run: pull the label
//     candidates and gallop them through run — O(freq·log|run|) instead of
//     scanning all of run;
//   - otherwise scan run, testing each element's label — through the
//     snapshot's candidate bitset when one exists (one word probe, no
//     label-table indirection), else the interned label ID.
//
// All three produce the same ascending candidate list (pinned by the
// adaptive-equivalence tests); a gallop result additionally never repeats
// an element, which only matters under a wildcard generating edge, where
// the caller dedups anyway.
func (s *Search) expandFrom(v pattern.Var, base, run []graph.NodeID) []graph.NodeID {
	want := s.vars[v].labelID
	if want == graph.AnyLabel {
		return append(base, run...)
	}
	if f := s.vars[v].freq; f*gallopRatio < len(run) {
		start := len(base)
		base = s.g.AppendCandidates(base, s.p.Label(v))
		kept := intersectGallopList(base[start:], run)
		return base[:start+len(kept)]
	}
	if bs := s.vars[v].cand; bs != nil {
		for _, n := range run {
			if bs.Test(n) {
				base = append(base, n)
			}
		}
		return base
	}
	for _, n := range run {
		if want == s.g.LabelIDOf(n) {
			base = append(base, n)
		}
	}
	return base
}
