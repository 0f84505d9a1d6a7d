// Per-snapshot candidate bitsets: O(1) membership for high-frequency label
// candidate sets. A sorted candidate run answers "is v a candidate for
// label l" only by binary search; when the probing side is small and the
// label's run is long (scoped revalidation roots, skewed frame
// intersections), a bitset over the node ID space turns each probe into one
// word read. Bitsets are built lazily on first request and cached on the
// snapshot — safe because snapshots are immutable, and bounded because only
// labels above a frequency and density floor get one (a sparse label's run
// is already cheap to search, and its bitset would be nearly all zeros).
package graph

import "sync"

// Bitset is a fixed-capacity bit vector over the dense NodeID space.
// The zero-length Bitset tests negative for every ID.
type Bitset []uint64

// newBitset returns a Bitset able to hold IDs in [0, n).
func newBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// BitsetOf returns a Bitset holding the ascending ids, sized to the
// largest.
func BitsetOf(ids []NodeID) Bitset {
	if len(ids) == 0 {
		return nil
	}
	b := newBitset(int(ids[len(ids)-1]) + 1)
	for _, v := range ids {
		b.set(v)
	}
	return b
}

// set marks v. The caller guarantees v is within capacity.
func (b Bitset) set(v NodeID) { b[uint(v)>>6] |= 1 << (uint(v) & 63) }

// Test reports whether v is in the set. IDs beyond the bitset's capacity
// (or negative) test false, so probing with IDs from a larger ID space is
// safe.
func (b Bitset) Test(v NodeID) bool {
	if v < 0 {
		return false
	}
	w := uint(v) >> 6
	return w < uint(len(b)) && b[w]&(1<<(uint(v)&63)) != 0
}

const (
	// bitsetMinFreq is the candidate-count floor below which no bitset is
	// built: a short sorted run beats a bitset probe's cache miss, and the
	// bitset's size is paid in the ID space, not the run length.
	bitsetMinFreq = 256
	// bitsetMaxSparsity caps how empty a built bitset may be: a label must
	// populate at least 1/bitsetMaxSparsity of the ID space, or the words
	// are mostly zero and the memory buys little.
	bitsetMaxSparsity = 64
)

// bitsetWorthwhile applies the build thresholds for a label with freq
// candidates in an ID space of n slots.
func bitsetWorthwhile(freq, n int) bool {
	return freq >= bitsetMinFreq && freq*bitsetMaxSparsity >= n
}

// bitsetCache is the lazily filled per-snapshot store, embedded in Frozen.
// The mutex only guards the map; a returned Bitset is immutable from the
// moment it is published.
type bitsetCache struct {
	mu   sync.Mutex
	sets map[string]Bitset
}

// get returns the cached bitset for label, building it via fill on a miss.
// fill must append the label's candidate IDs; it runs under the cache lock,
// which is fine because builds are rare (once per hot label per snapshot).
func (c *bitsetCache) get(label string, n int, fill func(Bitset)) Bitset {
	c.mu.Lock()
	defer c.mu.Unlock()
	if bs, ok := c.sets[label]; ok {
		return bs
	}
	bs := newBitset(n)
	fill(bs)
	if c.sets == nil {
		c.sets = make(map[string]Bitset)
	}
	c.sets[label] = bs
	return bs
}

// CandidateBitset returns a bitset over f's candidate set for label
// (wildcard = all live nodes), or nil when the label is below the build
// thresholds: callers fall back to the sorted candidate run and never read
// nil as "no candidates". The result is immutable and cached for the
// snapshot's lifetime; concurrent callers share one build.
func (f *Frozen) CandidateBitset(label string) Bitset {
	n := f.NumNodes()
	if !bitsetWorthwhile(f.LabelFrequency(label), n) {
		return nil
	}
	return f.bitsets.get(label, n, func(bs Bitset) {
		if label == Wildcard {
			for v := range n {
				if f.dead == nil || !f.dead[v] {
					bs.set(NodeID(v))
				}
			}
			return
		}
		for _, v := range f.nodesWithLabel(label) {
			bs.set(v)
		}
	})
}
