package graph

import (
	"fmt"
	"testing"
)

// TestAttrTablesAcrossChainedRefreezes chains 64 generations, each bringing
// a new value and every third a new name: as refreezes, each over the last
// one's result with a delta of its own, and as the chained overlays of one
// delta. Every generation must answer as its mirror does and keep every ID
// of the one before; an overlay's name and value tables must stay at most
// two layers deep, the base's and one of the delta's, however long the
// chain.
func TestAttrTablesAcrossChainedRefreezes(t *testing.T) {
	layers := func(s *strTable) int {
		n := 0
		for ; s != nil; s = s.base {
			n++
		}
		return n
	}
	for _, overlay := range []bool{false, true} {
		t.Run(map[bool]string{false: "refreeze", true: "overlay"}[overlay], func(t *testing.T) {
			mirror, f := fuzzBase()
			d := NewDelta(f)
			if overlay {
				f = d.Overlay()
			}
			for g := 0; g < 64; g++ {
				if !overlay {
					d = NewDelta(f)
				}
				v := NodeID(g % f.NumNodes())
				name, val := "a0", fmt.Sprintf("g%d", g)
				if g%3 == 0 {
					name = fmt.Sprintf("n%d", g)
				}
				d.SetAttr(v, name, val)
				mirror.SetAttr(v, name, val)
				var nf *Frozen
				if overlay {
					nf = d.Overlay()
					if n, m := layers(nf.attrNames), layers(nf.attrValues); n > 2 || m > 2 {
						t.Fatalf("generation %d: name table %d layers deep, value table %d", g, n, m)
					}
				} else {
					nf = f.Refreeze(d)
				}
				for id := uint32(0); id < f.attrValues.size(); id++ {
					if s := f.attrValues.str(id); nf.AttrValueID(s) != ValueID(id) {
						t.Fatalf("generation %d: value %q moved from ID %d to %d", g, s, id, nf.AttrValueID(s))
					}
				}
				for id := uint32(0); id < f.attrNames.size(); id++ {
					if s := f.attrNames.str(id); nf.AttrNameID(s) != AttrID(id) {
						t.Fatalf("generation %d: name %q moved from ID %d to %d", g, s, id, nf.AttrNameID(s))
					}
				}
				checkReaderEquivalence(t, fmt.Sprintf("generation %d", g), mirror.Frozen(), nf, fuzzNodeLabels, fuzzEdgeLabels)
				f = nf
			}
		})
	}
}
