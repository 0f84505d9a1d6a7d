package graph

import (
	"fmt"
	"testing"
)

// TestAttrTablesAcrossChainedRefreezes refreezes a chain of generations,
// each over the last one's result and each bringing a new value, every
// third a new name too. Every generation must answer as its mirror does and
// keep every ID of its base.
func TestAttrTablesAcrossChainedRefreezes(t *testing.T) {
	mirror, f := fuzzBase()
	const gens = 64
	for g := 0; g < gens; g++ {
		d := NewDelta(f)
		v := NodeID(g % f.NumNodes())
		name, val := "a0", fmt.Sprintf("g%d", g)
		if g%3 == 0 {
			name = fmt.Sprintf("n%d", g)
		}
		d.SetAttr(v, name, val)
		mirror.SetAttr(v, name, val)
		nf := f.Refreeze(d)
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
}
