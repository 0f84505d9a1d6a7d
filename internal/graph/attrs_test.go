package graph

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// TestAttrTablesAcrossChainedRefreezes chains 64 generations, each bringing
// a new value, every third a new name, and every fifth a node with a new
// node label and an edge with a new edge label: as refreezes, each over the
// last one's result with a delta of its own, and as the chained overlays of
// one delta. Every generation must answer as its mirror does and keep every
// ID of the one before. An overlay's four string tables must stay at most
// two layers deep, the base's and one of the delta's, however long the
// chain; a refreeze's label tables gain a layer only when its delta brought
// a new label.
func TestAttrTablesAcrossChainedRefreezes(t *testing.T) {
	layers := func(s *strTable) int {
		n := 0
		for ; s != nil; s = s.base {
			n++
		}
		return n
	}
	tables := func(f *Frozen) []*strTable {
		return []*strTable{f.attrNames, f.attrValues, f.nodeLabels, f.edgeLabels}
	}
	for _, overlay := range []bool{false, true} {
		t.Run(map[bool]string{false: "refreeze", true: "overlay"}[overlay], func(t *testing.T) {
			mirror, f := fuzzBase()
			nodeLabels, edgeLabels := slices.Clone(fuzzNodeLabels), slices.Clone(fuzzEdgeLabels)
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
				newLabels := g%5 == 1
				if newLabels {
					nl, el := fmt.Sprintf("L%d", g), fmt.Sprintf("E%d", g)
					u := d.AddNode(nl)
					mirror.AddNode(nl)
					d.AddEdge(v, u, el)
					mirror.AddEdge(v, u, el)
					nodeLabels, edgeLabels = append(nodeLabels, nl), append(edgeLabels, el)
				}
				var nf *Frozen
				if overlay {
					nf = d.Overlay()
					for i, s := range tables(nf) {
						if n := layers(s); n > 2 {
							t.Fatalf("generation %d: string table %d is %d layers deep", g, i, n)
						}
					}
				} else {
					nf = f.Refreeze(d)
					for i, s := range tables(nf)[2:] {
						want := layers(tables(f)[2+i])
						if newLabels {
							want++
						}
						if n := layers(s); n != want {
							t.Fatalf("generation %d: label table %d is %d layers deep, want %d", g, i, n, want)
						}
					}
				}
				for i, s := range tables(f) {
					for id := range s.size() {
						str := s.str(id)
						if got, ok := tables(nf)[i].id(str); !ok || got != id {
							t.Fatalf("generation %d: %q of table %d moved from ID %d", g, str, i, id)
						}
					}
				}
				checkReaderEquivalence(t, fmt.Sprintf("generation %d", g), mirror.Frozen(), nf, nodeLabels, edgeLabels)
				f = nf
			}
		})
	}
}

// columnsAgree reads every (node, name) pair of f through the name's value
// column, twice — the fill and the cached read — and fails where a read
// differs from AttrAt. NoAttr must have no column. It returns how many
// reads found no value.
func columnsAgree(t *testing.T, ctx string, f *Frozen) (missing int) {
	t.Helper()
	if f.AttrColumn(NoAttr) != nil {
		t.Fatalf("%s: NoAttr has a column", ctx)
	}
	for a := AttrID(0); a < AttrID(f.attrNames.size()); a++ {
		col := f.AttrColumn(a)
		if f.AttrColumn(a) != col {
			t.Fatalf("%s: name %d: a second request made a second column", ctx, a)
		}
		for pass := 0; pass < 2; pass++ {
			for v := NodeID(0); v < NodeID(f.NumNodes()); v++ {
				got, want := col.At(v), f.AttrAt(v, a)
				if got != want {
					t.Fatalf("%s: pass %d: column %q at node %d = %d, AttrAt %d", ctx, pass, f.attrNames.str(uint32(a)), v, got, want)
				}
				if got == NoValue && pass == 0 {
					missing++
				}
			}
		}
	}
	if n := f.NumAttrColumns(); n != int(f.attrNames.size()) {
		t.Fatalf("%s: %d columns for %d names", ctx, n, f.attrNames.size())
	}
	return missing
}

// TestAttrColumnsMatchAttrAt holds the value columns to AttrAt on every
// (node, name) pair: a missing attribute (the cached miss), tombstoned
// nodes of a Graph's snapshot and of an overlay, nodes an overlay adds past
// its base with a name the base lacks, a second overlay of the same delta,
// and chained refreezes, each over the last one's result.
func TestAttrColumnsMatchAttrAt(t *testing.T) {
	g := New()
	for i := 0; i < 6; i++ {
		v := g.AddNode("a")
		g.SetAttr(v, "A", fmt.Sprint("a", i%3))
		if i%2 == 0 {
			g.SetAttr(v, "B", "b") // odd nodes lack B
		}
	}
	g.SetAttr(2, "C", "c")
	g.SetAttr(4, "C", "c")
	g.RemoveNode(2)
	base := g.Frozen()
	if base.Alive(2) || base.AttrNameID("C") == NoAttr {
		t.Fatal("fixture: node 2 must be a tombstone and C a name of the base")
	}
	missing := columnsAgree(t, "base", base)

	d := NewDelta(base)
	added := d.AddNodeWithAttrs("a", map[string]string{"A": "a0", "N": "new"})
	d.RemoveNode(1)
	d.SetAttr(3, "B", "b3")
	o1 := d.Overlay()
	if int(added) < base.NumNodes() || o1.AttrNameID("N") == NoAttr {
		t.Fatal("fixture: the overlay must add a node past the base and the name N")
	}
	missing += columnsAgree(t, "overlay", o1)
	d.SetAttr(added, "A", "a9")
	d.AddNode("a")
	missing += columnsAgree(t, "second overlay", d.Overlay())
	if got := o1.AttrAt(added, o1.AttrNameID("A")); got != o1.AttrColumn(o1.AttrNameID("A")).At(added) || got != o1.AttrValueID("a0") {
		t.Fatal("the first overlay's column moved with the delta")
	}

	f := base
	for gen := 0; gen < 4; gen++ {
		dg := NewDelta(f)
		v := dg.AddNode("a")
		dg.SetAttr(v, fmt.Sprint("G", gen), "g")
		dg.SetAttr(NodeID(3+gen), "A", fmt.Sprint("r", gen))
		f = f.Refreeze(dg)
		missing += columnsAgree(t, fmt.Sprintf("refreeze %d", gen), f)
	}
	if missing == 0 {
		t.Fatal("vacuous: no read found a missing attribute")
	}
}

// TestAttrColumnConcurrentFill has eight goroutines request and fill every
// column of one snapshot at once, the way the workers of one validation
// share them: each must get the one column per name and read AttrAt's
// values. Run under -race it checks that the fills are atomic.
func TestAttrColumnConcurrentFill(t *testing.T) {
	_, f := fuzzBase()
	names := AttrID(f.attrNames.size())
	const readers = 8
	cols := make([][]*AttrColumn, readers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < readers; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			for a := AttrID(0); a < names; a++ {
				col := f.AttrColumn(a)
				cols[i] = append(cols[i], col)
				for v := NodeID(0); v < NodeID(f.NumNodes()); v++ {
					if got, want := col.At(v), f.AttrAt(v, a); got != want {
						t.Errorf("reader %d: column %d at node %d = %d, AttrAt %d", i, a, v, got, want)
					}
				}
			}
		}(i)
	}
	start.Done()
	done.Wait()
	if names == 0 {
		t.Fatal("fixture: the base carries no attribute")
	}
	for i := range cols {
		if !slices.Equal(cols[i], cols[0]) {
			t.Fatalf("reader %d got columns of its own", i)
		}
	}
	if n := f.NumAttrColumns(); n != int(names) {
		t.Fatalf("%d columns for %d names", n, names)
	}
}
