// Attributes as ID rows. A Frozen interns attribute names and values per
// snapshot and keeps each node's tuple F_A(v) as one run of (name, value)
// ID pairs, ascending by name, in a flat array behind per-node offsets — the
// layout of its adjacency rows. Validation resolves a literal program's
// names and constants to IDs once per snapshot (match.LiteralScratch) and
// then compares uint32s; Attr and Attrs translate back to strings for the
// cold callers (the oracle, the writers, Delta.SetAttr).
package graph

import (
	"cmp"
	"maps"
	"math"
	"slices"
)

// AttrID is an attribute name interned per snapshot, ValueID an attribute
// value. Like label IDs they do not transfer across snapshots, but a
// Refreeze or Compact keeps every ID its base had.
type (
	AttrID  uint32
	ValueID uint32
)

// NoAttr and NoValue are the IDs of a name or value the snapshot does not
// hold, and AttrAt answers NoValue for an attribute the node lacks. No row
// carries either: a constant that resolves to NoValue equals no value a
// node carries.
const (
	NoAttr  AttrID  = math.MaxUint32
	NoValue ValueID = math.MaxUint32
)

// attrKey packs one (name, value) pair of a row; a row ascends by key, so
// by name.
func attrKey(a AttrID, val ValueID) uint64 { return uint64(a)<<32 | uint64(val) }

// strTable interns strings as dense IDs. A snapshot never writes the table
// it holds: one under construction interns into a layer of its own over
// its base's table, if it has a base (newLayer), so a Refreeze shares every
// entry of its base's tables and adds only the strings its delta brought.
type strTable struct {
	base *strTable         // entries [0, off); nil when off is 0
	off  uint32            // the first ID of strs
	strs []string          // entries [off, off+len(strs))
	ids  map[string]uint32 // strs inverted
}

// newLayer returns an empty table continuing base's IDs; base may be nil.
func newLayer(base *strTable) *strTable {
	t := &strTable{base: base, ids: make(map[string]uint32)}
	if base != nil {
		t.off = base.size()
	}
	return t
}

// size returns the number of IDs the table assigns.
func (t *strTable) size() uint32 { return t.off + uint32(len(t.strs)) }

// id resolves s, walking the layers from the newest.
func (t *strTable) id(s string) (uint32, bool) {
	for ; t != nil; t = t.base {
		if id, ok := t.ids[s]; ok {
			return id, true
		}
	}
	return 0, false
}

// str returns the string of an ID the table assigned.
func (t *strTable) str(id uint32) string {
	for id < t.off {
		t = t.base
	}
	return t.strs[id-t.off]
}

// intern returns the ID of s, adding it to a table under construction when
// no layer holds it yet.
func (t *strTable) intern(s string) uint32 {
	if id, ok := t.id(s); ok {
		return id
	}
	return t.add(s)
}

// internBytes is intern for a table without a base, from bytes: a string
// it holds already costs no allocation.
func (t *strTable) internBytes(b []byte) uint32 {
	if id, ok := t.ids[string(b)]; ok {
		return id
	}
	return t.add(string(b))
}

func (t *strTable) add(s string) uint32 {
	id := t.size()
	t.ids[s] = id
	t.strs = append(t.strs, s)
	return id
}

// relayer returns a table under construction over base that already holds
// t's own entries under their IDs; t must be base or one layer over it.
// Every refreeze takes its tables this way (Delta.refreezeFrom), so along a
// chain of overlays a table is the delta base's plus one layer.
func (t *strTable) relayer(base *strTable) *strTable {
	if t == base {
		return newLayer(base)
	}
	// Clip: the first string added copies strs, which t still reads.
	return &strTable{base: base, off: t.off, strs: slices.Clip(t.strs), ids: maps.Clone(t.ids)}
}

// seal finishes a table under construction: an empty layer gives way to its
// base. A refreeze over a refrozen snapshot adds one layer per generation.
func (t *strTable) seal() *strTable {
	if t.base != nil && len(t.strs) == 0 {
		return t.base
	}
	return t
}

// attrBuilder is the attribute half of a snapshot under construction: the
// name and value tables it interns into, and the rows, appended node by
// node.
type attrBuilder struct {
	names, values *strTable
	off           []int32
	rows          []uint64
}

// newAttrBuilder starts the rows of n nodes, interning into the given
// tables under construction.
func newAttrBuilder(n int, names, values *strTable) *attrBuilder {
	return &attrBuilder{names: names, values: values, off: make([]int32, 1, n+1)}
}

// endRow sorts the pairs appended since the previous endRow into the next
// node's row.
func (r *attrBuilder) endRow() {
	slices.Sort(r.rows[r.off[len(r.off)-1]:])
	r.off = append(r.off, int32(len(r.rows)))
}

// appendTuple writes a node's row from its attribute map.
func (r *attrBuilder) appendTuple(m map[string]string) {
	for k, val := range m {
		r.rows = append(r.rows, attrKey(AttrID(r.names.intern(k)), ValueID(r.values.intern(val))))
	}
	r.endRow()
}

// copyRows appends nodes [lo, hi) of f's rows verbatim: one bulk copy and a
// constant offset shift.
func (r *attrBuilder) copyRows(f *Frozen, lo, hi int) {
	shift := int32(len(r.rows)) - f.attrOff[lo]
	r.rows = append(r.rows, f.attrKeys[f.attrOff[lo]:f.attrOff[hi]]...)
	for _, o := range f.attrOff[lo+1 : hi+1] {
		r.off = append(r.off, o+shift)
	}
}

// into installs the rows and tables in f.
func (r *attrBuilder) into(f *Frozen) {
	f.attrOff, f.attrKeys = r.off, r.rows
	f.attrNames, f.attrValues = r.names.seal(), r.values.seal()
}

// attrRun returns node v's row.
func (f *Frozen) attrRun(v NodeID) []uint64 { return f.attrKeys[f.attrOff[v]:f.attrOff[v+1]] }

// AttrNameID resolves an attribute name to its ID, NoAttr when no node of
// the snapshot ever carried it.
func (f *Frozen) AttrNameID(name string) AttrID {
	if id, ok := f.attrNames.id(name); ok {
		return AttrID(id)
	}
	return NoAttr
}

// AttrValueID resolves an attribute value to its ID, NoValue when no node
// of the snapshot ever carried it.
func (f *Frozen) AttrValueID(value string) ValueID {
	if id, ok := f.attrValues.id(value); ok {
		return ValueID(id)
	}
	return NoValue
}

// AttrAt returns the ID of the value of attribute a at node v, NoValue when
// v does not carry a: a binary search of v's row, no hashing.
func (f *Frozen) AttrAt(v NodeID, a AttrID) ValueID {
	if !f.valid(v) {
		return NoValue
	}
	run := f.attrRun(v)
	key := attrKey(a, 0)
	i, j := 0, len(run)
	for i < j {
		m := int(uint(i+j) >> 1)
		if run[m] < key {
			i = m + 1
		} else {
			j = m
		}
	}
	if i < len(run) && AttrID(run[i]>>32) == a {
		return ValueID(uint32(run[i]))
	}
	return NoValue
}

// Attr reports the value of attribute A at node v and whether it exists.
func (f *Frozen) Attr(v NodeID, attr string) (string, bool) {
	val := f.AttrAt(v, f.AttrNameID(attr))
	if val == NoValue {
		return "", false
	}
	return f.attrValues.str(uint32(val)), true
}

// Attrs returns the attribute tuple of v as a fresh map the caller owns (nil
// if v has none). It is built per call: hot paths read rows by ID.
func (f *Frozen) Attrs(v NodeID) map[string]string {
	if !f.valid(v) || f.attrOff[v] == f.attrOff[v+1] {
		return nil
	}
	run := f.attrRun(v)
	m := make(map[string]string, len(run))
	for _, k := range run {
		m[f.attrNames.str(uint32(k>>32))] = f.attrValues.str(uint32(k))
	}
	return m
}

// nameOrder returns the name IDs in string order and each ID's position in
// it: WriteSnapshot writes a tuple in name order whatever order the IDs were
// assigned in.
func (f *Frozen) nameOrder() (order, rank []uint32) {
	order = make([]uint32, f.attrNames.size())
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return cmp.Compare(f.attrNames.str(a), f.attrNames.str(b)) })
	rank = make([]uint32, len(order))
	for r, id := range order {
		rank[id] = uint32(r)
	}
	return order, rank
}
