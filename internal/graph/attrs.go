// Attributes as ID rows. A Frozen interns attribute names and values per
// snapshot and keeps each node's tuple F_A(v) as one run of (name, value)
// ID pairs, ascending by name, in a flat array behind a per-node header — the
// layout of its adjacency rows. Validation resolves a literal program's
// names and constants to IDs once per snapshot (match.LiteralScratch) and
// then compares uint32s; Attr and Attrs translate back to strings for the
// cold callers (the oracle, the writers, Delta.SetAttr). Validation with
// many matches per node reads value columns (AttrColumn) instead.
package graph

import (
	"cmp"
	"maps"
	"math"
	"slices"
	"sync/atomic"
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

// strTable interns strings as dense IDs: a snapshot's node labels, edge
// labels, attribute names and attribute values each have one. A snapshot
// never writes the table it holds: one under construction interns into a
// layer of its own over its base's table, if it has a base (newLayer), so a
// Refreeze shares every entry of its base's tables and adds only the
// strings its delta brought.
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

// join interns local's entries in ID order and returns the ID each got;
// an empty t takes them as they are.
func (t *strTable) join(local *strTable) []uint32 {
	m, adopt := make([]uint32, len(local.strs)), t.size() == 0
	for i, s := range local.strs {
		if m[i] = uint32(i); !adopt {
			m[i] = t.intern(s)
		}
	}
	if adopt {
		*t = *local
	}
	return m
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

// span is where one node's attribute row lies in its snapshot's attrKeys:
// entries [lo, hi).
type span struct{ lo, hi int32 }

// attrBuilder is the attribute half of a snapshot under construction: the
// name and value tables it interns into, each node's row header, and the
// storage rows are appended to.
type attrBuilder struct {
	names, values *strTable
	rows          []span
	keys          []uint64
}

// endRow sorts the last n pairs appended into node v's row.
func (r *attrBuilder) endRow(v NodeID, n int) {
	lo := len(r.keys) - n
	slices.Sort(r.keys[lo:])
	r.rows[v] = span{int32(lo), int32(len(r.keys))}
}

// appendTuple writes node v's row from its attribute map.
func (r *attrBuilder) appendTuple(v NodeID, m map[string]string) {
	for k, val := range m {
		r.keys = append(r.keys, attrKey(AttrID(r.names.intern(k)), ValueID(r.values.intern(val))))
	}
	r.endRow(v, len(m))
}

// into installs the rows and tables in f.
func (r *attrBuilder) into(f *Frozen) {
	f.attrRows, f.attrKeys = r.rows, r.keys
	f.attrNames, f.attrValues = r.names.seal(), r.values.seal()
}

// attrRun returns node v's row.
func (f *Frozen) attrRun(v NodeID) []uint64 { return f.attrKeys[f.attrRows[v].lo:f.attrRows[v].hi] }

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

// AttrColumn is attribute a's values over the snapshot's node space, each
// read from its node's row the first time any caller asks for it. A column
// costs 4 B per node; a snapshot makes at most one per name.
type AttrColumn struct {
	f *Frozen
	a AttrID
	// Per node, 0 until read, then 2 + the value ID (NoValue wraps to 1);
	// not atomic.Uint32s, whose methods take At over the inlining budget.
	codes []uint32
}

// AttrColumn returns the value column of attribute a, creating it on the
// first request; nil for NoAttr. It is safe for concurrent use.
func (f *Frozen) AttrColumn(a AttrID) *AttrColumn {
	if a == NoAttr {
		return nil
	}
	return f.columns.get(a, func() *AttrColumn {
		return &AttrColumn{f: f, a: a, codes: make([]uint32, f.NumNodes())}
	})
}

// NumAttrColumns returns the number of value columns f has created.
func (f *Frozen) NumAttrColumns() int {
	f.columns.mu.Lock()
	defer f.columns.mu.Unlock()
	return len(f.columns.m)
}

// At returns AttrAt(v, a), searching v's row only on the entry's first
// read: small enough to inline, with the fill out of line.
func (c *AttrColumn) At(v NodeID) ValueID {
	if code := atomic.LoadUint32(&c.codes[v]); code != 0 {
		return ValueID(code - 2)
	}
	return c.fill(v)
}

// fill reads v's entry from its row; racing fillers store the same code.
//
//go:noinline
func (c *AttrColumn) fill(v NodeID) ValueID {
	val := c.f.AttrAt(v, c.a)
	atomic.StoreUint32(&c.codes[v], uint32(val)+2)
	return val
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
	if !f.valid(v) || len(f.attrRun(v)) == 0 {
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
