// Incremental re-freeze: merging a Delta into a new snapshot without the
// full O(E log deg) rebuild, and without copying the rows it keeps. Each row
// of a Frozen has its own header (csrDir.rows, Frozen.attrRows). A refreeze
// sorts only the k edits (Delta.dirRows), merges each touched node's row
// with its edits in one linear pass, and appends it through
// csrDir.appendRow, the row writer Freeze uses, to storage it shares with
// its source; it clones the header tables, so a row read stays one header
// load. A snapshot's readers read only below its slice lengths: the first
// refreeze from a source claims its tail (Frozen.claimed) and appends in
// place while its capacity lasts; a later one, or one that outgrows it,
// moves the rows it keeps in node order to storage of their own, with room
// to go on (csrDir.relocate), as does one that would leave more dead
// entries than live ones. Attribute rows go the same way, copied by
// append. Every string table is the base's, extended by at most one layer
// holding the delta's strings. Total cost is O(k log k + E_touched + V),
// the V for the header clones, plus O(E) where the rows move.
// Refreeze always merges from the base; Delta.Overlay lays a later version
// out over the previous overlay instead, with the same writer
// (Delta.refreezeFrom) and only the rows touched since.
package graph

import "slices"

// Refreeze merges the delta into a new immutable snapshot. The receiver must
// be the delta's base; the receiver, the delta and every snapshot taken
// from it before remain valid and unchanged. Node IDs are stable: added nodes keep the IDs
// the delta assigned, removed nodes stay as tombstoned slots (see
// Frozen.Alive), so matches and external references survive the re-freeze.
func (f *Frozen) Refreeze(d *Delta) *Frozen {
	if d.base != f {
		panic("graph: Refreeze with a delta bound to a different base")
	}
	return d.refreezeFrom(f, 0)
}

// refreezeFrom builds the snapshot of the delta's current state from src,
// the delta's base (since = 0) or its overlay of version since. Adjacency
// rows change only at the nodes rowNodes names, and are merged afresh from
// the base and the delta's edit sets; attribute rows change only at the
// nodes logged since, and are rewritten from the delta. Every other row is
// src's, in src's storage. The attribute tables are relayered from src's
// over the base's, and the label tables are src's or a copy of the delta's
// layer (labelTable), so along a chain of overlays they stay two layers
// deep. The rows merged from the base are kept per version, so an Overlay
// and a Refreeze of the same version merge them once. Node IDs are src's,
// and so are the label and attribute IDs.
func (d *Delta) refreezeFrom(src *Frozen, since int) *Frozen {
	outRows, inRows := d.outRows, d.inRows
	if since > 0 || d.outRows == nil || d.rowsVersion != d.Version() {
		rows := d.rowNodes(src, since)
		outRows, inRows = d.dirRows(true, rows), d.dirRows(false, rows)
		if since == 0 {
			d.outRows, d.inRows, d.rowsVersion = outRows, inRows, d.Version()
		}
	}
	f, n2 := d.base, d.NumNodes()
	own := src.claimed.CompareAndSwap(false, true)

	nf := &Frozen{}
	d.refreezeAttrs(src, d.TouchedSince(since), own).into(nf)
	nf.nodeLabels = labelTable(src.nodeLabels, d.nodeLabels)
	nf.edgeLabels = labelTable(src.edgeLabels, d.edgeLabels)
	nf.nodeLabelOf = append(slices.Clip(src.nodeLabelOf), d.nodeLabelOf[src.NumNodes()-f.NumNodes():]...)

	nf.out, nf.edges = refreezeDir(&src.out, outRows, src.edges, n2, own)
	nf.in, _ = refreezeDir(&src.in, inRows, src.edges, n2, own)

	// Tombstones: the base's plus the delta's. deadCount is recounted from
	// the merged flags rather than summed (f.deadCount + len(d.dead) assumes
	// the two sets never overlap); the count must equal the number of set
	// flags exactly, because Compact's remap sizes arrays from it.
	if f.dead != nil || len(d.dead) > 0 {
		dead := make([]bool, n2)
		copy(dead, f.dead)
		for v := range d.dead {
			dead[v] = true
		}
		count := 0
		for _, dd := range dead {
			if dd {
				count++
			}
		}
		nf.dead = dead
		nf.deadCount = count
	}

	nf.indexLabels()
	return nf
}

// rowNodes returns, ascending, the nodes whose adjacency rows a refreeze
// from src (the delta's base, or its overlay of version since) merges
// afresh: those an edge edit or a removal since then logged, and the
// neighbours on src of every node that died since — an edge at a dead node
// leaves both rows, and the log holds the dead node alone. A node whose
// only edits since are attribute writes keeps src's rows.
func (d *Delta) rowNodes(src *Frozen, since int) []NodeID {
	rows := d.touchedSince(since, true)
	n := len(rows)
	for _, v := range rows[:n] {
		if src.Alive(v) && !d.Alive(v) {
			rows = append(rows, src.out.byLabel(v, AnyLabel)...)
			rows = append(rows, src.in.byLabel(v, AnyLabel)...)
		}
	}
	if len(rows) > n {
		slices.Sort(rows)
		rows = slices.Compact(rows)
	}
	return rows
}

// labelTable returns one label table of a snapshot of the delta, whose
// layer of that table is t: src's when it already holds every label of t
// (it is the base's, or a copy of t taken at an earlier version), else a
// sealed copy of t, which the delta goes on interning into.
func labelTable(src, t *strTable) *strTable {
	if src.size() == t.size() {
		return src
	}
	return t.relayer(t.base).seal()
}

// refreezeDir lays out one direction of a snapshot of n2 nodes over src,
// a direction holding live entries: src's row headers, cloned, with each
// row of rows (ascending by node, from Delta.dirRows) appended to src's
// storage when own says src's tail is the caller's and its capacity holds
// them, else to a relocated copy of the rows it keeps. It returns the
// direction and its live entries.
func refreezeDir(src *csrDir, rows []row, live, n2 int, own bool) (csrDir, int) {
	d, batch := *src, 0
	d.rows = append(slices.Clone(src.rows), make([]rowHdr, n2-len(src.rows))...)
	for _, r := range rows {
		batch += len(r.keys)
		live -= int(d.rows[r.v].hi - d.rows[r.v].lo)
		d.rows[r.v] = rowHdr{} // its old row is dead
	}
	switch {
	case batch == 0: // nothing is appended, so src's storage serves as it is
	case !own:
		d = d.relocate(live, batch)
	case len(d.targets)+batch > cap(d.targets):
		d = d.relocate(live, batch+live/4) // room for the chain to go on
	}
	for _, r := range rows {
		d.appendRow(r.v, r.keys)
		d.all = append(d.all, r.all...)
	}
	if live += batch; len(d.targets) > 2*live {
		d = d.relocate(live, live/4)
	}
	return d, live
}

// relocate returns d's rows copied, in node order, into storage of their
// own that holds the live entries, no dead ones, and room for more. Rows
// that lie back to back in d's storage move in one copy, their directory
// starts shifted by one constant. It rewrites d's headers, which must be
// the caller's own, in place: spans reads none it has handed out.
func (d *csrDir) relocate(live, room int) csrDir {
	c, dirs := csrDir{rows: d.rows}, len(d.dirLabels)+room
	d.spans(func(lo, hi int) {
		first, last := d.rows[lo], d.rows[hi-1]
		tShift, dShift := int32(len(c.targets))-first.lo, int32(len(c.dirLabels))-first.dirLo
		c.targets = grown(c.targets, d.targets[first.lo:last.hi], live+room)
		c.all = grown(c.all, d.all[first.lo:last.hi], live+room)
		c.dirLabels = grown(c.dirLabels, d.dirLabels[first.dirLo:last.dirHi], dirs)
		c.dirStart = grown(c.dirStart, d.dirStart[first.dirLo:last.dirHi], dirs)
		for i := len(c.dirStart) - int(last.dirHi-first.dirLo); i < len(c.dirStart); i++ {
			c.dirStart[i] += tShift
		}
		for v := lo; v < hi; v++ {
			h := d.rows[v]
			c.rows[v] = rowHdr{h.lo + tShift, h.hi + tShift, h.dirLo + dShift, h.dirHi + dShift}
		}
	})
	return c
}

// grown appends xs to s, or, while s is nil, to a new slice of capacity c
// or more. The room is made by make, not append: append zeroes it, and so
// makes it resident, where make leaves fresh memory untouched, which a
// refreeze that ends a process, as recover's does, never fills.
func grown[T any](s, xs []T, c int) []T {
	if s == nil {
		s = make([]T, 0, max(c, len(xs)))
	}
	return append(s, xs...)
}

// spans calls fn, in node order, with each maximal run of nodes [lo, hi)
// whose rows lie back to back in d's storage.
func (d *csrDir) spans(fn func(lo, hi int)) {
	for lo, v := 0, 1; v <= len(d.rows); v++ {
		if v == len(d.rows) || d.rows[v].lo != d.rows[v-1].hi || d.rows[v].dirLo != d.rows[v-1].dirHi {
			fn(lo, v)
			lo = v
		}
	}
}

// refreezeAttrs lays out the attribute rows of the delta's current state
// over src's as refreezeDir lays out a direction, rewriting the row of
// every node of touched (ascending, holding every node past src's) whose
// tuple the delta holds or whose node died. The new rows intern into src's
// tables relayered over the base's: strings neither holds get IDs past them.
func (d *Delta) refreezeAttrs(src *Frozen, touched []NodeID, own bool) *attrBuilder {
	r := &attrBuilder{
		names:  src.attrNames.relayer(d.base.attrNames),
		values: src.attrValues.relayer(d.base.attrValues),
		rows:   append(slices.Clone(src.attrRows), make([]span, d.NumNodes()-src.NumNodes())...),
		keys:   src.attrKeys,
	}
	if !own {
		r.keys = slices.Clip(r.keys)
	}
	for _, v := range touched {
		switch i := int(v) - d.baseN(); {
		case !d.Alive(v):
			r.rows[v] = span{}
		case i >= 0:
			r.appendTuple(v, d.nodes[i].Attrs)
		case d.attrs[v] != nil:
			r.appendTuple(v, d.attrs[v])
		}
	}
	live := 0
	for _, s := range r.rows {
		live += int(s.hi - s.lo)
	}
	if len(r.keys) > 2*live {
		keys := make([]uint64, 0, live)
		for v, s := range r.rows {
			r.rows[v] = span{int32(len(keys)), int32(len(keys)) + s.hi - s.lo}
			keys = append(keys, r.keys[s.lo:s.hi]...)
		}
		r.keys = keys
	}
	return r
}
