// Incremental re-freeze: merging a Delta into a fresh CSR snapshot without
// paying the full O(E log deg) rebuild. Only the k edits are sorted
// (Delta.dirRows); each touched node's row is merged with its edits in one
// linear pass and written through csrDir.appendRow, the row writer Freeze
// uses. Every untouched node's row — targets, wildcard view, label
// directory — is copied verbatim in bulk, with a constant per-span offset
// shift for the directory starts. Attribute rows go the same way: only the
// nodes whose attributes the delta set or dropped are rewritten, and the
// name and value tables are the base's, extended by the strings the delta
// brought and nothing else. Total cost is O(k log k + E_touched + V)
// plus the unavoidable memcpy of the clean rows, which is what makes
// refreezing a ≤1% delta into a 100k-edge snapshot ~an order of magnitude
// cheaper than Builder.Freeze from scratch (gated by the refreeze_speedup
// CI metric).
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
	if d.outRows == nil || d.rowsVersion != d.Version() {
		d.outRows, d.inRows, d.rowsVersion = d.dirRows(true), d.dirRows(false), d.Version()
	}
	baseN := f.NumNodes()
	n2 := baseN + len(d.nodes)

	nf := &Frozen{epoch: nextEpoch()}
	f.refreezeAttrs(d, n2).into(nf)

	// Label tables: shared with the base when the delta introduced no new
	// labels (Frozen tables are never mutated after construction), extended
	// copies otherwise.
	if len(d.labelNames) == 0 {
		nf.labelIDs, nf.labelNames = f.labelIDs, f.labelNames
	} else {
		nf.labelIDs = make(map[string]LabelID, len(f.labelIDs)+len(d.labelIDs))
		for k, id := range f.labelIDs {
			nf.labelIDs[k] = id
		}
		for k, id := range d.labelIDs {
			nf.labelIDs[k] = id
		}
		nf.labelNames = append(append([]string(nil), f.labelNames...), d.labelNames...)
	}
	if len(d.nodeLabelNames) == 0 {
		nf.nodeLabelIDs, nf.nodeLabelNames = f.nodeLabelIDs, f.nodeLabelNames
	} else {
		nf.nodeLabelIDs = make(map[string]LabelID, len(f.nodeLabelIDs)+len(d.nodeLabelIDs))
		for k, id := range f.nodeLabelIDs {
			nf.nodeLabelIDs[k] = id
		}
		for k, id := range d.nodeLabelIDs {
			nf.nodeLabelIDs[k] = id
		}
		nf.nodeLabelNames = append(append([]string(nil), f.nodeLabelNames...), d.nodeLabelNames...)
	}
	nf.nodeLabelOf = make([]LabelID, n2)
	copy(nf.nodeLabelOf, f.nodeLabelOf)
	copy(nf.nodeLabelOf[baseN:], d.nodeLabelOf)

	nf.out = refreezeDir(&f.out, d.outRows, baseN, n2)
	nf.in = refreezeDir(&f.in, d.inRows, baseN, n2)
	nf.edges = len(nf.out.targets)

	// Tombstones: the base's plus the delta's. deadCount is recounted from
	// the merged flags rather than summed (f.deadCount + len(d.dead) assumes
	// the two sets never overlap); the count must equal the number of set
	// flags exactly, because the nodes-by-label fill below and Compact's
	// remap both size arrays from it — an overcount leaves phantom zero
	// entries in label runs, an undercount panics the fill.
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

	// Nodes-by-label CSR over live nodes: one O(V) counting pass.
	nl := len(nf.nodeLabelNames)
	nf.byLabelOff = make([]int32, nl+1)
	live := func(v int) bool { return nf.dead == nil || !nf.dead[v] }
	for v, lid := range nf.nodeLabelOf {
		if live(v) {
			nf.byLabelOff[lid+1]++
		}
	}
	for i := 0; i < nl; i++ {
		nf.byLabelOff[i+1] += nf.byLabelOff[i]
	}
	nf.byLabelNodes = make([]NodeID, n2-nf.deadCount)
	next := make([]int32, nl)
	copy(next, nf.byLabelOff[:nl])
	for v, lid := range nf.nodeLabelOf {
		if live(v) {
			nf.byLabelNodes[next[lid]] = NodeID(v)
			next[lid]++
		}
	}
	return nf
}

// refreezeDir merges one direction's delta rows into a new csrDir. Clean
// base spans between touched nodes are copied verbatim; the touched rows
// (ascending by node, from Delta.dirRows) go through appendRow.
func refreezeDir(base *csrDir, rows []row, baseN, n2 int) csrDir {
	totalT := len(base.targets)
	totalD := len(base.dirLabels)
	for _, r := range rows {
		totalT += len(r.keys)
		for i, k := range r.keys {
			if i == 0 || k>>32 != r.keys[i-1]>>32 {
				totalD++
			}
		}
		if int(r.v) < baseN {
			totalT -= int(base.off[r.v+1] - base.off[r.v])
			totalD -= int(base.dirOff[r.v+1] - base.dirOff[r.v])
		}
	}
	d := csrDir{
		off:       make([]int32, n2+1),
		dirOff:    make([]int32, n2+1),
		targets:   make([]NodeID, 0, totalT),
		all:       make([]NodeID, 0, totalT),
		dirLabels: make([]LabelID, 0, totalD),
		dirStart:  make([]int32, 0, totalD),
	}
	// clean copies the untouched nodes [lo, hi): base rows verbatim (bulk
	// copies plus a constant shift), added-but-untouched nodes as empty rows.
	clean := func(lo, hi int) {
		bhi := hi
		if bhi > baseN {
			bhi = baseN
		}
		if lo < bhi {
			tShift := int32(len(d.targets)) - base.off[lo]
			dShift := int32(len(d.dirLabels)) - base.dirOff[lo]
			d.targets = append(d.targets, base.targets[base.off[lo]:base.off[bhi]]...)
			d.all = append(d.all, base.all[base.off[lo]:base.off[bhi]]...)
			d.dirLabels = append(d.dirLabels, base.dirLabels[base.dirOff[lo]:base.dirOff[bhi]]...)
			for _, s := range base.dirStart[base.dirOff[lo]:base.dirOff[bhi]] {
				d.dirStart = append(d.dirStart, s+tShift)
			}
			for v := lo; v < bhi; v++ {
				d.off[v+1] = base.off[v+1] + tShift
				d.dirOff[v+1] = base.dirOff[v+1] + dShift
			}
			lo = bhi
		}
		for v := lo; v < hi; v++ {
			d.off[v+1] = int32(len(d.targets))
			d.dirOff[v+1] = int32(len(d.dirLabels))
		}
	}
	cursor := 0
	for _, r := range rows {
		clean(cursor, int(r.v))
		d.appendRow(r.v, r.keys)
		d.all = append(d.all, r.all...)
		cursor = int(r.v) + 1
	}
	clean(cursor, n2)
	return d
}

// refreezeAttrs lays out the merged snapshot's attribute rows: the base's
// rows in bulk spans, a rewritten row for every base node the delta set an
// attribute of or removed, and a row for every added node. Strings the base
// tables lack get IDs past them.
func (f *Frozen) refreezeAttrs(d *Delta, n2 int) *attrBuilder {
	baseN := f.NumNodes()
	// d.attrs and d.dead are disjoint: RemoveNode drops a node's attribute
	// override, and SetAttr refuses a dead node.
	touched := make([]NodeID, 0, len(d.attrs)+len(d.dead))
	for v := range d.attrs {
		touched = append(touched, v)
	}
	for v := range d.dead {
		if int(v) < baseN {
			touched = append(touched, v)
		}
	}
	slices.Sort(touched)

	r := newAttrBuilder(n2, f.attrNames, f.attrValues)
	r.rows = make([]uint64, 0, len(f.attrRows))
	cursor := 0
	for _, v := range touched {
		r.copyRows(f, cursor, int(v))
		r.appendTuple(d.attrs[v]) // nil for a dead node: an empty row
		cursor = int(v) + 1
	}
	r.copyRows(f, cursor, baseN)
	for i := range d.nodes {
		r.appendTuple(d.nodes[i].Attrs)
	}
	return r
}
