// Incremental re-freeze: merging a Delta into a fresh CSR snapshot without
// paying the full O(E log deg) rebuild. Only the k edits are sorted
// (Delta.dirRows); each touched node's row is merged with its edits in one
// linear pass and written through csrDir.appendRow, the row writer Freeze
// uses. Every untouched node's row — targets, wildcard view, label
// directory — is copied verbatim in bulk, with a constant per-span offset
// shift for the directory starts. Attribute rows go the same way: only the
// nodes whose attributes the delta set or dropped are rewritten, and the
// name and value tables are the base's, extended by one layer holding the
// strings the delta brought. Total cost is O(k log k + E_touched + V)
// plus the unavoidable memcpy of the clean rows, which is what makes
// refreezing a ≤1% delta into a 100k-edge snapshot ~an order of magnitude
// cheaper than Builder.Freeze from scratch (gated by the refreeze_speedup
// CI metric). Refreeze always merges from the base; Delta.Overlay lays a
// later version out over the previous overlay instead, with the same
// writer (Delta.refreezeFrom) and only the rows touched since.
package graph

import (
	"maps"
	"slices"
)

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
// src's, copied in bulk. The attribute tables are relayered from src's over
// the base's, so along a chain of overlays they stay two layers deep. The
// rows merged from the base are kept per version, so an Overlay and a
// Refreeze of the same version merge them once. Node IDs are src's, and so
// are the label and attribute IDs.
func (d *Delta) refreezeFrom(src *Frozen, since int) *Frozen {
	outRows, inRows := d.outRows, d.inRows
	if since > 0 || d.outRows == nil || d.rowsVersion != d.Version() {
		rows := d.rowNodes(src, since)
		outRows, inRows = d.dirRows(true, rows), d.dirRows(false, rows)
		if since == 0 {
			d.outRows, d.inRows, d.rowsVersion = outRows, inRows, d.Version()
		}
	}
	f := d.base
	baseN := f.NumNodes()
	n2 := d.NumNodes()

	nf := &Frozen{}
	d.refreezeAttrs(src, d.TouchedSince(since)).into(nf)
	nf.labelIDs, nf.labelNames = extendLabels(src.labelNames, f.labelNames, d.labelNames,
		src.labelIDs, f.labelIDs, d.labelIDs)
	nf.nodeLabelIDs, nf.nodeLabelNames = extendLabels(src.nodeLabelNames, f.nodeLabelNames, d.nodeLabelNames,
		src.nodeLabelIDs, f.nodeLabelIDs, d.nodeLabelIDs)
	nf.nodeLabelOf = make([]LabelID, n2)
	copy(nf.nodeLabelOf, f.nodeLabelOf)
	copy(nf.nodeLabelOf[baseN:], d.nodeLabelOf)

	nf.out = refreezeDir(&src.out, outRows, src.NumNodes(), n2)
	nf.in = refreezeDir(&src.in, inRows, src.NumNodes(), n2)
	nf.edges = len(nf.out.targets)

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
			rows = append(rows, src.out.all[src.out.off[v]:src.out.off[v+1]]...)
			rows = append(rows, src.in.all[src.in.off[v]:src.in.off[v+1]]...)
		}
	}
	if len(rows) > n {
		slices.Sort(rows)
		rows = slices.Compact(rows)
	}
	return rows
}

// extendLabels returns one label table of a snapshot of the delta: src's
// when it already holds every label the delta brought (Frozen tables are
// never mutated after construction), else the base's extended by the
// delta's.
func extendLabels(src, base, added []string, srcIDs, baseIDs, addedIDs map[string]LabelID) (map[string]LabelID, []string) {
	if len(src) == len(base)+len(added) {
		return srcIDs, src
	}
	ids := make(map[string]LabelID, len(baseIDs)+len(addedIDs))
	maps.Copy(ids, baseIDs)
	maps.Copy(ids, addedIDs)
	return ids, append(slices.Clip(base), added...)
}

// refreezeDir lays out one direction of the new snapshot over src, that
// direction of a snapshot of srcN nodes (the delta's base or an earlier
// overlay). Clean spans of src between the rewritten nodes are copied
// verbatim; the rewritten rows (ascending by node, from Delta.dirRows) go
// through appendRow.
func refreezeDir(src *csrDir, rows []row, srcN, n2 int) csrDir {
	totalT := len(src.targets)
	totalD := len(src.dirLabels)
	for _, r := range rows {
		totalT += len(r.keys)
		for i, k := range r.keys {
			if i == 0 || k>>32 != r.keys[i-1]>>32 {
				totalD++
			}
		}
		if int(r.v) < srcN {
			totalT -= int(src.off[r.v+1] - src.off[r.v])
			totalD -= int(src.dirOff[r.v+1] - src.dirOff[r.v])
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
	// clean copies the untouched nodes [lo, hi): src's rows verbatim (bulk
	// copies plus a constant shift), added-but-untouched nodes as empty rows.
	clean := func(lo, hi int) {
		bhi := hi
		if bhi > srcN {
			bhi = srcN
		}
		if lo < bhi {
			tShift := int32(len(d.targets)) - src.off[lo]
			dShift := int32(len(d.dirLabels)) - src.dirOff[lo]
			d.targets = append(d.targets, src.targets[src.off[lo]:src.off[bhi]]...)
			d.all = append(d.all, src.all[src.off[lo]:src.off[bhi]]...)
			d.dirLabels = append(d.dirLabels, src.dirLabels[src.dirOff[lo]:src.dirOff[bhi]]...)
			for _, s := range src.dirStart[src.dirOff[lo]:src.dirOff[bhi]] {
				d.dirStart = append(d.dirStart, s+tShift)
			}
			for v := lo; v < bhi; v++ {
				d.off[v+1] = src.off[v+1] + tShift
				d.dirOff[v+1] = src.dirOff[v+1] + dShift
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

// refreezeAttrs lays out the attribute rows of the delta's current state:
// src's rows in bulk spans, and a row rewritten from the delta for every
// node of touched (ascending, holding every node past src's). The new rows
// intern into src's tables relayered over the base's: strings neither holds
// get IDs past them.
func (d *Delta) refreezeAttrs(src *Frozen, touched []NodeID) *attrBuilder {
	srcN := src.NumNodes()
	r := newAttrBuilder(d.NumNodes(), src.attrNames.relayer(d.base.attrNames), src.attrValues.relayer(d.base.attrValues))
	r.rows = make([]uint64, 0, len(src.attrKeys))
	cursor := 0
	for _, v := range touched {
		r.copyRows(src, min(cursor, srcN), min(int(v), srcN))
		switch i := int(v) - d.baseN(); {
		case !d.Alive(v):
			r.endRow()
		case i >= 0:
			r.appendTuple(d.nodes[i].Attrs)
		case d.attrs[v] != nil:
			r.appendTuple(d.attrs[v])
		default:
			r.copyRows(d.base, int(v), int(v)+1)
		}
		cursor = int(v) + 1
	}
	r.copyRows(src, min(cursor, srcN), srcN)
	return r
}
