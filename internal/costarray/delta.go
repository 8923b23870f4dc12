package costarray

import "locusroute/internal/geom"

// Delta tracks changes made to a processor's view of the cost array since
// the last update was sent for each owned region. In the paper's message
// passing implementation every processor keeps a delta array with the same
// dimensions as the cost array (Section 4.1); increments from routing and
// decrements from rip-up accumulate here, and often cancel — the effect
// that makes message passing traffic so much smaller than shared memory
// traffic (Section 5.2).
//
// Delta wraps a CostArray and additionally maintains a per-region dirty
// bound so senders do not need to rescan the whole array to discover that
// nothing changed.
type Delta struct {
	arr    *CostArray
	part   geom.Partition
	owners geom.OwnerTable
	dirty  []geom.Rect // per owning processor: bbox of cells touched since last clear
}

// NewDelta returns an empty delta array for the partitioned grid.
func NewDelta(part geom.Partition) *Delta {
	return &Delta{
		arr:    New(part.Grid),
		part:   part,
		owners: part.OwnerTable(),
		dirty:  make([]geom.Rect, part.Procs()),
	}
}

// Add accumulates a change of v at the in-grid cell (x, y).
func (d *Delta) Add(x, y int, v int32) {
	d.arr.Add(x, y, v)
	owner := d.owners.Owner(x, y)
	d.dirty[owner] = d.dirty[owner].AddPoint(geom.Pt(x, y))
}

// At returns the accumulated change at (x, y).
func (d *Delta) At(x, y int) int32 { return d.arr.At(x, y) }

// Array exposes the underlying cost-array storage of the deltas.
func (d *Delta) Array() *CostArray { return d.arr }

// Partition returns the owned-region partition the delta tracks.
func (d *Delta) Partition() geom.Partition { return d.part }

// HasChanges reports whether any cell in proc's owned region may have a
// non-zero delta.
func (d *Delta) HasChanges(proc int) bool { return !d.dirty[proc].Empty() }

// TakeRegion scans proc's owned region for non-zero deltas, returning the
// exact bounding box of changes and the row-major delta payload, then
// clears those deltas and the dirty bound. If every accumulated change
// cancelled out, the returned rect is empty, no payload is produced, and
// (per Section 4.3.2) no update needs to be sent. cellsScanned reports the
// scan work for the compute-time model.
func (d *Delta) TakeRegion(proc int) (bb geom.Rect, vals []int32, cellsScanned int) {
	bound := d.dirty[proc]
	if bound.Empty() {
		return geom.Rect{}, nil, 0
	}
	bb, cellsScanned = d.arr.ChangedBounds(bound)
	d.dirty[proc] = geom.Rect{}
	if bb.Empty() {
		return geom.Rect{}, nil, cellsScanned
	}
	bb, vals = d.arr.ExtractRect(bb)
	d.arr.ZeroRect(bb)
	return bb, vals, cellsScanned
}

// TakeWholeRegion extracts proc's entire owned region as a delta payload
// (zeros included) and clears it — the paper's second packet structure
// (Section 4.3.1), which is simple to assemble but wastes bytes. The
// returned rect is the full region even if only one cell changed; if
// nothing changed at all it returns an empty rect.
func (d *Delta) TakeWholeRegion(proc int) (bb geom.Rect, vals []int32, cellsScanned int) {
	if d.dirty[proc].Empty() {
		return geom.Rect{}, nil, 0
	}
	region := d.part.Region(proc)
	bb, vals = d.arr.ExtractRect(region)
	d.arr.ZeroRect(bb)
	d.dirty[proc] = geom.Rect{}
	return bb, vals, bb.Area()
}

// PeekRegion is TakeRegion without clearing: it scans and extracts but
// leaves the deltas in place. Used by blocking strategies that may abort.
func (d *Delta) PeekRegion(proc int) (bb geom.Rect, vals []int32, cellsScanned int) {
	bound := d.dirty[proc]
	if bound.Empty() {
		return geom.Rect{}, nil, 0
	}
	bb, cellsScanned = d.arr.ChangedBounds(bound)
	if bb.Empty() {
		return geom.Rect{}, nil, cellsScanned
	}
	bb, vals = d.arr.ExtractRect(bb)
	return bb, vals, cellsScanned
}

// Reset clears all deltas and dirty bounds.
func (d *Delta) Reset() {
	d.arr.Reset()
	for i := range d.dirty {
		d.dirty[i] = geom.Rect{}
	}
}
