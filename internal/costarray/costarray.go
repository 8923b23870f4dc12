// Package costarray implements LocusRoute's central data structure: the
// cost array, which records the number of wires running through each
// routing grid cell of the circuit, and the delta array, which records
// changes made to the cost array since the last interprocessor update
// (Section 4.1 of the paper).
//
// The vertical dimension of the array is the number of routing channels;
// the horizontal dimension is the number of routing grids.
package costarray

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"locusroute/internal/geom"
)

// CostArray holds one wire-count per routing grid cell, stored row-major
// (channel-major). Entries are non-negative in a consistent array, but a
// processor's *view* in the message passing version may transiently hold
// any value.
type CostArray struct {
	grid  geom.Grid
	cells []int32
}

// New returns a zeroed cost array for the given grid. It panics if the
// grid is invalid, since a cost array without dimensions is a programming
// error rather than a runtime condition.
func New(g geom.Grid) *CostArray {
	if !g.Valid() {
		panic(fmt.Sprintf("costarray: invalid grid %+v", g))
	}
	return &CostArray{grid: g, cells: make([]int32, g.Cells())}
}

// Grid returns the array dimensions.
func (a *CostArray) Grid() geom.Grid { return a.grid }

// Index returns the flat row-major index of (x, y). It is exported so the
// shared memory tracer can map cells to byte addresses consistently.
func (a *CostArray) Index(x, y int) int { return y*a.grid.Grids + x }

// At returns the cost at (x, y).
func (a *CostArray) At(x, y int) int32 { return a.cells[a.Index(x, y)] }

// Set stores v at (x, y).
func (a *CostArray) Set(x, y int, v int32) { a.cells[a.Index(x, y)] = v }

// Add adds d to the cell at (x, y) and returns the new value.
func (a *CostArray) Add(x, y int, d int32) int32 {
	i := a.Index(x, y)
	a.cells[i] += d
	return a.cells[i]
}

// Clone returns a deep copy of the array.
func (a *CostArray) Clone() *CostArray {
	out := New(a.grid)
	copy(out.cells, a.cells)
	return out
}

// Reset zeroes every cell.
func (a *CostArray) Reset() {
	for i := range a.cells {
		a.cells[i] = 0
	}
}

// Row returns the slice of cells for channel y. The slice aliases the
// array's storage.
func (a *CostArray) Row(y int) []int32 {
	return a.cells[y*a.grid.Grids : (y+1)*a.grid.Grids]
}

// Cells returns the backing row-major cell slice. It aliases the array's
// storage and is intended for read-mostly consumers (metrics, encoders).
func (a *CostArray) Cells() []int32 { return a.cells }

// SumRect returns the sum of all cells inside r (clipped to the grid).
// This is the cost of covering the rectangle and the inner loop of route
// evaluation.
func (a *CostArray) SumRect(r geom.Rect) int64 {
	r = r.Intersect(a.grid.Bounds())
	var s int64
	for y := r.Y0; y < r.Y1; y++ {
		row := a.Row(y)
		for x := r.X0; x < r.X1; x++ {
			s += int64(row[x])
		}
	}
	return s
}

// CopyRect copies the cells of src inside r (clipped to both grids) into a,
// replacing a's values. Used to apply SendLocData-style absolute updates.
func (a *CostArray) CopyRect(src *CostArray, r geom.Rect) {
	r = r.Intersect(a.grid.Bounds()).Intersect(src.grid.Bounds())
	for y := r.Y0; y < r.Y1; y++ {
		copy(a.Row(y)[r.X0:r.X1], src.Row(y)[r.X0:r.X1])
	}
}

// AddRect adds the cells of src inside r (clipped) to a's values. Used to
// apply SendRmtData-style relative (delta) updates.
func (a *CostArray) AddRect(src *CostArray, r geom.Rect) {
	r = r.Intersect(a.grid.Bounds()).Intersect(src.grid.Bounds())
	for y := r.Y0; y < r.Y1; y++ {
		dst := a.Row(y)
		s := src.Row(y)
		for x := r.X0; x < r.X1; x++ {
			dst[x] += s[x]
		}
	}
}

// ZeroRect zeroes the cells inside r (clipped).
func (a *CostArray) ZeroRect(r geom.Rect) {
	r = r.Intersect(a.grid.Bounds())
	for y := r.Y0; y < r.Y1; y++ {
		row := a.Row(y)
		for x := r.X0; x < r.X1; x++ {
			row[x] = 0
		}
	}
}

// ChangedBounds returns the bounding box of all non-zero cells within r
// (clipped to the grid), or an empty rect if r holds only zeros. This is
// the scan the sending processor performs over the delta array to build
// the paper's bounding-box update packets (Section 4.3.1); the returned
// cellsScanned counts the work done, for the compute-time model.
func (a *CostArray) ChangedBounds(r geom.Rect) (bb geom.Rect, cellsScanned int) {
	r = r.Intersect(a.grid.Bounds())
	for y := r.Y0; y < r.Y1; y++ {
		row := a.Row(y)
		for x := r.X0; x < r.X1; x++ {
			cellsScanned++
			if row[x] != 0 {
				bb = bb.AddPoint(geom.Pt(x, y))
			}
		}
	}
	return bb, cellsScanned
}

// ExtractRect returns the cells inside r (clipped), row-major, along with
// the clipped rectangle. The result is a fresh slice safe to hand to a
// packet encoder.
func (a *CostArray) ExtractRect(r geom.Rect) (geom.Rect, []int32) {
	r = r.Intersect(a.grid.Bounds())
	if r.Empty() {
		return geom.Rect{}, nil
	}
	out := make([]int32, 0, r.Area())
	for y := r.Y0; y < r.Y1; y++ {
		out = append(out, a.Row(y)[r.X0:r.X1]...)
	}
	return r, out
}

// ApplyAbsolute replaces the cells inside r with vals (row-major, length
// r.Area()). It returns an error on a size mismatch or if r is not inside
// the grid.
func (a *CostArray) ApplyAbsolute(r geom.Rect, vals []int32) error {
	if err := a.checkPayload(r, vals); err != nil {
		return err
	}
	i := 0
	for y := r.Y0; y < r.Y1; y++ {
		copy(a.Row(y)[r.X0:r.X1], vals[i:i+r.Dx()])
		i += r.Dx()
	}
	return nil
}

// ApplyDelta adds vals (row-major, length r.Area()) to the cells inside r.
func (a *CostArray) ApplyDelta(r geom.Rect, vals []int32) error {
	if err := a.checkPayload(r, vals); err != nil {
		return err
	}
	i := 0
	for y := r.Y0; y < r.Y1; y++ {
		row := a.Row(y)
		for x := r.X0; x < r.X1; x++ {
			row[x] += vals[i]
			i++
		}
	}
	return nil
}

func (a *CostArray) checkPayload(r geom.Rect, vals []int32) error {
	if !a.grid.Bounds().ContainsRect(r) {
		return fmt.Errorf("costarray: rect %v outside grid %+v", r, a.grid)
	}
	if len(vals) != r.Area() {
		return fmt.Errorf("costarray: payload %d cells for rect %v (want %d)",
			len(vals), r, r.Area())
	}
	return nil
}

// Equal reports whether a and b have identical dimensions and contents.
func (a *CostArray) Equal(b *CostArray) bool {
	if a.grid != b.grid {
		return false
	}
	for i, v := range a.cells {
		if b.cells[i] != v {
			return false
		}
	}
	return true
}

// Hash fingerprints the cells: the hex sha256 over them as little-endian
// int32s. Equal hashes mean byte-identical arrays.
func (a *CostArray) Hash() string {
	h := sha256.New()
	var b [4]byte
	for _, c := range a.cells {
		binary.LittleEndian.PutUint32(b[:], uint32(c))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// NonZeroCells returns the number of cells with non-zero value.
func (a *CostArray) NonZeroCells() int {
	n := 0
	for _, v := range a.cells {
		if v != 0 {
			n++
		}
	}
	return n
}

// MaxInRow returns the maximum cell value in channel y. Circuit height is
// the sum of this over all channels (Section 3 of the paper).
func (a *CostArray) MaxInRow(y int) int32 {
	var m int32
	for _, v := range a.Row(y) {
		if v > m {
			m = v
		}
	}
	return m
}

// CircuitHeight returns the total number of routing tracks required: the
// sum over channels of the maximum number of wires through any grid of
// the channel. Lower is better; it is proportional to circuit area.
func (a *CostArray) CircuitHeight() int64 {
	var h int64
	for y := 0; y < a.grid.Channels; y++ {
		h += int64(a.MaxInRow(y))
	}
	return h
}
