// Package part implements partition-parallel routing inside one
// circuit: a recursive bisection tree over the routing grid whose leaf
// regions route concurrently, with boundary-crossing wires reconciled at
// each tree level against the merged cost state, in an order that lets
// wires whose footprints do not overlap route at once.
//
// Everything the LocusRoute kernel reads or writes while routing one
// wire stays inside the wire's *footprint* — its pin bounding box
// expanded vertically by the VHV detour allowance (see Footprint). A
// wire classified into the deepest tree region that fully contains its
// footprint therefore touches only cells owned by that region, so
// sibling subtrees operate on provably disjoint slices of one shared
// cost array: no locks, no merge step, and a result that is a pure
// function of the tree shape and the wire order. With one partition the
// tree is a single leaf holding every wire in ID order, which makes the
// driver bit-identical to the sequential reference router.
//
// The package also provides the negotiated-congestion cost schedule
// (VPR/PathFinder style): an escalating present-congestion factor, a
// per-cell history term, and rip-up restricted to wires crossing
// overused cells. It is orthogonal to partitioning — both the
// sequential and partitioned backends can route under it.
package part

import (
	"fmt"

	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/route"
)

// Node is one region of the bisection tree. Leaves have Left == -1.
type Node struct {
	// Rect is the region of the grid this node owns. A node's children
	// partition its rect exactly.
	Rect geom.Rect
	// Left and Right are child indices into Tree.Nodes (-1 for leaves).
	Left, Right int
	// Depth is the distance from the root (root = 0).
	Depth int
}

// Leaf reports whether the node has no children.
func (n Node) Leaf() bool { return n.Left < 0 }

// Tree is a recursive bisection of a grid into leaf regions. Each split
// divides a node's rectangle along its longer dimension, proportionally
// to the number of leaves each side must hold, so any leaf count >= 1 is
// representable (not just powers of two).
type Tree struct {
	grid   geom.Grid
	nodes  []Node
	leaves []int // indices of leaf nodes, left-to-right build order
}

// NewTree bisects g into (up to) leaves regions. Rectangles that cannot
// split further (single cell) stop early, so the realised leaf count can
// be lower than requested on degenerate grids; Leaves reports the truth.
func NewTree(g geom.Grid, leaves int) (*Tree, error) {
	if !g.Valid() {
		return nil, fmt.Errorf("part: invalid grid %+v", g)
	}
	if leaves < 1 {
		return nil, fmt.Errorf("part: leaf count %d must be positive", leaves)
	}
	t := &Tree{grid: g}
	t.build(g.Bounds(), leaves, 0)
	return t, nil
}

// build appends the subtree covering rect with want leaves and returns
// its root index.
func (t *Tree) build(rect geom.Rect, want, depth int) int {
	idx := len(t.nodes)
	t.nodes = append(t.nodes, Node{Rect: rect, Left: -1, Right: -1, Depth: depth})
	if want < 2 || rect.Area() < 2 {
		t.leaves = append(t.leaves, idx)
		return idx
	}
	left, right, ok := bisect(rect, want)
	if !ok {
		t.leaves = append(t.leaves, idx)
		return idx
	}
	nl := (want + 1) / 2
	l := t.build(left, nl, depth+1)
	r := t.build(right, want-nl, depth+1)
	t.nodes[idx].Left = l
	t.nodes[idx].Right = r
	return idx
}

// bisect splits rect along its longer dimension, placing the cut so the
// two sides' areas are proportional to the leaf counts they must hold
// ((want+1)/2 vs want/2). Returns ok=false when the rect cannot split.
func bisect(rect geom.Rect, want int) (left, right geom.Rect, ok bool) {
	nl := (want + 1) / 2
	if rect.Dx() >= rect.Dy() {
		if rect.Dx() < 2 {
			return geom.Rect{}, geom.Rect{}, false
		}
		xm := rect.X0 + rect.Dx()*nl/want
		if xm <= rect.X0 {
			xm = rect.X0 + 1
		}
		if xm >= rect.X1 {
			xm = rect.X1 - 1
		}
		left = geom.Rect{X0: rect.X0, Y0: rect.Y0, X1: xm, Y1: rect.Y1}
		right = geom.Rect{X0: xm, Y0: rect.Y0, X1: rect.X1, Y1: rect.Y1}
		return left, right, true
	}
	if rect.Dy() < 2 {
		return geom.Rect{}, geom.Rect{}, false
	}
	ym := rect.Y0 + rect.Dy()*nl/want
	if ym <= rect.Y0 {
		ym = rect.Y0 + 1
	}
	if ym >= rect.Y1 {
		ym = rect.Y1 - 1
	}
	left = geom.Rect{X0: rect.X0, Y0: rect.Y0, X1: rect.X1, Y1: ym}
	right = geom.Rect{X0: rect.X0, Y0: ym, X1: rect.X1, Y1: rect.Y1}
	return left, right, true
}

// Leaves returns the number of leaf regions actually realised.
func (t *Tree) Leaves() int { return len(t.leaves) }

// Depth returns the maximum node depth.
func (t *Tree) Depth() int {
	d := 0
	for _, n := range t.nodes {
		if n.Depth > d {
			d = n.Depth
		}
	}
	return d
}

// Classify returns the index of the deepest node whose rectangle fully
// contains fp. Wires landing on a leaf are region wires; wires stopping
// at an internal node cross the cut below it and are that level's
// boundary wires. An empty fp classifies to the root.
func (t *Tree) Classify(fp geom.Rect) int {
	if fp.Empty() {
		return 0
	}
	n := 0
	for {
		node := t.nodes[n]
		if node.Leaf() {
			return n
		}
		if t.nodes[node.Left].Rect.ContainsRect(fp) {
			n = node.Left
			continue
		}
		if t.nodes[node.Right].Rect.ContainsRect(fp) {
			n = node.Right
			continue
		}
		return n
	}
}

// Footprint returns the set of cells the kernel can read or write while
// routing w under params: the pin bounding box expanded vertically by
// the VHV detour allowance, clamped to the grid. HVH candidates keep
// every cell within the pin columns; VHV candidates may detour up to
// VHVDetourChannels channels beyond the pin band (internal/route
// clamps the band to the grid exactly as this does).
func Footprint(w *circuit.Wire, params route.Params, g geom.Grid) geom.Rect {
	var bb geom.Rect
	for _, p := range w.Pins {
		bb = bb.AddPoint(p)
	}
	if bb.Empty() {
		return bb
	}
	detour := params.VHVDetourChannels
	if detour < 0 {
		detour = 0
	}
	bb.Y0 -= detour
	bb.Y1 += detour
	return bb.Intersect(g.Bounds())
}
