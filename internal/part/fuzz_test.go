package part

import (
	"testing"

	"locusroute/internal/geom"
)

// FuzzClassify drives random grids, leaf counts, and footprint boxes
// through the tree and checks the classifier's contract:
//
//   - the leaves tile the grid exactly (every cell in exactly one region),
//   - Classify returns the deepest node containing the footprint,
//   - a footprint classified onto an internal node straddles that node's
//     cut — it overlaps both children (symmetric boundary detection).
func FuzzClassify(f *testing.F) {
	f.Add(uint8(10), uint8(100), uint8(4), int16(3), int16(2), int16(40), int16(8))
	f.Add(uint8(1), uint8(1), uint8(8), int16(0), int16(0), int16(0), int16(0))
	f.Add(uint8(16), uint8(16), uint8(7), int16(-5), int16(-5), int16(40), int16(40))
	f.Add(uint8(12), uint8(200), uint8(32), int16(100), int16(0), int16(100), int16(11))
	f.Fuzz(func(t *testing.T, channels, grids, leaves uint8, x0, y0, x1, y1 int16) {
		g := geom.Grid{Channels: int(channels%64) + 1, Grids: int(grids%128) + 1}
		want := int(leaves%32) + 1
		tr, err := NewTree(g, want)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Leaves() < 1 || tr.Leaves() > want {
			t.Fatalf("realised %d leaves for request %d", tr.Leaves(), want)
		}

		// Leaf tiling: every grid cell is in exactly one leaf region.
		nodes := tr.nodes
		area := 0
		for i, li := range tr.leaves {
			r := nodes[li].Rect
			if !g.Bounds().ContainsRect(r) {
				t.Fatalf("leaf %d rect %v escapes grid %v", li, r, g.Bounds())
			}
			area += r.Area()
			for _, lj := range tr.leaves[:i] {
				if r.Overlaps(nodes[lj].Rect) {
					t.Fatalf("leaves %d and %d overlap", li, lj)
				}
			}
		}
		if area != g.Cells() {
			t.Fatalf("leaves cover %d cells of %d", area, g.Cells())
		}

		// Classify an arbitrary box clipped to the grid, the way
		// Footprint produces them.
		fp := geom.Rect{X0: int(x0), Y0: int(y0), X1: int(x1), Y1: int(y1)}
		if fp.X0 > fp.X1 {
			fp.X0, fp.X1 = fp.X1, fp.X0
		}
		if fp.Y0 > fp.Y1 {
			fp.Y0, fp.Y1 = fp.Y1, fp.Y0
		}
		fp = fp.Intersect(g.Bounds())
		n := tr.Classify(fp)
		if n < 0 || n >= len(nodes) {
			t.Fatalf("classified to node %d of %d", n, len(nodes))
		}
		if fp.Empty() {
			if n != 0 {
				t.Fatalf("empty footprint classified to %d, want root", n)
			}
			return
		}
		node := nodes[n]
		if !node.Rect.ContainsRect(fp) {
			t.Fatalf("node %d rect %v does not contain footprint %v", n, node.Rect, fp)
		}
		if !node.Leaf() {
			l, r := nodes[node.Left], nodes[node.Right]
			if l.Rect.ContainsRect(fp) || r.Rect.ContainsRect(fp) {
				t.Fatalf("node %d is not deepest: a child also contains %v", n, fp)
			}
			// Straddling is symmetric: not contained by either child of a
			// binary partition means overlapping both.
			if !fp.Overlaps(l.Rect) || !fp.Overlaps(r.Rect) {
				t.Fatalf("boundary footprint %v does not overlap both children %v / %v",
					fp, l.Rect, r.Rect)
			}
		}

		// Classification is a function: same footprint, same node.
		if again := tr.Classify(fp); again != n {
			t.Fatalf("Classify not deterministic: %d then %d", n, again)
		}
	})
}
