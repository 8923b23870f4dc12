package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointManhattan(t *testing.T) {
	cases := []struct {
		p, q Point
		want int
	}{
		{Pt(0, 0), Pt(0, 0), 0},
		{Pt(0, 0), Pt(3, 4), 7},
		{Pt(3, 4), Pt(0, 0), 7},
		{Pt(-2, 5), Pt(2, -5), 14},
	}
	for _, c := range cases {
		if got := c.p.Manhattan(c.q); got != c.want {
			t.Errorf("Manhattan(%v,%v) = %d, want %d", c.p, c.q, got, c.want)
		}
	}
}

func TestRConstructsNormalized(t *testing.T) {
	r := R(5, 7, 2, 3)
	want := Rect{X0: 2, Y0: 3, X1: 6, Y1: 8}
	if r != want {
		t.Fatalf("R(5,7,2,3) = %v, want %v", r, want)
	}
	if !Pt(5, 7).In(r) || !Pt(2, 3).In(r) {
		t.Errorf("corners must be inside rect built by R")
	}
}

func TestRectEmptyAndArea(t *testing.T) {
	var zero Rect
	if !zero.Empty() {
		t.Errorf("zero Rect must be empty")
	}
	if zero.Area() != 0 || zero.Dx() != 0 || zero.Dy() != 0 {
		t.Errorf("empty rect must have zero measures, got area=%d", zero.Area())
	}
	r := R(1, 1, 3, 4)
	if r.Area() != 12 {
		t.Errorf("Area = %d, want 12", r.Area())
	}
}

func TestRectIntersect(t *testing.T) {
	a := R(0, 0, 9, 9)
	b := R(5, 5, 15, 15)
	got := a.Intersect(b)
	want := R(5, 5, 9, 9)
	if got != want {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Errorf("Overlaps must be symmetric and true here")
	}
	c := R(20, 20, 25, 25)
	if !a.Intersect(c).Empty() {
		t.Errorf("disjoint rects must intersect to empty")
	}
	if a.Overlaps(c) {
		t.Errorf("disjoint rects must not overlap")
	}
}

func TestRectUnionIdentity(t *testing.T) {
	var zero Rect
	r := R(2, 3, 4, 5)
	if got := zero.Union(r); got != r {
		t.Errorf("empty.Union(r) = %v, want %v", got, r)
	}
	if got := r.Union(zero); got != r {
		t.Errorf("r.Union(empty) = %v, want %v", got, r)
	}
}

func TestRectAddPoint(t *testing.T) {
	var r Rect
	r = r.AddPoint(Pt(3, 4))
	if r.Area() != 1 || !Pt(3, 4).In(r) {
		t.Fatalf("AddPoint to empty should give unit rect at point, got %v", r)
	}
	r = r.AddPoint(Pt(1, 1))
	if !Pt(1, 1).In(r) || !Pt(3, 4).In(r) || !Pt(2, 2).In(r) {
		t.Errorf("AddPoint must expand to cover both points, got %v", r)
	}
}

func TestRectContainsRect(t *testing.T) {
	outer := R(0, 0, 10, 10)
	if !outer.ContainsRect(R(2, 2, 5, 5)) {
		t.Errorf("inner rect should be contained")
	}
	if outer.ContainsRect(R(5, 5, 12, 12)) {
		t.Errorf("overflowing rect should not be contained")
	}
	if !outer.ContainsRect(Rect{}) {
		t.Errorf("empty rect is contained in everything")
	}
}

func TestGridBasics(t *testing.T) {
	g := Grid{Channels: 10, Grids: 341}
	if !g.Valid() {
		t.Fatalf("grid should be valid")
	}
	if g.Cells() != 3410 {
		t.Errorf("Cells = %d, want 3410", g.Cells())
	}
	b := g.Bounds()
	if b.Dx() != 341 || b.Dy() != 10 {
		t.Errorf("Bounds = %v", b)
	}
	if got := g.Clamp(Pt(-5, 100)); got != Pt(0, 9) {
		t.Errorf("Clamp = %v, want (0,9)", got)
	}
	if got := g.Clamp(Pt(400, -1)); got != Pt(340, 0) {
		t.Errorf("Clamp = %v, want (340,0)", got)
	}
}

// Property: Intersect result is contained in both operands and Union
// contains both operands.
func TestRectIntersectUnionProperties(t *testing.T) {
	f := func(x0, y0, w0, h0, x1, y1, w1, h1 uint8) bool {
		a := R(int(x0), int(y0), int(x0)+int(w0%40), int(y0)+int(h0%40))
		b := R(int(x1), int(y1), int(x1)+int(w1%40), int(y1)+int(h1%40))
		i := a.Intersect(b)
		u := a.Union(b)
		return a.ContainsRect(i) && b.ContainsRect(i) &&
			u.ContainsRect(a) && u.ContainsRect(b) &&
			i == b.Intersect(a) && u == b.Union(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a point is in Intersect(a,b) iff it is in both a and b.
func TestRectIntersectPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		a := R(rng.Intn(20), rng.Intn(20), rng.Intn(20), rng.Intn(20))
		b := R(rng.Intn(20), rng.Intn(20), rng.Intn(20), rng.Intn(20))
		i := a.Intersect(b)
		for x := 0; x < 22; x++ {
			for y := 0; y < 22; y++ {
				p := Pt(x, y)
				if p.In(i) != (p.In(a) && p.In(b)) {
					t.Fatalf("pointwise intersect mismatch at %v: a=%v b=%v i=%v", p, a, b, i)
				}
			}
		}
	}
}

func TestSquarestFactors(t *testing.T) {
	cases := []struct{ n, px, py int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {6, 3, 2}, {9, 3, 3},
		{12, 4, 3}, {16, 4, 4}, {7, 7, 1},
	}
	for _, c := range cases {
		px, py := SquarestFactors(c.n)
		if px != c.px || py != c.py {
			t.Errorf("SquarestFactors(%d) = (%d,%d), want (%d,%d)", c.n, px, py, c.px, c.py)
		}
		if px*py != c.n {
			t.Errorf("SquarestFactors(%d) does not multiply back", c.n)
		}
	}
}

// A grid is valid only while every row-major cell index fits an int32,
// the width of a routed path's cells. Valid checks the dimensions
// without multiplying them, so no grid is allocated here.
func TestGridValidBoundsCells(t *testing.T) {
	for _, c := range []struct {
		g    Grid
		want bool
	}{
		{Grid{Channels: 1, Grids: 1}, true},
		{Grid{Channels: 0, Grids: 5}, false},
		{Grid{Channels: 5, Grids: -1}, false},
		{Grid{Channels: 65536, Grids: 65536}, false},
		{Grid{Channels: 65535, Grids: 65535}, false},
		{Grid{Channels: 1, Grids: math.MaxInt32}, true},
		{Grid{Channels: math.MaxInt32, Grids: 1}, true},
		{Grid{Channels: 2, Grids: math.MaxInt32/2 + 1}, false},
		{Grid{Channels: 32768, Grids: 65535}, true},
		{Grid{Channels: 32769, Grids: 65535}, false},
	} {
		if got := c.g.Valid(); got != c.want {
			t.Errorf("%+v.Valid() = %v, want %v", c.g, got, c.want)
		}
	}
}

// Point inverts the row-major index y*Grids + x.
func TestGridPointInvertsIndex(t *testing.T) {
	g := Grid{Channels: 7, Grids: 13}
	for y := 0; y < g.Channels; y++ {
		for x := 0; x < g.Grids; x++ {
			if got := g.Point(y*g.Grids + x); got != Pt(x, y) {
				t.Fatalf("Point(%d) = %v, want %v", y*g.Grids+x, got, Pt(x, y))
			}
		}
	}
}
