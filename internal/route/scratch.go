package route

import (
	"slices"
	"sync"

	"locusroute/internal/circuit"
	"locusroute/internal/costarray"
	"locusroute/internal/geom"
)

// Scratch is the reusable per-worker state of the routing kernel. One
// Scratch belongs to exactly one thread of control — a sequential run,
// one shared memory logical process, one message passing
// processor, or one served batch — between GetScratch and PutScratch (or
// for the whole run), so the kernel can evaluate and materialise routes
// without per-wire allocation:
//
//   - visited is an epoch-stamped grid that replaces the per-wire
//     map[Point]bool: bumping epoch "clears" it in O(1), and a cell is a
//     duplicate within the current wire iff its stamp equals epoch. The
//     stamps are uint32, like the cost array's words; the one wire in
//     2^32 whose epoch wraps to 0 clears the grid first (beginWire).
//   - cells accumulates the winning path of the wire being routed, as
//     row-major cost-array indices (see Path); the kernel costs
//     candidates by run sums without materialising them and writes the
//     winner's three runs straight into cells (winner).
//   - xs holds the segment's HVH sample columns.
//   - sorted is SortedPins' buffer for a wire whose pins are out of order.
//   - reads, when set (Observe), is told of every candidate's reads.
//
// Between calls a Scratch holds no reference to any array or circuit,
// and PutScratch drops its observer, so pooling one retains nothing of
// what it routed.
//
// Scratch is not safe for concurrent use.
type Scratch struct {
	grid    geom.Grid
	visited []uint32
	epoch   uint32
	cells   []int32
	xs      []int
	runs    runSums
	sorted  []geom.Point
	reads   ReadObserver
}

// NewScratch returns a Scratch sized for grid g.
func NewScratch(g geom.Grid) *Scratch {
	s := &Scratch{}
	s.ensure(g)
	return s
}

// scratchPools recycles scratches across independent routing calls, one
// sync.Pool per grid: a Scratch's visited array is sized for one grid, so
// a shared pool serving two grids would hand out scratches that resize on
// every other call. The key space is the set of grids the process routes.
var scratchPools sync.Map // geom.Grid -> *sync.Pool of *Scratch

func scratchPool(g geom.Grid) *sync.Pool {
	if sp, ok := scratchPools.Load(g); ok {
		return sp.(*sync.Pool)
	}
	sp, _ := scratchPools.LoadOrStore(g, &sync.Pool{New: func() any { return NewScratch(g) }})
	return sp.(*sync.Pool)
}

// GetScratch returns a Scratch sized for grid g from the process-wide
// pool, allocating one only when none is free. The caller owns it until
// PutScratch. Safe for concurrent use.
func GetScratch(g geom.Grid) *Scratch { return scratchPool(g).Get().(*Scratch) }

// PutScratch returns s to the pool of the grid it is sized for; nil is
// ignored. The caller must not use s afterwards.
func PutScratch(s *Scratch) {
	if s != nil {
		s.reads = nil
		scratchPool(s.grid).Put(s)
	}
}

// Observe makes every later routing on s tell o of each candidate's
// reads (see ReadObserver); nil stops it. The costing does not change.
func (s *Scratch) Observe(o ReadObserver) { s.reads = o }

// ensure (re)sizes the visited grid when the scratch first sees a grid or
// the grid changes (tests reuse one scratch across differently sized
// arrays; production runs hit this once).
func (s *Scratch) ensure(g geom.Grid) {
	if s.grid == g && s.visited != nil {
		return
	}
	s.grid = g
	s.visited = make([]uint32, g.Cells())
	s.epoch = 0
	s.cells = s.cells[:0]
}

// SortedPins returns w's pins sorted by (X, Y): w.Pins itself when
// already in order, else a sorted copy in the scratch's buffer, valid
// until the next SortedPins call on s. Neither allocates once the buffer
// has grown to the wire's pin count. Callers must not mutate the result.
func (s *Scratch) SortedPins(w *circuit.Wire) []geom.Point {
	if slices.IsSortedFunc(w.Pins, pinCmp) {
		return w.Pins
	}
	s.sorted = append(s.sorted[:0], w.Pins...)
	slices.SortFunc(s.sorted, pinCmp)
	return s.sorted
}

// RouteWire evaluates the candidate routes for w on view's array and
// returns the best one, reusing the scratch's buffers. It does not
// modify the array; call Place or Commit to place the wire. Multi-pin
// wires are decomposed into two-pin segments between consecutive pins
// sorted by X, as LocusRoute does; the per-wire path is the deduplicated
// union of segment paths. The zero Scratch is ready to use.
func (s *Scratch) RouteWire(view ArrayView, w *circuit.Wire, params Params) Eval {
	return s.RerouteWire(view, w, params, Path{})
}

// RerouteWire is RouteWire for a wire whose previous path prev the caller
// has ripped up and is replacing: the winner is copied into prev's
// storage when it fits, so a batch driver's rip-up-and-reroute allocates
// only when a wire's path outgrows its last one. prev must be w's own
// path and nothing may read it afterwards — its cells are overwritten.
func (s *Scratch) RerouteWire(view ArrayView, w *circuit.Wire, params Params, prev Path) Eval {
	params = params.withDefaults()
	s.ensure(view.A.Grid())
	return s.routePins(view, s.SortedPins(w), params, prev.Cells)
}

// RoutePair routes the two-pin segment between a and b — the
// strict-ownership scheme's unit of work. The pins are put in canonical
// (X, Y) order first, matching RouteWire on a two-pin wire.
func (s *Scratch) RoutePair(view ArrayView, a, b geom.Point, params Params) Eval {
	params = params.withDefaults()
	s.ensure(view.A.Grid())
	if b.X < a.X || (b.X == a.X && b.Y < a.Y) {
		a, b = b, a
	}
	s.beginWire()
	var ev Eval
	ev.Cost, ev.CellsExamined = s.routeSegment(view, a, b, params)
	ev.Path = s.takePath(nil)
	return ev
}

// routePins decomposes the sorted pin list into two-pin segments and
// routes each, deduplicating the per-wire path via the epoch grid; the
// path is copied into into when it fits (see takePath).
func (s *Scratch) routePins(view ArrayView, pins []geom.Point, params Params, into []int32) Eval {
	s.beginWire()
	var ev Eval
	for i := 0; i+1 < len(pins); i++ {
		cost, examined := s.routeSegment(view, pins[i], pins[i+1], params)
		ev.Cost += cost
		ev.CellsExamined += examined
	}
	ev.Path = s.takePath(into)
	return ev
}

// beginWire starts a new wire: a fresh epoch makes every visited stamp
// stale without touching the grid, and the cell accumulator rewinds.
// When the epoch wraps, the grid is cleared once so no stamp left by
// the previous 2^32 wires can equal the new one.
func (s *Scratch) beginWire() {
	s.epoch++
	if s.epoch == 0 {
		clear(s.visited)
		s.epoch = 1
	}
	s.cells = s.cells[:0]
}

// takePath copies the accumulated winning cells into a caller-owned Path
// (callers retain paths across iterations for rip-up, so the scratch
// buffer cannot be handed out): into's storage when it has the capacity,
// a new slice otherwise. This is the kernel's only allocation.
func (s *Scratch) takePath(into []int32) Path {
	if len(s.cells) == 0 {
		return Path{}
	}
	if cap(into) < len(s.cells) {
		into = make([]int32, len(s.cells))
	}
	into = into[:len(s.cells)]
	copy(into, s.cells)
	return Path{Cells: into}
}

// span is a straight run of n cells from (x, y) on, dx and dy apart: one
// of them zero and the other ±1.
type span struct{ x, y, dx, dy, n int }

// horizontal is channel y from column x0 to column x1, either direction.
func horizontal(y, x0, x1 int) span {
	dx := 1
	if x1 < x0 {
		dx = -1
	}
	return span{x0, y, dx, 0, (x1-x0)*dx + 1}
}

// vertical is column x from channel y0 to channel y1, either direction.
func vertical(x, y0, y1 int) span {
	dy := 1
	if y1 < y0 {
		dy = -1
	}
	return span{x, y0, 0, dy, (y1-y0)*dy + 1}
}

// tail is r less its first cell: the corner the previous run ended on.
func (r span) tail() span { return span{r.x + r.dx, r.y + r.dy, r.dx, r.dy, r.n - 1} }

// candidate decomposes candidate m of segment p–q (a VHV crossing channel
// when vhv, else an HVH jog column) into its three straight runs in path
// order, the second and third less the corner they start on, which the
// run before ended on; either may then be empty. The observer is told
// these runs and the winner is written from them, so the cells a trace
// records and the cells a path holds come from one decomposition.
func candidate(p, q geom.Point, vhv bool, m int) [3]span {
	if vhv {
		return [3]span{vertical(p.X, p.Y, m), horizontal(m, p.X, q.X).tail(), vertical(q.X, m, q.Y).tail()}
	}
	return [3]span{horizontal(p.Y, p.X, m), vertical(m, p.Y, q.Y).tail(), horizontal(q.Y, m, q.X).tail()}
}

// observe tells the observer the non-empty runs of candidate m.
func (s *Scratch) observe(p, q geom.Point, vhv bool, m int) {
	for _, r := range candidate(p, q, vhv, m) {
		if r.n > 0 {
			s.reads.ReadRun(r.x, r.y, r.dx, r.dy, r.n)
		}
	}
}

// winner writes the cells of candidate m into the wire's path, in order,
// less those the wire already holds.
func (s *Scratch) winner(p, q geom.Point, vhv bool, m int) {
	visited, epoch, cells := s.visited, s.epoch, s.cells
	for _, r := range candidate(p, q, vhv, m) {
		i, step := r.y*s.grid.Grids+r.x, r.dy*s.grid.Grids+r.dx
		for range r.n {
			if visited[i] != epoch {
				visited[i] = epoch
				cells = append(cells, int32(i))
			}
			i += step
		}
	}
	s.cells = cells
}

// routeSegment enumerates the low-bend candidate routes between p and q —
// the HVH family over sampled jog columns, then the VHV family over the
// extended pin band — costs each by run sums on view's array, then tells
// the observer (if any) each one's runs in the same order, and
// materialises cells only for the cheapest (ties broken by enumeration
// order). FuzzFlatSegment pins the costs, the observed runs and the
// winner to materialised reference candidates.
func (s *Scratch) routeSegment(view ArrayView, p, q geom.Point, params Params) (cost int64, examined int) {
	grid := view.A.Grid()
	x0, x1 := min(p.X, q.X), max(p.X, q.X)
	// VHV band: the pin channels extended by VHVDetourChannels in each
	// direction, clamped to the grid.
	y0 := max(min(p.Y, q.Y)-params.VHVDetourChannels, 0)
	y1 := min(max(p.Y, q.Y)+params.VHVDetourChannels, grid.Channels-1)
	s.xs = hvhSamples(s.xs[:0], x0, x1, params.MaxHVHCandidates)
	best := pick{cost: -1}
	r := &s.runs
	// The pin columns' sums must reach both pins even when a negative
	// VHVDetourChannels shrinks the band inside them.
	r.reset(view.A, p, q, s.xs, min(y0, p.Y, q.Y), max(y1, p.Y, q.Y))
	for k, xm := range s.xs {
		sum, n := r.hvh(k)
		best.offer(false, xm, sum, n)
	}
	for ym := y0; ym <= y1; ym++ {
		sum, n := r.vhv(ym)
		best.offer(true, ym, sum, n)
	}
	r.cells, r.xs = nil, nil
	if s.reads != nil {
		for _, xm := range s.xs {
			s.observe(p, q, false, xm)
		}
		for ym := y0; ym <= y1; ym++ {
			s.observe(p, q, true, ym)
		}
	}
	// Materialise only the winner; this pass reads nothing from the
	// array, so an observer sees candidate evaluation reads only.
	s.winner(p, q, best.vhv, best.m)
	return best.cost, best.examined
}

// hvhSamples appends to xs the HVH family's jog columns over [x0, x1] in
// ascending order: every column when there are at most maxHVH, else
// every stride-th from x0, about maxHVH of them, with x1 always last.
func hvhSamples(xs []int, x0, x1, maxHVH int) []int {
	stride := 1
	if span := x1 - x0; span+1 > maxHVH {
		stride = (span + maxHVH) / maxHVH
	}
	for xm := x0; xm <= x1; xm += stride {
		xs = append(xs, xm)
		if stride > 1 && xm < x1 && xm+stride > x1 {
			xm = x1 - stride // make sure the far end is always sampled
		}
	}
	return xs
}

// pick keeps the cheapest candidate offered so far, the first on ties,
// and counts the cells every candidate examined.
type pick struct {
	cost     int64
	vhv      bool
	m        int
	examined int
}

func (b *pick) offer(vhv bool, m int, sum int64, n int) {
	b.examined += n
	// cost < 0 reads as "no candidate yet", so while the running best is
	// negative (an MP view holds negative entries between delta
	// applications) any later candidate replaces it, dearer or not. The
	// paper tables depend on this quirk (TestNegativeBestIsReplaced);
	// correcting it re-pins their sha256 and is its own change.
	if b.cost < 0 || sum < b.cost {
		b.cost, b.vhv, b.m = sum, vhv, m
	}
}

// runSums costs one segment's candidates straight from a plain array's
// row-major cells. A candidate is three straight runs that share the two
// corner cells where they meet, each read once (see candidate), so its
// sum is the three run sums minus the two corners, and its count the
// three run lengths minus two.
//
// Each pin row is read once per segment, in chunks between consecutive
// HVH sample columns, keeping the row's running sum at every sample: an
// HVH candidate needs the pin rows only up to and from its jog column,
// which is a sample. The short pin columns are prefix-summed over the
// band. The run that varies with the candidate (HVH's jog column, VHV's
// crossing row) is summed directly, except a crossing row that is a pin
// row, whose total is already known.
type runSums struct {
	cells  []int32
	stride int
	p, q   geom.Point // p is the pin in column x0, q the pin in column x1
	xs     []int      // the HVH sample columns, ascending from x0 to x1
	y0     int        // first channel of colP/colQ
	buf    []int64    // backs the four sums, reused across segments

	// cumP[k] is the sum of row p.Y over columns [x0, xs[k]], cumQ that of
	// row q.Y. colP[i] is the sum of column p.X over channels [y0, y0+i),
	// colQ that of column q.X.
	cumP, cumQ, colP, colQ []int64
}

// reset prepares the sums for segment p–q over the sample columns xs
// (from x0 to x1) and channels [y0, y1].
func (r *runSums) reset(a *costarray.CostArray, p, q geom.Point, xs []int, y0, y1 int) {
	if q.X < p.X {
		p, q = q, p // every candidate is symmetric in its pins
	}
	r.cells, r.stride = a.Cells(), a.Grid().Grids
	r.p, r.q, r.xs, r.y0 = p, q, xs, y0
	nx, ny := len(xs), y1-y0+2
	if cap(r.buf) < 2*(nx+ny) {
		r.buf = make([]int64, 2*(nx+ny))
	}
	b := r.buf[:2*(nx+ny)]
	r.cumP = r.cumulate(b[:nx], p.Y)
	r.cumQ = r.cumP
	if q.Y != p.Y {
		r.cumQ = r.cumulate(b[nx:2*nx], q.Y)
	}
	r.colP = r.prefix(b[2*nx:2*nx+ny], y0*r.stride+p.X, r.stride)
	r.colQ = r.colP
	if q.X != p.X {
		r.colQ = r.prefix(b[2*nx+ny:], y0*r.stride+q.X, r.stride)
	}
}

// cumulate fills out[k] with the sum of row y over columns [xs[0], xs[k]],
// reading each cell once: chunk k holds the columns after sample k-1, up
// to and including sample k.
func (r *runSums) cumulate(out []int64, y int) []int64 {
	row := r.cells[y*r.stride : (y+1)*r.stride]
	sum := int64(row[r.xs[0]])
	out[0] = sum
	for k := 1; k < len(r.xs); k++ {
		sum += sum4(row[r.xs[k-1]+1 : r.xs[k]+1])
		out[k] = sum
	}
	return out
}

// prefix fills out[i] with the sum of the i cells from index at on, step
// apart.
func (r *runSums) prefix(out []int64, at, step int) []int64 {
	out[0] = 0
	for i := 1; i < len(out); i++ {
		out[i] = out[i-1] + int64(r.cells[at])
		at += step
	}
	return out
}

// sum4 sums a run of cells with four accumulators, so the adds of a long
// run do not wait on one another. Integer addition is exact, so the
// total is the one a single accumulator gives.
func sum4(cells []int32) int64 {
	var s0, s1, s2, s3 int64
	for ; len(cells) >= 4; cells = cells[4:] {
		s0 += int64(cells[0])
		s1 += int64(cells[1])
		s2 += int64(cells[2])
		s3 += int64(cells[3])
	}
	for _, c := range cells {
		s0 += int64(c)
	}
	return s0 + s1 + s2 + s3
}

// run is the sum over the inclusive run a..b (either direction) of the
// prefix sums pre, which start at coordinate base.
func run(pre []int64, base, a, b int) int64 {
	return pre[max(a, b)-base+1] - pre[min(a, b)-base]
}

func (r *runSums) at(x, y int) int64 { return int64(r.cells[y*r.stride+x]) }

// hvh costs the HVH candidate through jog column xs[k]: row p.Y up to the jog column, which is
// cumP[k], plus row q.Y from it, the whole row less cumQ[k] but for the
// jog cell itself, plus the jog column, less the two corners.
func (r *runSums) hvh(k int) (sum int64, n int) {
	p, q, xm := r.p, r.q, r.xs[k]
	ya, yb := min(p.Y, q.Y), max(p.Y, q.Y)
	for i := ya*r.stride + xm; i <= yb*r.stride+xm; i += r.stride {
		sum += int64(r.cells[i])
	}
	sum += r.cumP[k] + r.cumQ[len(r.cumQ)-1] - r.cumQ[k] - r.at(xm, p.Y)
	return sum, q.X - p.X + yb - ya + 1
}

// vhv costs the VHV candidate through crossing channel ym.
func (r *runSums) vhv(ym int) (sum int64, n int) {
	p, q := r.p, r.q
	switch ym {
	case p.Y:
		sum = r.cumP[len(r.cumP)-1]
	case q.Y:
		sum = r.cumQ[len(r.cumQ)-1]
	default:
		sum = sum4(r.cells[ym*r.stride+p.X : ym*r.stride+q.X+1])
	}
	sum += run(r.colP, r.y0, p.Y, ym) + run(r.colQ, r.y0, ym, q.Y) - r.at(p.X, ym) - r.at(q.X, ym)
	return sum, absInt(ym-p.Y) + q.X - p.X + absInt(q.Y-ym) + 1
}
