package part

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/par"
	"locusroute/internal/route"
)

// goldenCase is one partitioned run whose answer TestPartitionedGolden
// pins.
type goldenCase struct {
	name  string
	circ  *circuit.Circuit
	parts int
	neg   *Negotiated
}

// goldenCases are the pinned runs: bnrE and MDC at seeds 1–3 over four
// tree shapes (3 leaves is the uneven split), the 10x preset in two
// shuffled wire orders, which reshuffle every node's wire list and with
// it the order boundary wires see each other in, and one negotiated run,
// whose reroute passes route subsets of each node's wires.
func goldenCases(t testing.TB) []goldenCase {
	var cases []goldenCase
	for _, gen := range []struct {
		name string
		fn   func(int64) circuit.GenParams
	}{{"bnrE", circuit.BnrELike}, {"MDC", circuit.MDCLike}} {
		for seed := int64(1); seed <= 3; seed++ {
			c := genCircuit(t, gen.fn, seed)
			for _, parts := range []int{2, 3, 4, 8} {
				cases = append(cases, goldenCase{fmt.Sprintf("%s/seed%d/parts%d", gen.name, seed, parts), c, parts, nil})
			}
		}
	}
	for _, order := range []int64{1, 2} {
		c := *scaledCircuit(t)
		c.Wires = append([]circuit.Wire(nil), c.Wires...)
		rand.New(rand.NewSource(order)).Shuffle(len(c.Wires), func(i, j int) {
			c.Wires[i], c.Wires[j] = c.Wires[j], c.Wires[i]
		})
		cases = append(cases, goldenCase{fmt.Sprintf("10x/order%d/parts4", order), &c, 4, nil})
	}
	cases = append(cases, goldenCase{"bnrE/seed1/parts4/negotiated", genCircuit(t, circuit.BnrELike, 1), 4, &Negotiated{}})
	return cases
}

// runDigest hashes everything a partitioned run answers: the Result, the
// schedule's deterministic Stats, the final cost array, and every wire's
// path, cell by cell in path order.
func runDigest(r *runner, res route.Result, st *Stats) string {
	h := sha256.New()
	var buf []byte
	put := func(vs ...int64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	put(res.CircuitHeight, res.Occupancy, res.CellsExamined, int64(res.WiresRouted))
	put(int64(st.Partitions), int64(st.Depth), int64(st.TotalWires), int64(st.BoundaryWires),
		int64(st.NegotiatedIters), int64(st.OverusedCells), int64(st.PresFacFinal*1e6))
	for _, n := range st.LevelWires {
		put(int64(n))
	}
	for _, v := range r.arr.Cells() {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	for _, p := range r.paths {
		put(int64(len(p.Cells)))
		for _, c := range p.Cells {
			put(int64(c.X), int64(c.Y))
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestPartitionedGolden pins the partitioned router's answers across
// commits, the way the paper sha256 pins the simulators: a change to how
// part schedules its wires (which goroutine routes a wire, in what order
// non-conflicting wires run, which scratch they use) must hold every
// digest. Only a change that says which answer moved and why re-pins
// one. The runs share a worker pool, as the benchmark's do.
func TestPartitionedGolden(t *testing.T) {
	want := map[string]string{
		"bnrE/seed1/parts2":            "ebe616fe9cd1f746",
		"bnrE/seed1/parts3":            "3920390cfe1d1423",
		"bnrE/seed1/parts4":            "4b6a50e2441c0134",
		"bnrE/seed1/parts8":            "fb4e59439ee83d10",
		"bnrE/seed2/parts2":            "9c7447555bd4d1e5",
		"bnrE/seed2/parts3":            "cde8aa8af6cd5aaa",
		"bnrE/seed2/parts4":            "b94f70ea2bbde1bc",
		"bnrE/seed2/parts8":            "57065387ef1f0340",
		"bnrE/seed3/parts2":            "a761f7b1ff04af6c",
		"bnrE/seed3/parts3":            "0997d44a1e136baf",
		"bnrE/seed3/parts4":            "a5a7ac49cb45d4e0",
		"bnrE/seed3/parts8":            "6201ffde77d59ced",
		"MDC/seed1/parts2":             "07c0d60499c87584",
		"MDC/seed1/parts3":             "67785d854f396119",
		"MDC/seed1/parts4":             "6490be6ce6dd883a",
		"MDC/seed1/parts8":             "c437bfdd69c145ca",
		"MDC/seed2/parts2":             "e502bc61b717d4e8",
		"MDC/seed2/parts3":             "a6a015715f641483",
		"MDC/seed2/parts4":             "62c6d6f1d17f0826",
		"MDC/seed2/parts8":             "671165bb62cafa7c",
		"MDC/seed3/parts2":             "92661fc025598d35",
		"MDC/seed3/parts3":             "d525715b504b988b",
		"MDC/seed3/parts4":             "406bb886e62d5e53",
		"MDC/seed3/parts8":             "afb941f83747aea2",
		"10x/order1/parts4":            "e769479dce1c8e7f",
		"10x/order2/parts4":            "8befdce5f8b184d3",
		"bnrE/seed1/parts4/negotiated": "e0d6c5219e7af35a",
	}
	pool := par.New(4)
	for _, gc := range goldenCases(t) {
		r, res, st, err := run(gc.circ, route.DefaultParams(), Config{Partitions: gc.parts, Workers: pool, Negotiated: gc.neg})
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		if gc.neg != nil && st.NegotiatedIters < 2 {
			t.Errorf("%s: %d negotiated passes, want reroute passes beyond the first", gc.name, st.NegotiatedIters)
		}
		if got := runDigest(r, res, st); got != want[gc.name] {
			t.Errorf("%q: %q, // want %q", gc.name, got, want[gc.name])
		}
	}
}
