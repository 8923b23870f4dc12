package sm

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"locusroute/internal/assign"
	"locusroute/internal/circuit"
	"locusroute/internal/geom"
	"locusroute/internal/perf"
	"locusroute/internal/sim"
	"locusroute/internal/trace"
)

// tracedCase is one traced configuration TestTracedStreamGolden pins.
type tracedCase struct {
	name  string
	c     *circuit.Circuit
	procs int
	order Order
	// asn builds the static assignment; nil for dynamic order.
	asn  func(*circuit.Circuit, geom.Partition) *assign.Assignment
	perf perf.Model
}

func tracedCases() []tracedCase {
	bnrE := circuit.MustGenerate(circuit.BnrELike(1))
	mdc := circuit.MustGenerate(circuit.MDCLike(1))
	threshold := func(cost int) func(*circuit.Circuit, geom.Partition) *assign.Assignment {
		return func(c *circuit.Circuit, part geom.Partition) *assign.Assignment {
			return assign.AssignThreshold(c, part, cost)
		}
	}
	return []tracedCase{
		{name: "bnrE/16/dynamic", c: bnrE, procs: 16, order: Dynamic},
		{name: "bnrE/16/round-robin", c: bnrE, procs: 16, order: Static, asn: assign.AssignRoundRobin},
		{name: "bnrE/16/threshold-1000", c: bnrE, procs: 16, order: Static, asn: threshold(1000)},
		{name: "MDC/16/threshold-inf", c: mdc, procs: 16, order: Static, asn: threshold(assign.ThresholdInfinity)},
		// Shared accesses that cost no time: whole wires are emitted at
		// one instant, so every run of reads has a zero time step.
		{name: "small/4/free-accesses", c: smallCircuit(3), procs: 4, order: Dynamic,
			perf: perf.Model{WireOverhead: sim.Microsecond}},
	}
}

// tracedDigest runs one case with every time constant of its cost model
// multiplied by perfScale and hashes every reference RunTraced emits, in
// order, followed by every Result field and the final cost array. Each
// time it hashes (a reference's T, the Span) is first multiplied by
// timeScale.
func tracedDigest(t *testing.T, tc tracedCase, perfScale, timeScale sim.Time) string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Procs = tc.procs
	cfg.Order = tc.order
	if tc.perf != (perf.Model{}) {
		cfg.Perf = tc.perf
	}
	m := &cfg.Perf
	for _, v := range []*sim.Time{&m.CellEval, &m.CellWrite, &m.CellScan, &m.ByteCopy, &m.WireOverhead} {
		*v *= perfScale
	}
	if tc.asn != nil {
		px, py := geom.SquarestFactors(tc.procs)
		part, err := geom.NewPartition(tc.c.Grid, px, py)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Assignment = tc.asn(tc.c, part)
	}
	h := sha256.New()
	var buf []byte
	put := func(vs ...int64) {
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
	}
	res, err := RunTraced(tc.c, cfg, func(batch []trace.Ref) {
		for _, r := range batch {
			buf = buf[:0]
			put(int64(r.T*timeScale), int64(r.Proc), int64(r.Addr), int64(r.Op))
			h.Write(buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	buf = buf[:0]
	put(int64(res.Reads), int64(res.Writes), int64(res.PeakBuffered), res.CircuitHeight,
		res.Occupancy, int64(res.Span*timeScale), int64(res.WiresRouted), res.CellsExamined)
	final := sha256.New()
	for _, v := range res.Final.Cells() {
		final.Write(binary.LittleEndian.AppendUint32(nil, uint32(v)))
	}
	buf = final.Sum(buf)
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestTracedStreamGolden pins the traced shared memory router's answers
// across commits: the merged reference stream reference by reference,
// and everything Result reports. A change to how references are
// produced, buffered or merged must hold every digest.
func TestTracedStreamGolden(t *testing.T) {
	want := map[string]string{
		"bnrE/16/dynamic":        "58b97b223176d5e4",
		"bnrE/16/round-robin":    "1bd69a4838a3e48a",
		"bnrE/16/threshold-1000": "70573556d12a8e57",
		"MDC/16/threshold-inf":   "dbd26e1565ebd106",
		"small/4/free-accesses":  "b92092a2c71b9774",
	}
	for _, tc := range tracedCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got := tracedDigest(t, tc, 1, 1); got != want[tc.name] {
				t.Errorf("digest %s, want %s", got, want[tc.name])
			}
		})
	}
}

// TestTimeScaleInvariance multiplies every time constant of the cost
// model by 3: every emitted reference must be the same except for its
// time, which is exactly 3 times the unscaled one, and so must Span be.
// A time literal that bypasses the model would break the factor.
func TestTimeScaleInvariance(t *testing.T) {
	const k = 3
	for _, tc := range tracedCases() {
		t.Run(tc.name, func(t *testing.T) {
			if got, want := tracedDigest(t, tc, k, 1), tracedDigest(t, tc, 1, k); got != want {
				t.Errorf("constants x%d digest %s, unscaled times x%d digest %s", k, got, k, want)
			}
		})
	}
}
