package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestCritPathShapeSmall(t *testing.T) {
	rows := must(CritPath(smallCircuit(), smallSetup()))(t)
	if len(rows) != 7 {
		t.Fatalf("critpath table must have 7 rows, got %d", len(rows))
	}
	for _, r := range rows {
		sum := r.ComputeS + r.PacketS + r.BlockedS + r.BarrierS + r.NetworkS
		if math.Abs(sum-r.TotalS) > 1e-9 {
			t.Errorf("%s: path categories sum to %.9f, total is %.9f", r.Label, sum, r.TotalS)
		}
		if r.Steps == 0 {
			t.Errorf("%s: empty critical path", r.Label)
		}
		// Section 5.1.3's property on the path: only blocking schedules
		// can carry blocked time.
		if strings.Contains(r.Label, "non-blocking") || strings.HasPrefix(r.Label, "SI ") {
			if r.BlockedS != 0 {
				t.Errorf("%s: non-blocking run reports %.9fs blocked on its critical path", r.Label, r.BlockedS)
			}
		}
	}
}

func TestCritPathExcludedFromAllTables(t *testing.T) {
	// The critpath rows come from traced runs; keeping the table out of
	// `paper -all` is what keeps the golden output hash stable.
	for _, name := range TableNames() {
		if name == "critpath" {
			t.Fatal("critpath must not be part of `paper -all`")
		}
	}
	// It must still be reachable by name.
	if _, err := Render("critpath", smallCircuit(), smallCircuit(), smallSetup()); err != nil {
		t.Fatalf("Render(critpath) failed: %v", err)
	}
}
