package cli

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"locusroute/internal/obs"
	"locusroute/internal/policy"
)

// parse builds a fresh flag set with every group registered and parses
// args.
func parse(t *testing.T, args ...string) *Common {
	t.Helper()
	c := New("test")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	c.AddPar(fs, "")
	c.AddObs(fs)
	c.AddBench(fs)
	c.AddCircuitFile(fs)
	c.AddPolicy(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestParValidationUniform pins the shared -par contract: values below
// one fail with the exact text every command reports.
func TestParValidationUniform(t *testing.T) {
	for _, bad := range []int{0, -3} {
		c := parse(t)
		c.Par = bad
		err := c.Validate()
		if err == nil {
			t.Fatalf("par=%d accepted", bad)
		}
		want := "-par must be at least 1"
		if !strings.HasPrefix(err.Error(), want) {
			t.Errorf("par=%d error %q, want prefix %q", bad, err, want)
		}
	}
	if err := parse(t, "-par", "1").Validate(); err != nil {
		t.Errorf("par=1 rejected: %v", err)
	}
	// The default (GOMAXPROCS) always validates.
	if err := parse(t).Validate(); err != nil {
		t.Errorf("default par rejected: %v", err)
	}
}

// TestLoadCircuitSelection covers benchmark selection and the unknown
// benchmark error.
func TestLoadCircuitSelection(t *testing.T) {
	c := parse(t, "-bench", "MDC", "-seed", "3")
	circ, err := c.LoadCircuit()
	if err != nil {
		t.Fatal(err)
	}
	if circ.Name != "MDC-like" {
		t.Errorf("loaded circuit %q, want MDC-like", circ.Name)
	}
	c = parse(t, "-bench", "nope")
	if _, err := c.LoadCircuit(); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestCollectorGating checks the collector only exists under -json.
func TestCollectorGating(t *testing.T) {
	if col := parse(t).Collector(); col.Enabled() {
		t.Error("collector enabled without -json")
	}
	if col := parse(t, "-json", "-").Collector(); !col.Enabled() {
		t.Error("collector disabled with -json")
	}
}

// TestPoolSizing checks the pool takes its capacity from -par.
func TestPoolSizing(t *testing.T) {
	c := parse(t, "-par", "3")
	if got := c.Pool().Workers(); got != 3 {
		t.Errorf("pool capacity %d, want 3", got)
	}
}

// TestWriteSnapshotDestinations checks -json - writes the document to
// the caller's writer, recorded under the args given, and that a path
// gets the same bytes in a file.
func TestWriteSnapshotDestinations(t *testing.T) {
	args := []string{"-json", "-"}
	c := parse(t, args...)
	col := c.Collector()
	col.Append(obs.Run{Name: "r", Backend: "sequential", Procs: 1})
	var stdout bytes.Buffer
	if err := c.WriteSnapshot(&stdout, args, col); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), `"command": "test -json -"`) {
		t.Errorf("document does not record the args given:\n%s", stdout.String())
	}

	path := filepath.Join(t.TempDir(), "doc.json")
	c.JSONPath = path
	var none bytes.Buffer
	if err := c.WriteSnapshot(&none, args, col); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if none.Len() != 0 || !bytes.Equal(got, stdout.Bytes()) {
		t.Errorf("file document differs from the stdout one, or stdout was written (%d bytes)", none.Len())
	}
}

// TestPolicyFlags checks each policy flag lands in its own
// policy.Config field, and that the defaults enable nothing.
func TestPolicyFlags(t *testing.T) {
	if cfg := parse(t).Policy(); cfg != (policy.Config{}) {
		t.Errorf("default policy flags enable %+v", cfg)
	}
	c := parse(t, "-cache-size", "17", "-edf")
	want := policy.Config{CacheEntries: 17, EDF: true}
	if got := c.Policy(); got != want {
		t.Errorf("Policy() = %+v, want %+v", got, want)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("valid policy flags rejected: %v", err)
	}
}
