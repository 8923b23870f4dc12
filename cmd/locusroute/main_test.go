package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"locusroute/pkg/locusroute"
)

// inTempDir runs the test from a fresh directory, so the relative file
// names the reports print (and the digests below hold) are the same
// wherever the test runs.
func inTempDir(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// runOut runs the command and returns its stdout.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("locusroute %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestReportDigests pins each backend's report byte for byte (default
// -bench bnrE -seed 1); a -json - row pins the report followed by the
// observability document. The rows run in order: the replay reads the
// trace the dump row wrote.
func TestReportDigests(t *testing.T) {
	inTempDir(t)
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-backend mp-des -procs 4 -iters 1", "7e9de581c8dc79b053cd70c582c265e1690b9f98823f251a382a2243c57f650b"},
		{"-backend mp-des", "f55a3c4cd6d499fe2b3a60cfde718df85444340eb08a4f7c977b1ad0f5f04c42"},
		{"-backend mp-des -procs 4 -iters 1 -strict", "d78d63ccdc793346849797f4e05a409a346ca878b26bc99fc764ad19e5fb7023"},
		{"-backend mp-des -procs 4 -iters 1 -srd 0 -rld 1 -rrd 5 -blocking -assign rr", "fb37736463fe804d3daaaba72a2b840487a255415066a2e4923325808fb9c077"},
		{"-backend mp-des -procs 4 -iters 1 -packets region -assign rr", "6b266b0c06ef86729d13df169a44fba467e4c0051e1877d0c4af975af9ad3ebb"},
		{"-backend mp-des -procs 7 -iters 1 -dynamic", "7f1c8cb2b7d37ac1aa92618ca8a09149a88ae00292c347247f38019a3994e039"},
		{"-backend mp-des -trace x.json", "7deaeea033c94610787de1a759f914242e4fcee90ad59e133b9649dd8f6ce0be"},
		{"-backend sm-traced -procs 4 -iters 1", "7148d1842299ca9e15bebc7b94ac58c8d505b4fbaebdc5aa62b94953f449b8bd"},
		{"-backend sm-traced -procs 4 -iters 1 -assign threshold -threshold 500 -lines 8 -cache-lines 64", "30098b088a2dc5619d90738cfcf44e569565bf5f777d6f96b53022c0a46d5e90"},
		{"-backend sm-traced -procs 4 -iters 1 -dump t.trace", "8f751b32a6180a719b315050c5bf09d1eed459aba1c223ba5a21dd40cce56435"},
		{"-backend sm-traced -replay t.trace", "5a2edf6bc64b32f05d4bdbaa96fd1bdbe8a669470608e76882277b1d1e6ea2cd"},
		{"-backend sequential", "efab5c048f3472cc407826060c6ac9428f45eb88bfac6aaecc3ff50ba3e3c4aa"},
		{"-negotiate -heatmap -report", "a778f34ad7d8b34f816c7bdeb32c6f295252d57bad3fa48dd7908716f7121e23"},
		{"-backend partitioned -partitions 4", "ec6c49d3a68af8083b8618553ff28f8774083e530f774921cd601799d3ee45cd"},
		{"-backend partitioned -partitions 4 -procs 1", "ec6c49d3a68af8083b8618553ff28f8774083e530f774921cd601799d3ee45cd"},
		{"-backend mp-des -procs 4 -iters 1 -json -", "8482d703d225b91fd5d5d4c6f46eca75a61dbe95bf93556f2f22e66718f812a2"},
		{"-backend sm-traced -procs 4 -iters 1 -json -", "ca8dc1ac14884350e49f2d7d4f7729a3e9eb0960f96552d49d123c30b67bf332"},
		{"-backend sequential -json -", "bb7f6729d814f1cada405b3df61b10fe3977e3c47db016d291e301286b82fcfb"},
	} {
		if got := digest([]byte(runOut(t, strings.Fields(tc.args)...))); got != tc.want {
			t.Errorf("locusroute %s: stdout sha256 %s, want %s", tc.args, got, tc.want)
		}
	}
	for file, want := range map[string]string{
		"x.json":  "4d79121832287d116e4544bc66b60b0550c3d30f6f8ba6e1dbe174a71b3a7eb3",
		"t.trace": "41b61b7bfc5a9d58a1ecc3c5d36f8f0e9065712a147ee0230654017e3b87c4c3",
	} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(b); got != want {
			t.Errorf("%s sha256 %s, want %s", file, got, want)
		}
	}
}

// TestTraceIsChromeDocument checks -trace writes a Chrome trace-event
// document with events in it and prints a non-empty critical path.
func TestTraceIsChromeDocument(t *testing.T) {
	inTempDir(t)
	out := runOut(t, "-backend", "mp-des", "-procs", "4", "-iters", "1", "-trace", "small.json")
	b, err := os.ReadFile("small.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	if !strings.Contains(out, "critical path:") || strings.Contains(out, " 0 steps") {
		t.Fatalf("no critical path in the report:\n%s", out)
	}
}

// TestInapplicableFlagsRejected checks that a flag the chosen backend
// does not take fails with pkg/locusroute's own rejection, and that the
// sm-traced report flags fail on every other backend.
func TestInapplicableFlagsRejected(t *testing.T) {
	_, strategyErr := locusroute.New(locusroute.Sequential, locusroute.WithStrategy(locusroute.Strategy{}))
	_, partitionsErr := locusroute.New(locusroute.MPDES, locusroute.WithPartitions(4))
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-backend sequential -sld 2", strategyErr.Error()},
		{"-backend mp-des -partitions 4", partitionsErr.Error()},
		{"-backend partitioned -lines 8", "-lines applies to -backend sm-traced, not partitioned"},
	} {
		err := run(strings.Fields(tc.args), &bytes.Buffer{})
		if err == nil || err.Error() != tc.want {
			t.Errorf("locusroute %s: error %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestErrorsPrintedOnce pins the line the command prints for a
// rejected command line: one "locusroute: " prefix, whether the error is
// the facade's (which carries that prefix itself) or the command's own.
func TestErrorsPrintedOnce(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-backend sequential -procs 4", "locusroute: WithProcs applies to the sm-traced, mp-des and partitioned backends, not sequential: the sequential backend routes on one processor"},
		{"-backend sequential -lines 4", "locusroute: -lines applies to -backend sm-traced, not sequential"},
		{"-par 0", "locusroute: -par must be at least 1 (got 0)"},
	} {
		err := run(strings.Fields(tc.args), &bytes.Buffer{})
		if err == nil {
			t.Fatalf("locusroute %s: no error", tc.args)
		}
		if got := errorLine(err); got != tc.want {
			t.Errorf("locusroute %s prints %q, want %q", tc.args, got, tc.want)
		}
	}
}

// TestDumpReplayMatchesDirect checks that replaying a dumped trace
// prints the same per-line-size traffic rows as the direct run.
func TestDumpReplayMatchesDirect(t *testing.T) {
	inTempDir(t)
	lineRows := func(out string) []string {
		var rows []string
		for _, l := range strings.Split(out, "\n") {
			if strings.HasPrefix(l, "line ") {
				rows = append(rows, l)
			}
		}
		return rows
	}
	base := []string{"-backend", "sm-traced", "-procs", "4", "-iters", "1", "-lines", "8,32"}
	direct := lineRows(runOut(t, base...))
	runOut(t, append(base, "-dump", "d.trace")...)
	replayed := lineRows(runOut(t, "-backend", "sm-traced", "-lines", "8,32", "-replay", "d.trace"))
	if len(direct) != 2 || strings.Join(direct, "\n") != strings.Join(replayed, "\n") {
		t.Fatalf("replay rows differ from the direct run:\n%s\nvs\n%s",
			strings.Join(direct, "\n"), strings.Join(replayed, "\n"))
	}
}

// TestPartitionDocuments pins the -json document on both paths that
// write a partition section (the partitioned backend and the sequential
// backend's negotiated schedule), with every region's wall time zeroed:
// the one field a wall clock sets.
func TestPartitionDocuments(t *testing.T) {
	inTempDir(t)
	for _, tc := range []struct {
		args string
		want string
	}{
		{"-backend partitioned -partitions 4 -json p.json", "d390aedfa6705db5c32879d5cf945b9d6333b3f63a25ec662de7f7b99860bdc9"},
		{"-negotiate -json p.json", "fa2cddae5c72b79bb5ae6dc7fda37681615ecdaabe70796ce0050803dd9d3249"},
	} {
		runOut(t, strings.Fields(tc.args)...)
		b, err := os.ReadFile("p.json")
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Schema  string           `json:"schema"`
			Command string           `json:"command"`
			Runs    []map[string]any `json:"runs"`
		}
		if err := json.Unmarshal(b, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Runs) != 1 {
			t.Fatalf("locusroute %s: want one run:\n%s", tc.args, b)
		}
		p, _ := doc.Runs[0]["partition"].(map[string]any)
		walls, _ := p["region_wall_ns"].([]any)
		if n, _ := p["partitions"].(float64); len(walls) != int(n) || n == 0 {
			t.Fatalf("locusroute %s: partition section %v has a wall time per region", tc.args, p)
		}
		for i := range walls {
			walls[i] = 0
		}
		canon, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest(canon); got != tc.want {
			t.Errorf("locusroute %s: document sha256 %s, want %s\n%s", tc.args, got, tc.want, canon)
		}
	}
}
