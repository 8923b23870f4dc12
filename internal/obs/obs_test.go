package obs

import (
	"strings"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {-5, 0},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
}

func TestHistogramDoc(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 3, 3, 9} {
		h.Observe(v)
	}
	d := h.Doc()
	if d == nil {
		t.Fatal("Doc() = nil for non-empty histogram")
	}
	if d.Count != 5 || d.Sum != 16 || d.Max != 9 {
		t.Fatalf("doc moments = %+v, want count=5 sum=16 max=9", d)
	}
	want := []BucketDoc{{0, 1}, {1, 1}, {3, 2}, {15, 1}}
	if len(d.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", d.Buckets, want)
	}
	for i := range want {
		if d.Buckets[i] != want[i] {
			t.Errorf("bucket %d = %v, want %v", i, d.Buckets[i], want[i])
		}
	}
	// Every sample must lie within its reported bucket's bound.
	total := int64(0)
	for _, b := range d.Buckets {
		total += b.Count
	}
	if total != d.Count {
		t.Errorf("bucket counts sum to %d, want %d", total, d.Count)
	}
}

func TestNilCollectorsNoOp(t *testing.T) {
	var col *Collector
	if col.Enabled() {
		t.Error("nil collector claims enabled")
	}
	if col.Append(Run{}) != nil {
		t.Error("nil collector stored a run")
	}
	s := col.Snapshot("cmd")
	if s.Schema != SchemaVersion || len(s.Runs) != 0 {
		t.Errorf("nil collector snapshot = %+v", s)
	}
}

func TestCollectorLateAttach(t *testing.T) {
	col := NewCollector()
	r := col.Append(Run{Name: "a", Backend: "sm-traced"})
	r.Cache = append(r.Cache, CacheDoc{LineSize: 16})
	s := col.Snapshot("locusroute -backend sm-traced")
	if len(s.Runs) != 1 || len(s.Runs[0].Cache) != 1 || s.Runs[0].Cache[0].LineSize != 16 {
		t.Fatalf("late-attached cache doc lost: %+v", s.Runs)
	}
}

func TestSnapshotJSONStable(t *testing.T) {
	col := NewCollector()
	run := col.Append(Run{Name: "r", Backend: "mp-des", Procs: 2})
	run.Nodes = []NodeTimes{{Node: 0, ComputeNs: 1, TotalNs: 1}}

	var a, b strings.Builder
	if err := col.Snapshot("test").WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := col.Snapshot("test").WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two renderings of the same snapshot differ")
	}
	for _, want := range []string{SchemaVersion, `"compute_ns": 1`, `"backend": "mp-des"`} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("JSON missing %q:\n%s", want, a.String())
		}
	}
	if !strings.HasSuffix(a.String(), "\n") {
		t.Error("JSON missing trailing newline")
	}
}
