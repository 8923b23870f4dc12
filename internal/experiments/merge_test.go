package experiments

import (
	"bytes"
	"strings"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/obs"
	"locusroute/internal/par"
)

// TestRenderSetIdenticalAcrossPoolSizes is the parallel driver's
// determinism contract: the rendered tables AND the observability JSON
// document must be byte-identical whether one simulation runs at a time
// or eight do. The name list covers every merge shape: a plain MP sweep
// (1), paired cells (blocking, network), a traced SM run with concurrent
// cache replays (3), heterogeneous cells (comparison), post-processed
// rows (6), and a two-circuit compute-only table (locality).
func TestRenderSetIdenticalAcrossPoolSizes(t *testing.T) {
	names := []string{"1", "blocking", "3", "comparison", "6", "network", "locality"}
	bnrE := smallCircuit()
	mdc := circuit.MustGenerate(circuit.GenParams{
		Name: "small2", Channels: 8, Grids: 96, Wires: 90, MeanSpan: 12,
		LongFrac: 0.1, Seed: 6,
	})
	render := func(workers int) (string, []byte) {
		t.Helper()
		s := smallSetup()
		s.Pool = par.New(workers)
		s.Obs = obs.NewCollector()
		tables, err := RenderSet(names, bnrE, mdc, s)
		if err != nil {
			t.Fatal(err)
		}
		var text bytes.Buffer
		for _, tb := range tables {
			text.WriteString(tb)
			text.WriteByte('\n')
		}
		var doc bytes.Buffer
		if err := s.Obs.Snapshot("test").WriteJSON(&doc); err != nil {
			t.Fatal(err)
		}
		return text.String(), doc.Bytes()
	}
	text1, doc1 := render(1)
	text8, doc8 := render(8)
	if text1 != text8 {
		t.Errorf("rendered tables differ between -par 1 and -par 8:\n--- par 1 ---\n%s\n--- par 8 ---\n%s", text1, text8)
	}
	if !bytes.Equal(doc1, doc8) {
		t.Errorf("observability documents differ between -par 1 and -par 8 (%d vs %d bytes)", len(doc1), len(doc8))
	}
}

// TestRenderUnknownTable checks the driver reports bad names as errors
// (the commands exit non-zero on them rather than panicking).
func TestRenderUnknownTable(t *testing.T) {
	if _, err := Render("no-such-table", smallCircuit(), smallCircuit(), smallSetup()); err == nil {
		t.Fatal("want an error for an unknown table name")
	}
}

// TestRenderSetSimulatesEachConfigurationOnce runs the -all table list on
// the benchmark circuits: the tables request 65 message passing DES runs,
// only 50 of them distinct, and 10 traced shared memory runs, of which
// Table 3's and Section 5.2's are one; the run memo executes each
// distinct run once. Sharing must not show: the rendered tables and the
// -json document equal, in order and label, those of each table rendered
// alone.
func TestRenderSetSimulatesEachConfigurationOnce(t *testing.T) {
	bnrE, mdc := BnrE(), MDC()
	render := func(names []string, col *obs.Collector, memo *runMemo) string {
		t.Helper()
		s := DefaultSetup()
		s.Pool = par.New(2)
		s.Obs = col
		s.memo = memo
		tables, err := RenderSet(names, bnrE, mdc, s)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(tables, "\n")
	}
	doc := func(col *obs.Collector) []byte {
		t.Helper()
		var b bytes.Buffer
		if err := col.Snapshot("test").WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	together, memo := obs.NewCollector(), &runMemo{}
	text := render(TableNames(), together, memo)
	requested := map[string]int{}
	for _, r := range together.Snapshot("test").Runs {
		requested[r.Backend]++
	}
	if requested["mp-des"] != 65 || memo.des.executed != 50 {
		t.Errorf("%d DES runs requested, %d executed; want 65 and 50", requested["mp-des"], memo.des.executed)
	}
	if requested["sm-traced"] != 10 || memo.sm.executed != 9 {
		t.Errorf("%d traced SM runs requested, %d executed; want 10 and 9", requested["sm-traced"], memo.sm.executed)
	}

	alone := obs.NewCollector()
	var texts []string
	for _, name := range TableNames() {
		texts = append(texts, render([]string{name}, alone, nil))
	}
	if want := strings.Join(texts, "\n"); text != want {
		t.Errorf("tables rendered together differ from the tables rendered alone")
	}
	if !bytes.Equal(doc(together), doc(alone)) {
		t.Errorf("-json documents differ between the tables rendered together and alone")
	}
}
