package main

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"testing"

	"locusroute/internal/circuit"
	"locusroute/internal/locusd"
	"locusroute/pkg/locusroute"
)

// circuitRow is the part of a /v1/circuits entry a store can change.
type circuitRow struct {
	Name          string `json:"name"`
	CircuitHeight int64  `json:"baseline_circuit_height"`
	Occupancy     int64  `json:"baseline_occupancy"`
	ArraySHA256   string `json:"array_sha256"`
}

// A daemon built with -store-dir or -store-mem must serve the arrays one
// without a store flag serves: the store routes its baselines with the
// parameters every read uses, so bnrE's baseline height, occupancy and
// canonical array hash cannot depend on where the store keeps them.
func TestStoreFlagsKeepBaseline(t *testing.T) {
	c, err := circuit.Generate(circuit.BnrELike(1))
	if err != nil {
		t.Fatal(err)
	}
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	row := func(storeDir string, storeMem int64) circuitRow {
		t.Helper()
		srv, st, err := newServer(locusd.Config{Backend: locusroute.Sequential, Shards: 1},
			storeDir, storeMem, []*circuit.Circuit{c}, logger)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			srv.Close()
			if st != nil {
				st.Close()
			}
		}()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/circuits", nil))
		var doc struct {
			Circuits []circuitRow `json:"circuits"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Fatalf("/v1/circuits: %v: %s", err, rec.Body.Bytes())
		}
		if len(doc.Circuits) != 1 || doc.Circuits[0].ArraySHA256 == "" {
			t.Fatalf("/v1/circuits = %s, want one mutable circuit", rec.Body.Bytes())
		}
		return doc.Circuits[0]
	}
	want := row("", 0)
	for _, tc := range []struct {
		name string
		dir  string
		mem  int64
	}{
		{"-store-dir", t.TempDir(), 0},
		{"-store-mem", "", 64},
	} {
		if got := row(tc.dir, tc.mem); got != want {
			t.Errorf("with %s: %+v, without a store flag %+v", tc.name, got, want)
		}
	}
}
