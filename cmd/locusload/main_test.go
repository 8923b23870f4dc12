package main

import (
	"context"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/locusd"
	"locusroute/internal/reqtrace"
	"locusroute/internal/store"
)

// TestRunPerProto drives one short measured step per transport and
// traffic mix against an in-process tracing locusd, and holds the row to
// what the server saw: every arrival answered OK, latencies and stage
// means present where asked for, and the store's mutation epoch equal to
// the mutations the row says were acknowledged.
func TestRunPerProto(t *testing.T) {
	c, err := circuit.Generate(circuit.GenParams{
		Name: "svc", Channels: 6, Grids: 80, Wires: 40, MeanSpan: 10, LongFrac: 0.1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(store.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := locusd.New(locusd.Config{
		Shards: 2, Store: st,
		Tracer: reqtrace.New(reqtrace.Options{Sample: 1, Capacity: 64}),
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tcp := locusd.NewTCPServer(srv)
	go tcp.Serve(l)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := tcp.Shutdown(ctx); err != nil {
			t.Errorf("TCP shutdown: %v", err)
		}
	}()
	addrs := map[string]string{"json": strings.TrimPrefix(ts.URL, "http://"), "bin": l.Addr().String()}

	for _, tc := range []struct {
		name, proto string
		stages      bool
		mutateFrac  float64
	}{
		{"json reads", "json", true, 0},
		{"bin reads", "bin", true, 0},
		{"json mixed", "json", false, 0.5},
		{"bin writes", "bin", false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := runConfig{addr: addrs[tc.proto], proto: tc.proto, circuit: "svc", conns: 2,
				stages: tc.stages, mutateFrac: tc.mutateFrac, mutateWire: 1}
			before, _ := st.Get("svc")
			r, err := cfg.run(200, 300*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			// 60 arrivals in all; at 0.5 the two schedules carry 30 each.
			if r.Proto != tc.proto || r.Sent != 60 || r.OK != r.Sent || r.Shed+r.Expired+r.Errors != 0 {
				t.Fatalf("row = %+v, want 60 sent, all ok", r)
			}
			if r.AchievedQPS <= 0 {
				t.Errorf("achieved_qps = %v", r.AchievedQPS)
			}
			mutations := int(float64(r.OK) * tc.mutateFrac)
			if after, _ := st.Get("svc"); int(after.Epoch-before.Epoch) != mutations {
				t.Errorf("store epoch moved %d → %d, row acknowledges %d mutations", before.Epoch, after.Epoch, mutations)
			}
			if reads := r.OK - mutations; (r.Latency["p50"] > 0) != (reads > 0) || r.Latency["max"] < r.Latency["p50"] {
				t.Errorf("latency_us = %v with %d reads", r.Latency, reads)
			}
			if (r.MutateUS["p50"] > 0) != (mutations > 0) {
				t.Errorf("mutate_us = %v with %d mutations", r.MutateUS, mutations)
			}
			// 30 samples support no tail beyond p50: none may be printed.
			if _, ok := r.Latency["p99"]; ok || r.LateP99US != 0 {
				t.Errorf("unsupported tail printed: %+v", r)
			}
			if tc.stages && (r.StagesUS["route"] <= 0 || r.StagesUS["respond"] <= 0) {
				t.Errorf("stages_us = %v, want route and respond > 0", r.StagesUS)
			}
			if !tc.stages && len(r.StagesUS) != 0 {
				t.Errorf("stages_us = %v without -stages", r.StagesUS)
			}
		})
	}
}
