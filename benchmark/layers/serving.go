package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"locusroute/benchmark/harness"
	"locusroute/internal/wire"
	"locusroute/pkg/locusroute"
)

// options sizes a harness run: the full traced workload, or one of the
// short replays that feed the locusd/tcp/reqtrace/store rows. Set-up
// time is an end-to-end metric, so here one set-up is enough.
func (p *probe) options(seconds float64, rec *harness.Recorder) harness.Options {
	o := harness.Sizing(p.seed, seconds, p.quick)
	o.SetupReps, o.Trace = 1, rec
	return o
}

// replaySeconds is the length of each short serving replay (quick mode
// shortens it like every other run).
const replaySeconds = 5

// serving runs the named workload traced (the client.* rows), then the
// serving-path replays every report carries whatever the workload:
// serve_read traced and untraced (stage breakdown, tracing overhead),
// serve_mixed (the write side, the two restarts), and one closed-loop
// connection per transport against a tracing daemon.
func (p *probe) serving(workload string, seconds float64) (*harness.Result, error) {
	res, err := harness.Run(p.sb, workload, p.options(seconds, p.rec))
	if err != nil {
		return nil, fmt.Errorf("traced %s: %w", workload, err)
	}
	for name, m := range res.Client() {
		p.set(name, m)
	}
	replay := func(name string, rec *harness.Recorder) (*harness.Result, error) {
		o := p.options(replaySeconds, rec)
		o.Warmup = min(o.Warmup, time.Second)
		r, err := harness.Run(p.sb, name, o)
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", name, err)
		}
		p.check("replay "+name+" correct", r.Correct() && r.Failed() == 0, "checks %+v, failed %d of %d", r.Checks, r.Failed(), r.Attempted())
		return r, nil
	}

	traced := res
	if workload != harness.ServeRead {
		if traced, err = replay(harness.ServeRead, p.rec); err != nil {
			return nil, err
		}
	}
	untraced, err := replay(harness.ServeRead, nil)
	if err != nil {
		return nil, err
	}
	v := traced.Server
	p.check("traced serve_read responses carry stages", v.Traced > 0 && v.Traced == v.N, "%d of %d", v.Traced, v.N)
	if v.Traced > 0 {
		for i, name := range harness.StageNames {
			p.set("locusd.stage_"+name+"_us", harness.Single("us", float64(v.StageNs[i])/float64(v.Traced)/1e3))
		}
		p.set("locusd.batch_size_mean", harness.Single("count", float64(v.BatchSizeSum)/float64(v.N)))
		p.set("locusd.wait_us_mean", harness.Single("us", float64(v.WaitUSSum)/float64(v.N)))
	}
	tp50, up50 := traced.EndToEnd()["p50_us"].Value, untraced.EndToEnd()["p50_us"].Value
	p.set("reqtrace.overhead_frac", harness.Single("frac", tp50/up50-1))

	// Always a replay of fixed length, even when the traced workload was
	// serve_mixed itself: WAL replay time grows with the writes made, so
	// the restart rows are only comparable at one run length.
	mixed, err := replay(harness.ServeMixed, nil)
	if err != nil {
		return nil, err
	}
	window := 0.0
	for _, rd := range mixed.Rec.Rounds {
		window += rd.Seconds
	}
	writeP50, _ := harness.Percentile(harness.Sorted(mixed.Rec.OtherLatUS), 50)
	p.set("store.write_p50_us", harness.Single("us", writeP50))
	p.set("store.writes_per_s", harness.Single("1/s", float64(mixed.Rec.Other.OK)/window))
	p.set("store.replay_restart_ms", harness.Single("ms", mixed.ReplayRestartMS))
	p.set("store.snapshot_restart_ms", harness.Single("ms", mixed.SnapshotRestartMS))

	return res, p.transports()
}

// transports holds one closed-loop connection per transport against the
// same tracing daemon: the round trip a lone caller sees, and the part
// of it spent outside the server's six stages — transport, codec and
// client time, the two clocks reconciled.
func (p *probe) transports() error {
	circ, err := locusroute.BnrE(harness.CircuitSeed)
	if err != nil {
		return err
	}
	d, _, err := p.sb.StartLocusd("-bench", "bnrE", "-seed", strconv.Itoa(harness.CircuitSeed), "-trace")
	if err != nil {
		return err
	}
	defer d.Kill()
	loop := harness.ClosedLoop{Warmup: 200 * time.Millisecond, Rounds: 1,
		RoundLen: time.Duration(p.reps(2500, 1000)) * time.Millisecond}

	conn, err := wire.Dial(d.Bin)
	if err != nil {
		return err
	}
	defer conn.Close()
	req := wire.Request{Circuit: circ.Name, Traced: true}
	var outside []float64
	rec := loop.Run(func(i int) harness.Outcome {
		w := &circ.Wires[i%len(circ.Wires)]
		req.WireID, req.Pins = w.ID, w.Pins
		t0 := time.Now()
		resp, err := conn.Do(&req)
		lat := time.Since(t0)
		if err != nil || resp.Status != wire.StatusOK {
			return harness.Errored
		}
		var server int64
		for _, st := range resp.Stages {
			server += st.Ns
		}
		outside = append(outside, float64(lat.Nanoseconds()-server)/1e3)
		p.rec.Add(harness.Span{Name: "roundtrip", Layer: "tcp", ID: resp.RequestID, Start: t0, Dur: lat})
		return harness.Good
	})
	p.check("tcp round trips all succeed", rec.Tally.Failed() == 0, "%d of %d failed", rec.Tally.Failed(), rec.Tally.Sent)
	p50, _ := harness.Percentile(harness.Sorted(rec.LatUS()), 50)
	p.set("tcp.roundtrip_p50_us", harness.Single("us", p50))
	p.set("tcp.outside_us", harness.Single("us", harness.Mean(outside)))

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	outside = nil
	rec = loop.Run(func(i int) harness.Outcome {
		t0 := time.Now()
		resp, err := harness.PostRoute(client, d.HTTP, &circ.Wires[i%len(circ.Wires)])
		if err != nil {
			return harness.Errored
		}
		var doc struct {
			RequestID string `json:"request_id"`
			Stages    []struct {
				Ns int64 `json:"ns"`
			} `json:"stages"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		lat := time.Since(t0)
		if err != nil || resp.StatusCode != http.StatusOK || len(doc.Stages) == 0 {
			return harness.Errored
		}
		var server int64
		for _, st := range doc.Stages {
			server += st.Ns
		}
		outside = append(outside, float64(lat.Nanoseconds()-server)/1e3)
		p.rec.Add(harness.Span{Name: "roundtrip", Layer: "http", ID: doc.RequestID, Start: t0, Dur: lat})
		return harness.Good
	})
	p.check("http round trips all succeed", rec.Tally.Failed() == 0, "%d of %d failed", rec.Tally.Failed(), rec.Tally.Sent)
	p50, _ = harness.Percentile(harness.Sorted(rec.LatUS()), 50)
	p.set("http.roundtrip_p50_us", harness.Single("us", p50))
	p.set("http.outside_us", harness.Single("us", harness.Mean(outside)))
	return d.Stop()
}
