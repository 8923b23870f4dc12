// Command locusload points the repository's one load generator —
// benchmark/harness's open-loop driver — at a running locusd: arrivals
// fire on a fixed schedule whatever the server does and each is timed
// from its *due* time, so a slow server shows up as latency, while
// late_p99_us reports the generator's own wake-up overshoot.
//
//	locusload [-addr 127.0.0.1:8347] [-proto json|bin] [-qps 200]
//	          [-sweep "100,200,400,800"] [-duration 10s] [-warmup 1s]
//	          [-conns 8] [-circuit bnrE-like] [-stages]
//	          [-mutate-frac 0] [-mutate-wire 0]
//
// -proto json posts to HTTP /v1/route, bin speaks internal/wire to a
// -listen-bin listener. Each -qps (or -sweep step) is an unmeasured
// -warmup run, then a measured -duration run that prints one JSON row
// (README, "Binary protocol & load testing", reads one). Percentiles are
// nearest-rank; a tail with fewer than ten samples beyond it is left
// out. -stages adds "stages_us", the mean server-side latency per stage
// over successful route requests. -mutate-frac sends that fraction of
// the rate on a second open-loop schedule, over -conns connections of
// its own, as one-op reroutes of -mutate-wire on a mutable circuit, with
// their own latency block, "mutate_us"; the counts cover both kinds. A
// sweep ends with max_sustained_qps: the highest step that served 95%.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"locusroute/benchmark/harness"
	"locusroute/internal/geom"
	"locusroute/internal/reqtrace"
	"locusroute/internal/wire"
)

// What every request carries, besides commit=false and no deadline of
// its own; these were flags nothing ever set.
const (
	clientName = "locusload" // the caller named in locusd's trace records
	wireBase   = 9000        // route request i labels its wire wireBase+i
	pinsJSON   = "[[2,1],[40,4]]"
)

var pins = []geom.Point{geom.Pt(2, 1), geom.Pt(40, 4)}

type runConfig struct {
	addr, proto, circuit string
	conns, mutateWire    int
	stages               bool
	mutateFrac           float64
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("locusload: ")
	var c runConfig
	flag.StringVar(&c.addr, "addr", "127.0.0.1:8347", "locusd address (HTTP host:port for json, TCP for bin)")
	flag.StringVar(&c.proto, "proto", "json", "transport: json or bin")
	qps := flag.Float64("qps", 200, "offered load, requests per second")
	sweep := flag.String("sweep", "", "comma-separated qps steps (overrides -qps)")
	duration := flag.Duration("duration", 10*time.Second, "measured run length per step")
	warmup := flag.Duration("warmup", time.Second, "unmeasured warmup run before each step")
	flag.IntVar(&c.conns, "conns", 8, "connections per traffic kind")
	flag.StringVar(&c.circuit, "circuit", "bnrE-like", "served circuit to route against")
	flag.BoolVar(&c.stages, "stages", false, "request traced responses and report mean per-stage server latency (stages_us)")
	flag.Float64Var(&c.mutateFrac, "mutate-frac", 0, "fraction of the offered rate issued as mutations (reroute of -mutate-wire); reported separately as mutate_us")
	flag.IntVar(&c.mutateWire, "mutate-wire", 0, "wire id the mutation traffic reroutes")
	flag.Parse()
	if (c.proto != "json" && c.proto != "bin") || c.mutateFrac < 0 || c.mutateFrac > 1 || c.conns < 1 {
		log.Fatal("want -proto json or bin, -mutate-frac in [0,1], -conns at least 1")
	}
	steps := []float64{*qps}
	if *sweep != "" {
		steps = nil
		for _, s := range strings.Split(*sweep, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || v <= 0 {
				log.Fatalf("bad -sweep step %q", s)
			}
			steps = append(steps, v)
		}
	}

	enc := json.NewEncoder(os.Stdout)
	sustained := 0.0
	for _, step := range steps {
		if *warmup > 0 {
			if _, err := c.run(step, *warmup); err != nil {
				log.Fatal(err)
			}
		}
		r, err := c.run(step, *duration)
		if err == nil {
			err = enc.Encode(r)
		}
		if err != nil {
			log.Fatal(err)
		}
		// Sustained means ok-per-elapsed kept pace, not ok-per-scheduled:
		// a run that finished late (the open loop backed up) doesn't count.
		if r.AchievedQPS >= 0.95*step && step > sustained {
			sustained = step
		}
	}
	if len(steps) > 1 {
		if err := enc.Encode(map[string]any{"proto": c.proto, "max_sustained_qps": sustained}); err != nil {
			log.Fatal(err)
		}
	}
}

// row is one step's JSON result. A latency block maps "p50", "p90", "p99"
// and "max" to µs and is absent when its kind had no successful request.
type row struct {
	Proto       string             `json:"proto"`
	TargetQPS   float64            `json:"target_qps"`
	Sent        int                `json:"sent"`
	OK          int                `json:"ok"`
	Shed        int                `json:"shed"`
	Expired     int                `json:"expired"`
	Errors      int                `json:"errors"`
	AchievedQPS float64            `json:"achieved_qps"`
	LateP99US   float64            `json:"late_p99_us,omitempty"`
	Latency     map[string]float64 `json:"latency_us,omitempty"`
	StagesUS    map[string]float64 `json:"stages_us,omitempty"`
	MutateUS    map[string]float64 `json:"mutate_us,omitempty"`
}

// run offers qps for d — route requests at qps·(1−mutateFrac), mutations
// at qps·mutateFrac, each kind on its own harness.OpenLoop with its own
// connections — and folds the two recordings into a row.
func (c runConfig) run(qps float64, d time.Duration) (row, error) {
	rates := [2]float64{qps * (1 - c.mutateFrac), qps * c.mutateFrac}
	var pools [2][]*shooter
	for kind, rate := range rates {
		for w := 0; rate > 0 && w < c.conns; w++ {
			sh, err := c.newShooter(kind == 1)
			if err != nil {
				return row{}, err
			}
			defer sh.close()
			pools[kind] = append(pools[kind], sh)
		}
	}
	var recs [2]*harness.Recording
	var wg sync.WaitGroup
	for kind, pool := range pools {
		if pool == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop := harness.OpenLoop{Rate: rates[kind], Workers: len(pool), Rounds: 1, RoundLen: d}
			recs[kind] = loop.Run(func(w, i int) harness.Outcome { return pool[w].shoot(i) })
		}()
	}
	wg.Wait()

	out := row{Proto: c.proto, TargetQPS: qps, StagesUS: map[string]float64{}}
	var late []float64
	seconds := 0.0
	for kind, rec := range recs {
		if rec == nil {
			continue
		}
		t := rec.Tally
		out.Sent, out.OK, out.Shed = out.Sent+t.Sent, out.OK+t.OK, out.Shed+t.Shed
		out.Expired, out.Errors = out.Expired+t.Expired, out.Errors+t.Errors
		late = append(late, rec.LateUS...)
		// A round lasts until its last completion, so a backlog that ran
		// past the schedule lowers the achieved rate.
		seconds = max(seconds, rec.Rounds[0].Seconds)
		if kind == 0 {
			out.Latency = latencyBlock(rec.LatUS())
		} else {
			out.MutateUS = latencyBlock(rec.LatUS())
		}
	}
	if seconds > 0 {
		out.AchievedQPS = float64(out.OK) / seconds
	}
	if v, ok := harness.Percentile(harness.Sorted(late), 99); ok {
		out.LateP99US = v
	}
	// Against a tracing server every OK route response carries its stages,
	// so the per-stage mean is over the route requests that succeeded.
	for _, sh := range pools[0] {
		for name, ns := range sh.stageNs {
			out.StagesUS[name] += float64(ns) / float64(recs[0].Tally.OK) / 1e3
		}
	}
	return out, nil
}

// latencyBlock renders one kind's latencies, minus any unsupported tail.
func latencyBlock(us []float64) map[string]float64 {
	if len(us) == 0 {
		return nil
	}
	sorted := harness.Sorted(us)
	out := map[string]float64{"max": sorted[len(sorted)-1]}
	for _, pct := range []int{50, 90, 99} {
		if v, ok := harness.Percentile(sorted, pct); ok {
			out["p"+strconv.Itoa(pct)] = v
		}
	}
	return out
}

// shooter is one worker's connection, HTTP or binary, firing requests of
// one kind one at a time; only its worker touches it during a run.
type shooter struct {
	runConfig
	mutate bool
	http   *http.Client
	bin    *wire.Conn
	// stageNs sums the server's ns per stage name over OK route responses.
	stageNs map[string]int64
}

func (c runConfig) newShooter(mutate bool) (sh *shooter, err error) {
	sh = &shooter{runConfig: c, mutate: mutate, stageNs: map[string]int64{}}
	if c.proto == "bin" {
		sh.bin, err = wire.Dial(c.addr) // the error names the address
		return sh, err
	}
	// One transport per shooter keeps exactly one TCP connection per
	// worker, matching the bin side's pool shape.
	sh.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return sh, nil
}

func (s *shooter) close() {
	if s.bin != nil {
		s.bin.Close()
	} else {
		s.http.CloseIdleConnections()
	}
}

// outcomes classifies an answer by its HTTP-equivalent status; any other
// status, like a transport failure, is an error.
var outcomes = map[int]harness.Outcome{
	http.StatusOK:              harness.Good,
	http.StatusTooManyRequests: harness.Shed,
	http.StatusGatewayTimeout:  harness.Expired,
}

// shoot fires arrival i. A failed binary connection is redialled for the
// next arrival; if that fails too, later arrivals error the same way.
func (s *shooter) shoot(i int) harness.Outcome {
	code, err := s.exchange(i)
	if err != nil && s.bin != nil {
		s.bin.Close()
		if conn, derr := wire.Dial(s.addr); derr == nil {
			s.bin = conn
		}
	}
	if out, ok := outcomes[code]; ok { // code is 0 after a transport failure
		return out
	}
	return harness.Errored
}

// exchange sends one request of the shooter's kind and returns the
// HTTP-equivalent status. A mutation reroutes -mutate-wire with its own
// pins: always a valid batch, so writes need no coordination with reads.
func (s *shooter) exchange(i int) (int, error) {
	if s.bin != nil && s.mutate {
		resp, err := s.bin.DoMutate(&wire.Mutate{Circuit: s.circuit, Client: clientName,
			Ops: []wire.MutateOp{{Op: wire.OpReroute, WireID: s.mutateWire}}})
		if err != nil {
			return 0, err
		}
		return resp.Status.HTTPStatus(), nil
	}
	if s.bin != nil {
		resp, err := s.bin.Do(&wire.Request{Circuit: s.circuit, WireID: wireBase + i, Pins: pins,
			Traced: s.stages, Client: clientName})
		if err != nil {
			return 0, err
		}
		if resp.Status == wire.StatusOK {
			for _, p := range resp.Stages {
				s.stageNs[reqtrace.Stage(p.Stage).String()] += p.Ns
			}
		}
		return resp.Status.HTTPStatus(), nil
	}
	name, _ := json.Marshal(s.circuit) // a string always marshals
	path, body := "/v1/route", fmt.Sprintf(`{"circuit":%s,"wire":%d,"pins":%s}`, name, wireBase+i, pinsJSON)
	if s.mutate {
		path, body = "/v1/mutate", fmt.Sprintf(`{"circuit":%s,"ops":[{"op":"reroute","wire":%d}]}`, name, s.mutateWire)
	}
	req, err := http.NewRequest(http.MethodPost, "http://"+s.addr+path, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("X-Client", clientName)
	resp, err := s.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	// A tracing server puts the stage breakdown in every route response.
	var doc struct {
		Stages []struct {
			Stage string
			Ns    int64
		}
	}
	if s.stages && !s.mutate && resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&doc) == nil {
		for _, sp := range doc.Stages {
			s.stageNs[sp.Stage] += sp.Ns
		}
	}
	// Drain so the connection is reused; any undecoded rest is not needed.
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}
