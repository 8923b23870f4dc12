package locusd

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"locusroute/internal/circuit"
	"locusroute/internal/store"
	"locusroute/internal/wire"
)

// TCPServer serves the binary route protocol (internal/wire) on raw TCP,
// funneling every frame into the same Server.Route core as the JSON
// endpoints — the two transports differ only in encoding cost, which is
// the point: BENCHMARK.json's tcp.roundtrip_p50_us and tcp.outside_us
// against their http.* twins measure that difference (cmd/locusload
// sweeps it under load), echoing the paper's finding that message
// packing, not compute, dominates the MP router.
//
// The lifecycle mirrors net/http.Server: Serve blocks on a listener,
// Shutdown stops accepting, interrupts idle connections, and waits for
// in-flight exchanges to write their responses.
type TCPServer struct {
	s *Server

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[net.Conn]struct{}
	handlers  sync.WaitGroup
	draining  atomic.Bool
}

// NewTCPServer wraps s with the binary transport.
func NewTCPServer(s *Server) *TCPServer {
	return &TCPServer{
		s:         s,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[net.Conn]struct{}),
	}
}

// ErrTCPServerClosed reports a Serve loop ended by Shutdown, the analog
// of http.ErrServerClosed.
var ErrTCPServerClosed = errors.New("locusd: tcp server closed")

// Serve accepts connections on l until Shutdown. Each connection is one
// sequential request/response stream (the client pipelines by pooling
// connections, not frames).
func (t *TCPServer) Serve(l net.Listener) error {
	t.mu.Lock()
	if t.draining.Load() {
		t.mu.Unlock()
		l.Close()
		return ErrTCPServerClosed
	}
	t.listeners[l] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.listeners, l)
		t.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			if t.draining.Load() {
				return ErrTCPServerClosed
			}
			return err
		}
		t.mu.Lock()
		if t.draining.Load() {
			t.mu.Unlock()
			nc.Close()
			return ErrTCPServerClosed
		}
		t.conns[nc] = struct{}{}
		t.handlers.Add(1)
		t.mu.Unlock()
		go func() {
			defer t.handlers.Done()
			t.serveConn(nc)
			t.mu.Lock()
			delete(t.conns, nc)
			t.mu.Unlock()
			nc.Close()
		}()
	}
}

// Shutdown stops accepting, wakes connections blocked reading their next
// frame, and waits for in-flight exchanges to finish writing. If ctx
// expires first the remaining connections are force-closed.
func (t *TCPServer) Shutdown(ctx context.Context) error {
	t.draining.Store(true)
	t.mu.Lock()
	for l := range t.listeners {
		l.Close()
	}
	// A connection parked in ReadFrame holds no request; an expired read
	// deadline returns it an error, and the drain check in its loop exits
	// it cleanly. A connection mid-exchange ignores this until its next
	// read, after its response is written.
	for nc := range t.conns {
		nc.SetReadDeadline(time.Now())
	}
	t.mu.Unlock()

	done := make(chan struct{})
	go func() { t.handlers.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		t.mu.Lock()
		for nc := range t.conns {
			nc.Close()
		}
		t.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// serveConn drains one connection's frame stream. Framing and transport
// errors end the stream; a payload that frames correctly but fails to
// decode is refused with StatusBadRequest and the stream continues, the
// TCP analog of HTTP's per-request 400.
func (t *TCPServer) serveConn(nc net.Conn) {
	br := bufio.NewReader(nc)
	bw := bufio.NewWriter(nc)
	var rbuf, wbuf []byte
	peer := nc.RemoteAddr().String()
	for {
		payload, err := wire.ReadFrame(br, rbuf)
		if err != nil {
			// io.EOF at a frame boundary is the clean goodbye; everything
			// else (torn frame, oversized prefix, read-deadline wake) just
			// ends the stream — there is no frame to answer.
			return
		}
		rbuf = payload
		// Lifecycle frames answer with the admin response kind, refusals
		// (undecodable payloads included) rendered like a route request's;
		// everything else (route requests, and garbage the decoders will
		// reject) stays on the route response path.
		switch wire.PayloadKind(payload) {
		case wire.KindUpload, wire.KindMutate, wire.KindEvict:
			aresp, lerr := t.lifecycle(payload)
			if lerr != nil {
				rf := t.s.refuse(lerr)
				aresp = wire.AdminResponse{Status: rf.status, RetryAfterSeconds: rf.retryAfter, Message: rf.msg}
			}
			wbuf, err = wire.AppendAdminResponseFrame(wbuf[:0], &aresp)
		default:
			resp := t.route(payload, peer)
			wbuf, err = wire.AppendResponseFrame(wbuf[:0], &resp)
		}
		if err != nil {
			// Response fields out of protocol domain (cannot happen for
			// Route outputs); nothing sane to send.
			return
		}
		if _, err := bw.Write(wbuf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
		if t.draining.Load() {
			// In-flight response written; don't start another exchange
			// during drain.
			return
		}
	}
}

// route decodes one route payload, runs the route verb, and builds the
// response frame's fields.
func (t *TCPServer) route(payload []byte, peer string) wire.Response {
	req, err := wire.DecodeRequest(payload)
	if err != nil {
		req = &wire.Request{}
	}
	resp, err := t.s.route(context.Background(), RouteRequest{
		Circuit: req.Circuit,
		Wire:    circuit.Wire{ID: req.WireID, Pins: req.Pins},
		Commit:  req.Commit,
		Client:  req.Client,
		TraceID: req.TraceID,
	}, req.DeadlineMillis, peer, err)
	out := wire.Response{
		Status:        wire.StatusOK,
		Shard:         resp.Shard,
		WireID:        resp.WireID,
		Cost:          resp.Cost,
		PathCells:     resp.PathCells,
		CellsExamined: resp.CellsExamined,
		BatchSize:     resp.BatchSize,
		BatchIndex:    resp.BatchIndex,
		Committed:     resp.Committed,
		Cached:        resp.Cached,
		WaitMicros:    resp.WaitMicros,
	}
	if err != nil {
		rf := t.s.refuse(err)
		out = wire.Response{Status: rf.status, RetryAfterSeconds: rf.retryAfter, Message: rf.msg}
	}
	// A traced request gets a traced answer even when refused, so the id
	// the client correlates on is never dropped by an error. With tracing
	// off server-side there is no id, and the answer is untraced — its
	// absence tells the client tracing was off.
	if req.Traced && resp.RequestID != "" {
		out.Traced = true
		out.RequestID = resp.RequestID
		out.Stages = make([]wire.StagePair, len(resp.Stages))
		for i, st := range resp.Stages {
			out.Stages[i] = wire.StagePair{Stage: st.Code, Ns: st.Ns}
		}
	}
	return out
}

// lifecycle decodes one lifecycle frame and runs its verb.
func (t *TCPServer) lifecycle(payload []byte) (wire.AdminResponse, error) {
	switch wire.PayloadKind(payload) {
	case wire.KindUpload:
		u, err := wire.DecodeUpload(payload)
		if err != nil {
			return wire.AdminResponse{}, err
		}
		info, err := t.s.UploadCircuit(store.CircuitFromUpload(u))
		return wire.AdminResponse{Epoch: info.Epoch, Wires: info.Wires}, err
	case wire.KindMutate:
		m, err := wire.DecodeMutate(payload)
		if err != nil {
			return wire.AdminResponse{}, err
		}
		res, err := t.s.Mutate(MutateRequest{Circuit: m.Circuit, Ops: store.FromWireOps(m.Ops)})
		if err != nil {
			return wire.AdminResponse{}, err
		}
		out := wire.AdminResponse{Epoch: res.Epoch, Wires: res.Wires}
		for _, r := range res.Results {
			op, _ := opKind(r.Op)
			out.Results = append(out.Results, wire.OpOutcome{Op: uint8(op), WireID: r.WireID,
				Cost: r.Cost, PathCells: r.PathCells, CellsExamined: r.CellsExamined})
		}
		return out, nil
	default: // wire.KindEvict — the only other kind dispatched here
		e, err := wire.DecodeEvict(payload)
		if err != nil {
			return wire.AdminResponse{}, err
		}
		return wire.AdminResponse{}, t.s.EvictCircuit(e.Circuit)
	}
}
