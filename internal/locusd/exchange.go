package locusd

// What both transports share once they have decoded a request: one
// function per verb and one rendering of every refusal. Decoding and
// encoding stay with each transport (http.go, tcp.go); nothing in between
// does. Only route has plumbing of its own (deadline, client identity,
// refusal count); the lifecycle verbs are the Server methods themselves —
// UploadCircuit, Mutate and EvictCircuit.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"
	"unicode/utf8"

	"locusroute/internal/policy"
	"locusroute/internal/store"
	"locusroute/internal/wire"
)

// maxDeadlineMillis is the largest deadline_ms a time.Duration can hold.
const maxDeadlineMillis = int64(math.MaxInt64 / time.Millisecond)

// route is the route verb. bad is the transport's decoding failure (nil
// when req decoded), deadlineMillis the request's deadline_ms (0 = the
// server default, applied by Route) and peer the remote address, the
// client the trace records when the request names none. Every refused route
// request is counted exactly once: as rejected here when it never reaches
// Route — malformed, or a deadline_ms that would wrap a time.Duration to
// an instant expiry (rejected, never clamped) — and by Route's settle
// otherwise.
func (s *Server) route(ctx context.Context, req RouteRequest, deadlineMillis int64, peer string, bad error) (RouteResponse, error) {
	if bad == nil && deadlineMillis > maxDeadlineMillis {
		bad = fmt.Errorf("locusd: deadline_ms %d exceeds %d", deadlineMillis, maxDeadlineMillis)
	}
	if bad != nil {
		s.count(&s.met.rejected)
		return RouteResponse{}, bad
	}
	if deadlineMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(deadlineMillis)*time.Millisecond)
		defer cancel()
	}
	if req.Client == "" {
		req.Client = peer
		if host, _, err := net.SplitHostPort(peer); err == nil {
			req.Client = host
		}
	}
	return s.Route(ctx, req)
}

// opKind parses a mutation op's name. The names are store.OpKind's
// String — the one spelling of each protocol op code on both transports.
func opKind(name string) (store.OpKind, error) {
	for k := store.OpAdd; k <= store.OpReroute; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown op %q (want add, remove or reroute)", name)
}

// errBodyTooLarge marks a JSON document over wire.MaxFrame ("request
// body over N bytes"): HTTP answers it 413, the one refusal the binary
// transport never renders — it drops an oversized frame while framing.
var errBodyTooLarge = errors.New("request body")

// refusal is a refused request as both transports answer it.
type refusal struct {
	status     wire.Status
	code       int // the HTTP status: status's own, or 413 for errBodyTooLarge
	retryAfter int // Retry-After seconds, 0 for none
	// msg is the error's text, cut to wire.MaxMessage bytes on a UTF-8
	// boundary: client-chosen circuit names can make an error longer than
	// a binary frame carries, and both transports carry the same words.
	msg string
}

// refuse is the one rendering of a service, store, policy or decoding
// error, from classify's status and Retry-After.
func (s *Server) refuse(err error) refusal {
	status, retryAfter := s.classify(err)
	rf := refusal{status: status, code: status.HTTPStatus(), retryAfter: retryAfter, msg: err.Error()}
	if errors.Is(err, errBodyTooLarge) {
		rf.code = http.StatusRequestEntityTooLarge
	}
	if len(rf.msg) > wire.MaxMessage {
		cut := wire.MaxMessage
		for cut > 0 && !utf8.RuneStart(rf.msg[cut]) {
			cut--
		}
		rf.msg = rf.msg[:cut]
	}
	return rf
}

// classify is the service's one error→status table: the protocol status
// both transports report for a service, store or policy error (HTTP
// through wire.Status.HTTPStatus) and the Retry-After seconds a
// backpressure status owes the client, 0 for none — the estimated
// backlog drain time for gate sheds and criticality evictions (queue
// state, not a constant). Anything unrecognised — validation and
// decoding errors above all — is a bad request.
func (s *Server) classify(err error) (status wire.Status, retryAfterSeconds int) {
	switch {
	case errors.Is(err, ErrShed), errors.Is(err, policy.ErrEvicted):
		return wire.StatusShed, s.RetryAfterSeconds()
	case errors.Is(err, ErrDraining):
		return wire.StatusDraining, 0
	case errors.Is(err, ErrDeadline):
		return wire.StatusDeadline, 0
	case errors.Is(err, ErrUnknownCircuit), errors.Is(err, store.ErrUnknown):
		return wire.StatusUnknownCircuit, 0
	case errors.Is(err, ErrCircuitExists), errors.Is(err, ErrImmutable):
		return wire.StatusConflict, 0
	case errors.Is(err, store.ErrStoreFull):
		return wire.StatusStoreFull, 0
	}
	return wire.StatusBadRequest, 0
}

// ceilSeconds rounds a duration up to whole seconds, minimum 1 — the
// Retry-After header's unit.
func ceilSeconds(d time.Duration) int {
	secs := int((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}
