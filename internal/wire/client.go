package wire

import (
	"bufio"
	"fmt"
	"net"
)

// Conn is a client connection speaking the binary protocol: one
// request/response exchange at a time, with both directions' buffers
// reused across calls so the steady state is allocation-free. It is not
// safe for concurrent use; give each worker its own Conn, as
// benchmark/harness and cmd/locusload do.
type Conn struct {
	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte
	rbuf []byte
}

// Dial connects to a locusd binary listener.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// NewConn wraps an established connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReader(nc)}
}

// Do sends one request and reads its response. A transport or framing
// error leaves the connection unusable; protocol-level failures arrive
// as a Response with a non-OK Status, not an error.
func (c *Conn) Do(req *Request) (*Response, error) {
	payload, err := c.roundTrip(func(dst []byte) ([]byte, error) { return AppendRequest(dst, req) })
	if err != nil {
		return nil, err
	}
	return DecodeResponse(payload)
}

// DoUpload sends one circuit upload and reads its admin response.
func (c *Conn) DoUpload(u *Upload) (*AdminResponse, error) {
	return c.admin(func(dst []byte) ([]byte, error) { return AppendUpload(dst, u) })
}

// DoMutate sends one mutation batch and reads its admin response.
func (c *Conn) DoMutate(m *Mutate) (*AdminResponse, error) {
	return c.admin(func(dst []byte) ([]byte, error) { return AppendMutate(dst, m) })
}

// DoEvict sends one eviction and reads its admin response.
func (c *Conn) DoEvict(e *Evict) (*AdminResponse, error) {
	return c.admin(func(dst []byte) ([]byte, error) { return AppendEvict(dst, e) })
}

// admin runs one lifecycle exchange.
func (c *Conn) admin(payload func([]byte) ([]byte, error)) (*AdminResponse, error) {
	reply, err := c.roundTrip(payload)
	if err != nil {
		return nil, err
	}
	return DecodeAdminResponse(reply)
}

// roundTrip frames and writes one payload and reads the reply's.
func (c *Conn) roundTrip(payload func([]byte) ([]byte, error)) ([]byte, error) {
	buf, err := appendFrame(c.wbuf[:0], payload)
	if err != nil {
		return nil, err
	}
	c.wbuf = buf
	if _, err := c.nc.Write(buf); err != nil {
		return nil, fmt.Errorf("wire: write request: %w", err)
	}
	reply, err := ReadFrame(c.br, c.rbuf)
	if err != nil {
		return nil, fmt.Errorf("wire: read response: %w", err)
	}
	c.rbuf = reply
	return reply, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }
