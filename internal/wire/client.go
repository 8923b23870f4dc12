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
	buf, err := AppendRequestFrame(c.wbuf[:0], req)
	if err != nil {
		return nil, err
	}
	c.wbuf = buf
	if _, err := c.nc.Write(buf); err != nil {
		return nil, fmt.Errorf("wire: write request: %w", err)
	}
	payload, err := ReadFrame(c.br, c.rbuf)
	if err != nil {
		return nil, fmt.Errorf("wire: read response: %w", err)
	}
	c.rbuf = payload
	return DecodeResponse(payload)
}

// DoUpload sends one circuit upload and reads its admin response.
func (c *Conn) DoUpload(u *Upload) (*AdminResponse, error) {
	return c.admin(func(dst []byte) ([]byte, error) { return AppendUploadFrame(dst, u) })
}

// DoMutate sends one mutation batch and reads its admin response.
func (c *Conn) DoMutate(m *Mutate) (*AdminResponse, error) {
	return c.admin(func(dst []byte) ([]byte, error) { return AppendMutateFrame(dst, m) })
}

// DoEvict sends one eviction and reads its admin response.
func (c *Conn) DoEvict(e *Evict) (*AdminResponse, error) {
	return c.admin(func(dst []byte) ([]byte, error) { return AppendEvictFrame(dst, e) })
}

// admin runs one lifecycle exchange: frame, write, read, decode.
func (c *Conn) admin(frame func([]byte) ([]byte, error)) (*AdminResponse, error) {
	buf, err := frame(c.wbuf[:0])
	if err != nil {
		return nil, err
	}
	c.wbuf = buf
	if _, err := c.nc.Write(buf); err != nil {
		return nil, fmt.Errorf("wire: write request: %w", err)
	}
	payload, err := ReadFrame(c.br, c.rbuf)
	if err != nil {
		return nil, fmt.Errorf("wire: read response: %w", err)
	}
	c.rbuf = payload
	return DecodeAdminResponse(payload)
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.nc.Close() }
