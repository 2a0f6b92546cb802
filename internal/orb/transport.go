package orb

import (
	"bufio"
	"context"
	"net"
	"syscall"
	"time"
)

// Transport dials the framed byte streams the ORB's client side runs on.
// The ORB multiplexes concurrent requests over a bounded pool of transport
// connections per endpoint (see client.go); a Transport only supplies the
// connections themselves, so the pooling, reconnect and health machinery is
// shared by every implementation.
//
// TCPTransport is the production implementation. ChaosTransport (chaos.go)
// wraps its TCP connections to inject faults — latency, drops, resets,
// one-way partitions — for resilience testing; the failure surface it
// produces is exactly what a flaky network would produce, so the client
// stack above it, lanes included, cannot tell the difference.
type Transport interface {
	// Dial opens a framed connection to addr ("host:port"). It honours
	// ctx's deadline and cancellation.
	Dial(ctx context.Context, addr string) (Conn, error)
}

// Conn is one framed, full-duplex transport connection. ReadFrame may be
// called concurrently with WriteFrame (the reply reader runs while
// writes are in flight), but the ORB serializes all writes on one
// connection through its combining frame writer itself (writer.go).
// Close must unblock both directions.
//
// The ORB runs on a wireConn. A Conn that is not one (a Transport outside
// this package) is adapted by plainConn: it pays one WriteFrame per frame
// and one allocation per read, and every call on it is multiplexed.
type Conn interface {
	// WriteFrame sends one frame (the payload, excluding the length
	// prefix).
	WriteFrame(payload []byte) error
	// ReadFrame receives the next frame. The returned slice is a fresh
	// allocation owned by the caller.
	ReadFrame() ([]byte, error)
	// Close tears the connection down.
	Close() error
}

// wireConn is the connection the ORB runs on at both ends of the wire;
// tcpConn and chaosConn implement it.
type wireConn interface {
	// WriteFrames sends complete frames (length prefix included),
	// consuming *bufs as net.Buffers.WriteTo does: after a failure *bufs
	// holds the frames that did not fully leave.
	WriteFrames(bufs *net.Buffers) error
	// ReadFrameReuse reads the next frame into buf, growing it if need
	// be; the caller owns the buffer's lifecycle.
	ReadFrameReuse(buf []byte) ([]byte, error)
	SetDeadline(t time.Time) error
	// idleBroken reports, without blocking, that an idle lane's peer
	// closed or reset it, or sent bytes no request asked for.
	idleBroken() bool
	Close() error
}

// asWire returns the wireConn a dialed Conn runs on, and whether it may
// be a lane: any other Conn is wrapped in plainConn, which never is.
func asWire(c Conn) (wireConn, bool) {
	if w, ok := c.(wireConn); ok {
		return w, true
	}
	return plainConn{c}, false
}

// plainConn adapts a Conn that only frames one payload at a time.
type plainConn struct{ Conn }

// WriteFrames writes one frame at a time, consuming each as it is
// accepted, so a failure leaves exactly the unsent frames in *bufs.
func (c plainConn) WriteFrames(bufs *net.Buffers) error {
	for ; len(*bufs) > 0; *bufs = (*bufs)[1:] {
		if err := c.WriteFrame((*bufs)[0][4:]); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrameReuse returns ReadFrame's fresh frame in place of buf.
func (c plainConn) ReadFrameReuse([]byte) ([]byte, error) { return c.ReadFrame() }

// SetDeadline is never called: a plainConn is never a lane.
func (plainConn) SetDeadline(time.Time) error { return nil }
func (plainConn) idleBroken() bool            { return true }

// TCPTransport is the real client transport: length-prefixed GLOP frames
// over plain TCP, with buffered reads (adjacent frames arriving together
// cost one syscall) and vectored batch writes. The zero value is ready to
// use.
type TCPTransport struct{}

// tcpReadBuffer is the bufio read buffer per TCP connection: large enough
// that a burst of small coalesced frames — or one 4KB-body frame plus
// headers — drains in one read(2).
const tcpReadBuffer = 16 << 10

// Dial implements Transport.
func (TCPTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	nc, err := new(net.Dialer).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}

// tcpConn frames a TCP socket, dialed or accepted.
type tcpConn struct {
	c  net.Conn
	br *bufio.Reader

	// The idle peek's raw socket and its callback, made on first use so
	// that each later peek allocates nothing; peekBroken is its result.
	// Only the pool's idle-lane checks use them, one at a time.
	rc         syscall.RawConn
	peek       func(fd uintptr)
	peekBroken bool
}

func newTCPConn(nc net.Conn) *tcpConn {
	return &tcpConn{c: nc, br: bufio.NewReaderSize(nc, tcpReadBuffer)}
}

func (c *tcpConn) WriteFrame(payload []byte) error { return writeFrame(c.c, payload) }
func (c *tcpConn) ReadFrame() ([]byte, error)      { return readFrameInto(c.br, nil) }
func (c *tcpConn) Close() error                    { return c.c.Close() }

// SetDeadline implements wireConn.
func (c *tcpConn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// WriteFrames implements wireConn with one writev(2) for the whole batch.
func (c *tcpConn) WriteFrames(bufs *net.Buffers) error {
	_, err := bufs.WriteTo(c.c)
	return err
}

// ReadFrameReuse implements wireConn.
func (c *tcpConn) ReadFrameReuse(buf []byte) ([]byte, error) {
	return readFrameInto(c.br, buf)
}
