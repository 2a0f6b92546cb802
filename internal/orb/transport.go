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
// wraps any Transport to inject faults — latency, drops, resets, one-way
// partitions — for resilience testing; the failure surface the wrapped
// transport produces is exactly what a flaky network would produce, so the
// client stack above it cannot tell the difference.
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
// A Conn may additionally implement optional fast-path extensions the
// wire path probes for: frameBatchWriter (one gather write for a batch of
// complete frames — the write-coalescing path), frameReuseReader (reads
// into a caller-recycled buffer — the pooled-read path) and laneConn
// (exclusive lanes). Plain Conns still work; they pay one syscall pair
// and one allocation per frame, and every call is multiplexed.
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

// frameBatchWriter is the optional Conn extension behind write
// coalescing: WriteFrames sends a batch of complete frames (u32 length
// prefix included in each buffer) in a single gather write, so concurrent
// callers multiplexed onto one connection share one syscall. The
// implementation may consume (re-slice) bufs. ChaosTransport connections
// deliberately do not implement it — faults are per frame, so chaos runs
// take the WriteFrame path.
type frameBatchWriter interface {
	// WriteFrames consumes *bufs (net.Buffers.WriteTo re-slices it); the
	// caller passes a scratch header copy so its backing array survives.
	WriteFrames(bufs *net.Buffers) error
}

// frameReuseReader is the optional Conn extension behind pooled frame
// reads: ReadFrameReuse reads the next frame into buf, growing it only
// when the frame exceeds its capacity, and returns the filled slice. The
// caller owns the buffer's lifecycle (the ORB recycles it once the frame
// is fully consumed).
type frameReuseReader interface {
	ReadFrameReuse(buf []byte) ([]byte, error)
}

// laneConn is the optional Conn extension behind exclusive lanes
// (client.go): a connection one call at a time writes its request to and
// reads its own reply from. Besides the batch-write and reuse-read paths
// it needs a deadline, for callers whose context cannot be cancelled,
// and idleBroken: a non-blocking check, on an idle connection, that the
// peer has not closed or reset it and that no unasked-for bytes arrived.
// Nothing reads an idle lane, so this check is how the pool learns its
// peer went away. TCPTransport connections implement it where the
// platform can peek a socket without blocking (lane_peek.go);
// ChaosTransport connections do not — faults are per frame, so chaos
// runs keep every call on the multiplexed path.
type laneConn interface {
	Conn
	frameBatchWriter
	frameReuseReader
	SetDeadline(t time.Time) error
	idleBroken() bool
}

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
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpConn{c: nc, br: bufio.NewReaderSize(nc, tcpReadBuffer)}, nil
}

// tcpConn frames a net.Conn.
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

func (c *tcpConn) WriteFrame(payload []byte) error { return writeFrame(c.c, payload) }
func (c *tcpConn) ReadFrame() ([]byte, error)      { return readFrame(c.br) }
func (c *tcpConn) Close() error                    { return c.c.Close() }

// SetDeadline bounds the connection's reads and writes (laneConn).
func (c *tcpConn) SetDeadline(t time.Time) error { return c.c.SetDeadline(t) }

// WriteFrames implements frameBatchWriter with one writev(2) for the
// whole batch.
func (c *tcpConn) WriteFrames(bufs *net.Buffers) error {
	_, err := bufs.WriteTo(c.c)
	return err
}

// ReadFrameReuse implements frameReuseReader.
func (c *tcpConn) ReadFrameReuse(buf []byte) ([]byte, error) {
	return readFrameInto(c.br, buf)
}
