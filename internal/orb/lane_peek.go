//go:build linux || darwin

package orb

import "syscall"

// lanesSupported: exclusive lanes need idleBroken's non-blocking peek.
const lanesSupported = true

// idleBroken implements wireConn: it reports whether an idle connection
// can no longer carry a call. Bytes already buffered, or readable on the
// socket, were asked for by no request; a zero-byte peek is the peer's
// FIN; any error but "nothing to read" is a reset or a dead socket. The
// peek neither blocks nor consumes, and runs through RawConn.Control so
// that a read deadline left by the last call cannot refuse it.
func (c *tcpConn) idleBroken() bool {
	if c.br.Buffered() > 0 {
		return true
	}
	if c.peek == nil {
		sc, ok := c.c.(syscall.Conn)
		if !ok {
			return false
		}
		rc, err := sc.SyscallConn()
		if err != nil {
			return true
		}
		c.rc = rc
		c.peek = func(fd uintptr) {
			var b [1]byte
			n, _, err := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
			c.peekBroken = n > 0 || (err == nil && n == 0) ||
				(err != nil && err != syscall.EAGAIN && err != syscall.EINTR)
		}
	}
	if err := c.rc.Control(c.peek); err != nil {
		return true
	}
	return c.peekBroken
}
