//go:build !(linux || darwin)

package orb

// lanesSupported is false where a socket cannot be peeked without
// blocking (idleBroken), so every call is multiplexed.
const lanesSupported = false

func (c *tcpConn) idleBroken() bool { return true }
