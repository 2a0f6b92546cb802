package orb

import (
	"context"
	"errors"
	"net"
	"os"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// laneSweepEvery is the period of an ORB's idle-lane sweep. Nothing reads
// an idle lane, so without the sweep a lane whose peer went away would
// stay counted in EndpointStats until the next call's checkout peek.
const laneSweepEvery = 100 * time.Millisecond

// lane is an exclusive connection: one call at a time writes its request,
// marked sole, and reads its own reply on its own goroutine — no read
// loop, no reply channel, no writer queue — and the server dispatches
// the request on the connection's read loop (server.go). The pool hands a
// lane to one caller at a time (endpointPool.get) and takes it back after
// a clean round trip; a lane abandoned mid-call (cancelled, timed out,
// broken) is closed, never reused, since its late reply could otherwise
// answer the next call.
type lane struct {
	pool *endpointPool
	c    wireConn

	bufs    [1][]byte   // the request frame, for the gather write
	scratch net.Buffers // header over bufs, consumed by WriteFrames
	abort   func()      // closes c; made once, so AfterFunc allocates no closure
	timed   bool        // c carries a deadline from the last call
}

func newLane(p *endpointPool, c wireConn) *lane {
	l := &lane{pool: p, c: c}
	l.abort = func() { l.c.Close() }
	return l
}

// invoke runs one call on the lane: write the sole request, read its own
// reply, and give the lane back. A caller whose context can be cancelled
// gets a context.AfterFunc that closes the lane, which unblocks the write
// or read; one whose context cannot (Done() == nil) is bounded by the
// call deadline alone, set on the socket.
func (l *lane) invoke(ctx context.Context, deadline time.Time, req request) ([]byte, error) {
	// SetDeadline fails only on a closed connection, which the write
	// below reports.
	var stop func() bool
	if ctx.Done() != nil {
		stop = context.AfterFunc(ctx, l.abort)
		if l.timed {
			_ = l.c.SetDeadline(time.Time{})
			l.timed = false
		}
	} else if !deadline.IsZero() || l.timed {
		_ = l.c.SetDeadline(deadline)
		l.timed = !deadline.IsZero()
	}

	enc := encodeRequestFrame(req)
	l.bufs[0] = enc.Frame()
	l.scratch = l.bufs[:]
	err := l.c.WriteFrames(&l.scratch)
	unsent := len(l.scratch) > 0 // a partial frame cannot be parsed: the servant never ran
	l.bufs[0], l.scratch = nil, nil
	cdr.PutEncoder(enc)

	var rep reply
	if err == nil {
		if rep, err = readReply(l.c); err == nil && rep.requestID != req.requestID {
			rep.release()
			err = errors.New("reply to another request")
		}
	}
	if stop != nil && !stop() && err == nil {
		// The AfterFunc has started: the lane is being closed under us.
		rep.release()
		err = ctx.Err()
	}
	if err != nil {
		l.pool.dropLane(l)
		switch {
		case ctx.Err() != nil:
			return nil, timeoutError(req.operation, l.pool.endpoint, ctx.Err())
		case errors.Is(err, os.ErrDeadlineExceeded):
			return nil, timeoutError(req.operation, l.pool.endpoint, context.DeadlineExceeded)
		case unsent:
			return nil, Systemf(CodeTransient, "request not sent: connection to %s lost", l.pool.endpoint)
		default:
			return nil, Systemf(CodeCommFailure, "connection to %s lost", l.pool.endpoint)
		}
	}
	l.pool.putLane(l)
	if stop != nil && ctx.Err() != nil {
		// The reply came, but only after the caller's deadline: a late
		// success must not be reported as if it met it.
		rep.release()
		return nil, timeoutError(req.operation, l.pool.endpoint, ctx.Err())
	}
	return replyToResult(rep)
}

// takeIdleLocked checks out the most recently returned idle lane, closing
// any whose peer went away (wireConn.idleBroken) on the way. It returns
// nil when no live idle lane is left.
func (p *endpointPool) takeIdleLocked() *lane {
	for n := len(p.idle); n > 0; n = len(p.idle) {
		l := p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
		if !l.c.idleBroken() {
			return l
		}
		p.removeLaneLocked(l)
		l.c.Close()
	}
	return nil
}

// putLane returns a lane after a clean round trip.
func (p *endpointPool) putLane(l *lane) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		l.c.Close()
		return
	}
	p.idle = append(p.idle, l)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// dropLane closes an abandoned or broken lane and frees its slot.
func (p *endpointPool) dropLane(l *lane) {
	l.c.Close()
	p.mu.Lock()
	p.removeLaneLocked(l)
	p.cond.Broadcast()
	p.mu.Unlock()
}

// removeLaneLocked takes l out of the open lanes, if it is still there.
func (p *endpointPool) removeLaneLocked(l *lane) {
	for i, pl := range p.lanes {
		if pl == l {
			p.lanes = append(p.lanes[:i], p.lanes[i+1:]...)
			return
		}
	}
}

// sweepIdle closes every idle lane whose peer went away.
func (p *endpointPool) sweepIdle() {
	p.mu.Lock()
	defer p.mu.Unlock()
	kept := p.idle[:0]
	for _, l := range p.idle {
		if l.c.idleBroken() {
			p.removeLaneLocked(l)
			l.c.Close()
			continue
		}
		kept = append(kept, l)
	}
	clear(p.idle[len(kept):])
	if len(kept) < len(p.idle) {
		p.cond.Broadcast()
	}
	p.idle = kept
}

// armLaneSweep starts the ORB's idle-lane sweep when its first lane is
// dialed; from then on the sweep runs every laneSweepEvery until
// Shutdown, so an ORB that never dials a lane keeps no timer.
func (o *ORB) armLaneSweep() {
	o.connMu.Lock()
	defer o.connMu.Unlock()
	if o.sweep == nil && !o.poolsClosed {
		o.sweep = time.AfterFunc(laneSweepEvery, o.sweepLanes)
	}
}

// sweepLanes is one round of the idle-lane sweep.
func (o *ORB) sweepLanes() {
	o.connMu.Lock()
	pools := make([]*endpointPool, 0, len(o.pools))
	for _, p := range o.pools {
		pools = append(pools, p)
	}
	o.connMu.Unlock()
	for _, p := range pools {
		p.sweepIdle()
	}
	o.connMu.Lock()
	defer o.connMu.Unlock()
	if !o.poolsClosed {
		o.sweep.Reset(laneSweepEvery)
	}
}
