package orb

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// adminInflight bounds concurrent admission-bypassing admin dispatches
// per listener; admin requests beyond it fall through to the normal
// admission gate, so a flood of "orb-admin" frames cannot void the
// bounded-goroutine guarantee WithMaxInflight provides.
const adminInflight = 4

// replyQueueDepth bounds the per-connection reply queue feeding the
// combining frame writer. Handlers block on a full queue (backpressure
// toward the slow client); the read loop never does — its admission
// sheds are enqueued non-blocking and dropped when the queue is full,
// exactly the cases where the client has stopped draining its socket and
// could never receive the shed anyway.
const replyQueueDepth = 64

// server is the TCP request transport.
type server struct {
	orb      *ORB
	ln       net.Listener
	adm      *admission    // nil = unbounded dispatch
	adminSem chan struct{} // bypass slots for admin scrapes (see serveConn)

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
	wg    sync.WaitGroup

	// baseCtx parents every dispatch on this listener; stop cancels it so
	// long-poll servants (e.g. the shard-map watch) unpark instead of
	// holding shutdown for their full poll round.
	baseCtx context.Context
	cancel  context.CancelFunc
}

// Listen starts accepting invocations on addr (e.g. "127.0.0.1:0") and
// returns the bound endpoint in "tcp:host:port" form. Listen may be called
// multiple times: every listener serves the same object adapter, all of
// them share one admission gate (WithMaxInflight bounds the ORB, not each
// listener), and IORs issued after the calls carry every bound endpoint as
// a profile — the multi-profile references clients fail over across.
func (o *ORB) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("orb: listen %s: %w", addr, err)
	}
	bound := "tcp:" + ln.Addr().String()

	o.mu.Lock()
	if o.shutdown {
		o.mu.Unlock()
		ln.Close()
		return "", Systemf(CodeCommFailure, "orb shut down")
	}
	if len(o.srvs) == 0 {
		o.adm = newAdmission(o.maxInflight, o.prioReserve)
	}
	srv := &server{
		orb:      o,
		ln:       ln,
		adm:      o.adm,
		adminSem: make(chan struct{}, adminInflight),
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	srv.baseCtx, srv.cancel = context.WithCancel(context.Background())
	o.srvs = append(o.srvs, srv)
	o.bound = append(o.bound, bound)
	o.mu.Unlock()

	srv.wg.Add(1)
	go srv.acceptLoop()
	return bound, nil
}

func (s *server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			// Transient accept errors: keep serving until stopped.
			continue
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// serveConn is one connection's read loop, over the same tcpConn framing
// a client dials. All replies flow through a combining frameWriter
// (writer.go) over a bounded queue of pooled frame encoders: handlers
// enqueue their reply and drain the queue themselves into vectored
// writes, coalescing with concurrent handlers' replies.
// A multiplexed request runs on a handler goroutine, so the loop never
// waits on a servant or a reply write: its admission sheds are enqueued
// non-blocking and flushed by a small dedicated kicker goroutine, so a
// reply write stalled on a client that has stopped draining its socket
// never blocks frame reads (and with them the fast shedding). A sole
// request — an exclusive lane's, whose connection carries nothing else
// until the reply leaves — is admitted the same way but runs, reply write
// included, on the loop itself. Request frames are read into pooled
// buffers; the handler that dispatched a request releases its buffer
// after the reply is encoded — the decoded body and service-context data
// are lent from the buffer, which is why servants must cdr.Clone anything
// they retain.
func (s *server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	tc := newTCPConn(conn)
	w := newFrameWriter(replyQueueDepth, tc, func([]*cdr.Encoder) {}) // an unsent reply has no caller here to fail
	// The kicker only serves the admission-shed path (the default branch
	// below, reachable only with a gate configured); an unbounded server
	// skips the goroutine entirely.
	var kick chan struct{}
	kickerDone := make(chan struct{})
	if s.adm != nil {
		kick = make(chan struct{}, 1)
		go func() {
			defer close(kickerDone)
			for range kick {
				w.combine()
			}
		}()
	} else {
		close(kickerDone)
	}
	// LIFO with the reqWG.Wait below: handlers finish enqueueing, a final
	// combine flushes any sheds still queued, the kicker exits, and only
	// then does the deferred conn.Close above run — so a client that
	// half-closed after its last request still receives every reply.
	defer func() {
		w.combine()
		if kick != nil {
			close(kick)
		}
		<-kickerDone
	}()
	var reqWG sync.WaitGroup
	defer reqWG.Wait()

	for {
		fb := getFrameBuf()
		var err error
		if fb.b, err = tc.ReadFrameReuse(fb.b); err != nil {
			putFrameBuf(fb)
			return
		}
		req, err := decodeRequestWire(fb.b)
		if err != nil {
			// Cannot correlate a reply for an undecodable request; drop the
			// connection so the client fails fast.
			putFrameBuf(fb)
			return
		}
		tok, queued, prio := s.admit(req)
		switch {
		case req.sole && tok != slotNone:
			// A sole request came over an exclusive lane: nothing else can
			// arrive on this connection before its reply leaves, so it
			// runs right here, with no goroutine hand-off.
			s.run(fb, req, w, tok)
		case req.sole && queued:
			s.awaitRun(fb, req, w, prio)
		case tok != slotNone:
			reqWG.Add(1)
			go func() {
				defer reqWG.Done()
				s.run(fb, req, w, tok)
			}()
		case queued:
			reqWG.Add(1)
			go func() {
				defer reqWG.Done()
				s.awaitRun(fb, req, w, prio)
			}()
		default:
			// Shed without spawning: only the request id is needed, so
			// the frame goes straight back to the pool, and neither the
			// enqueue nor the write may block the read loop — the kicker
			// goroutine flushes the queue instead.
			id := req.requestID
			putFrameBuf(fb)
			enc := encodeReplyFrame(errorReply(id, s.adm.shedError()))
			if w.tryEnqueue(enc) {
				select {
				case kick <- struct{}{}:
				default: // a kick is already pending
				}
			} else {
				// The reply queue is full behind a stalled write: the
				// client is not draining its socket, so this shed could
				// never be delivered anyway. Drop it (the shed is already
				// counted) and let the caller time out.
				cdr.PutEncoder(enc)
			}
		}
	}
}

// admit is the read loop's admission decision for one request: the
// dispatch slot it runs on now (tok), or, when every slot it may use is
// busy, either a seat in the bounded wait queue (queued) or neither — a
// shed. Handler goroutines are therefore bounded by maxInflight + queue
// (+ the writer); without a gate every request runs (slotFree).
//
// Admin scrapes for a registered admin servant bypass the gate through a
// small dedicated slot pool: the stats servant must stay answerable
// exactly while the gate is shedding, which is when an operator reads it
// — but the bypass is bounded (adminInflight) and requires ServeAdmin to
// have run, so a flood of client-chosen "orb-admin" keys cannot recreate
// the pile-up the gate prevents; overflow admin traffic is admitted like
// anything else. Priority admission class: completion/recovery verbs (see
// WithPriorityOps) are classified synchronously — an allocation-free map
// lookup on the lent operation bytes — and may fall back to the reserved
// slot pool when the shared pool is saturated, so overload sheds
// first-contact work before it sheds the traffic that resolves in-doubt
// transactions.
func (s *server) admit(req wireRequest) (tok slotToken, queued, prio bool) {
	if bytes.Equal(req.objectKey, adminKeyBytes) && s.orb.hasServant(AdminKey) && s.tryAdminSlot() {
		return slotAdmin, false, false
	}
	if s.adm == nil {
		return slotFree, false, false
	}
	prio = s.adm.isPriority(req.operation)
	if tok = s.adm.tryAcquire(prio); tok != slotNone {
		return tok, false, prio
	}
	return slotNone, s.adm.enqueue(prio), prio
}

// run dispatches an admitted request on the slot it holds, queues its
// reply, then frees the slot. Every admitted dispatch but an admin
// scrape's is counted, and leaves Inflight before its reply is queued, so
// a caller holding the reply never reads its dispatch as still running.
func (s *server) run(fb *frameBuf, req wireRequest, w *frameWriter, tok slotToken) {
	if tok == slotAdmin {
		w.q <- s.handle(fb, req)
		w.combine()
		<-s.adminSem
		return
	}
	s.orb.dispatched.Add(1)
	s.orb.inflight.Add(1)
	enc := s.handle(fb, req)
	s.orb.inflight.Add(-1)
	w.q <- enc
	w.combine()
	s.adm.release(tok)
}

// awaitRun waits out a queued request's turn in the admission queue and
// runs it, or sheds it at the deadline.
func (s *server) awaitRun(fb *frameBuf, req wireRequest, w *frameWriter, prio bool) {
	tok := s.adm.await(s.done, prio)
	if tok == slotNone {
		putFrameBuf(fb)
		w.q <- encodeReplyFrame(errorReply(req.requestID, s.adm.shedError()))
		w.combine()
		return
	}
	s.run(fb, req, w, tok)
}

// adminKeyBytes is AdminKey as bytes, for the read loop's allocation-free
// admin-bypass check against the lent wire key.
var adminKeyBytes = []byte(AdminKey)

// handle dispatches one request and returns its encoded reply — the one
// dispatch function of both paths, a handler goroutine's and the read
// loop's for a sole request. The pooled request frame is released only after the reply is encoded: the
// reply body a servant returns may alias the request body it was lent (an
// echo servant does exactly that), so the frame must outlive the encode.
func (s *server) handle(fb *frameBuf, req wireRequest) *cdr.Encoder {
	enc := encodeReplyFrame(s.orb.dispatchWire(s.baseCtx, req))
	putFrameBuf(fb)
	return enc
}

// tryAdminSlot grabs one admission-bypass slot without waiting.
func (s *server) tryAdminSlot() bool {
	select {
	case s.adminSem <- struct{}{}:
		return true
	default:
		return false
	}
}

// stop closes the listener and every live connection, then waits for
// handlers to drain.
func (s *server) stop() {
	close(s.done)
	s.cancel()
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}
