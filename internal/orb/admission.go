package orb

import (
	"sync"
	"time"
)

// shedAfter bounds how long an admitted-but-queued request may wait for a
// dispatch slot before it is shed with TRANSIENT. The wait queue holds
// 2×WithMaxInflight requests; WithMaxInflight is the one admission knob.
const shedAfter = 100 * time.Millisecond

// admission is the server-side overload gate: a fixed pool of dispatch
// slots plus a bounded wait queue with deadline-aware shedding. A request
// that cannot get a slot immediately waits in the queue for at most
// shedAfter; if the queue is full or the deadline passes, the request is
// shed with a TRANSIENT system exception instead of silently piling up.
// TRANSIENT tells the caller the servant never ran, so at-least-once
// retries stay safe.
//
// The gate also bounds the server's handler goroutines: at most
// maxInflight dispatches plus queueMax waiters exist at any moment, plus
// one kicker goroutine per connection flushing shed replies through the
// connection's bounded reply queue; if that queue fills behind a client
// that has stopped draining its socket, further shed replies are dropped
// outright (see serveConn).
type admission struct {
	slots     chan struct{} // buffered to maxInflight-reserve; len = shared in-flight dispatches
	prioSlots chan struct{} // reserved for priority operations; nil = no reservation
	prioOps   map[string]bool
	queueMax  int

	mu             sync.Mutex
	queued         int
	shed           uint64
	prioShed       uint64
	prioDispatched uint64
}

// slotToken records which slot pool a dispatch occupies, so release
// returns it to the right pool. A plain value (not a closure) keeps the
// hot serveConn path allocation-free.
type slotToken uint8

// Slot pools a dispatch may occupy.
const (
	// slotNone means no slot was acquired.
	slotNone slotToken = iota
	// slotShared is a slot from the shared pool.
	slotShared
	// slotReserved is a slot from the priority reservation.
	slotReserved
	// slotFree admits a request to a server without a gate.
	slotFree
	// slotAdmin is one of the admin scrapes' bypass slots (server.go).
	slotAdmin
)

// newAdmission builds the gate; maxInflight <= 0 disables admission control
// (nil gate, unbounded dispatch — the pre-admission behaviour). reserve > 0
// carves that many of the maxInflight slots out as a reservation only the
// DefaultPriorityOps may use; it is clamped so at least one shared slot
// remains.
func newAdmission(maxInflight, reserve int) *admission {
	if maxInflight <= 0 {
		return nil
	}
	reserve = min(reserve, maxInflight-1)
	a := &admission{
		slots:    make(chan struct{}, maxInflight-reserve),
		queueMax: 2 * maxInflight,
	}
	if reserve > 0 {
		a.prioSlots = make(chan struct{}, reserve)
		a.prioOps = make(map[string]bool, len(DefaultPriorityOps))
		for _, op := range DefaultPriorityOps {
			a.prioOps[op] = true
		}
	}
	return a
}

// isPriority reports whether the operation name (lent wire bytes) belongs
// to the priority admission class. The map lookup on string(op) compiles
// allocation-free, keeping the read loop's fast path clean.
func (a *admission) isPriority(op []byte) bool {
	return a.prioSlots != nil && a.prioOps[string(op)]
}

// tryAcquire grabs a dispatch slot without waiting: the shared pool first,
// then — for priority requests — the reservation. It returns slotNone when
// every pool the request may use is full.
func (a *admission) tryAcquire(prio bool) slotToken {
	select {
	case a.slots <- struct{}{}:
		if prio {
			a.mu.Lock()
			a.prioDispatched++
			a.mu.Unlock()
		}
		return slotShared
	default:
	}
	if prio && a.prioSlots != nil {
		select {
		case a.prioSlots <- struct{}{}:
			a.mu.Lock()
			a.prioDispatched++
			a.mu.Unlock()
			return slotReserved
		default:
		}
	}
	return slotNone
}

// enqueue reserves a queue seat for a request that found every slot busy.
// It reports false — shedding the request — when the queue is already full.
// Priority requests are granted extra headroom (one seat per reserved slot
// beyond the shared bound) so a queue full of first-contact work cannot
// shut recovery traffic out of the wait line too.
func (a *admission) enqueue(prio bool) bool {
	limit := a.queueMax
	if prio && a.prioSlots != nil {
		limit += cap(a.prioSlots)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.queued >= limit {
		a.shed++
		if prio {
			a.prioShed++
		}
		return false
	}
	a.queued++
	return true
}

// await blocks a queued request until a slot frees (either pool, for
// priority requests), the shed deadline passes, or the server stops. It
// returns the acquired slot's token, or slotNone when the request must be
// shed. The queue seat is released either way.
func (a *admission) await(done <-chan struct{}, prio bool) slotToken {
	timer := time.NewTimer(shedAfter)
	defer timer.Stop()
	tok := slotNone
	if prio && a.prioSlots != nil {
		select {
		case a.slots <- struct{}{}:
			tok = slotShared
		case a.prioSlots <- struct{}{}:
			tok = slotReserved
		case <-timer.C:
		case <-done:
		}
	} else {
		select {
		case a.slots <- struct{}{}:
			tok = slotShared
		case <-timer.C:
		case <-done:
		}
	}
	a.mu.Lock()
	a.queued--
	if tok != slotNone {
		if prio {
			a.prioDispatched++
		}
	} else {
		a.shed++
		if prio {
			a.prioShed++
		}
	}
	a.mu.Unlock()
	return tok
}

// release returns a dispatch slot to the pool it came from; a nil gate's
// slotFree needs no release.
func (a *admission) release(tok slotToken) {
	switch tok {
	case slotShared:
		<-a.slots
	case slotReserved:
		<-a.prioSlots
	}
}

// shedError is the reply body for a shed request. TRANSIENT: the servant
// never ran, so the caller may safely retry (ideally elsewhere, or later).
func (a *admission) shedError() *SystemError {
	a.mu.Lock()
	queued := a.queued
	a.mu.Unlock()
	return Systemf(CodeTransient,
		"server overloaded: %d dispatches in flight, %d/%d queued (shed after %s)",
		len(a.slots), queued, a.queueMax, shedAfter)
}

// ServerStats is a snapshot of the server transport's dispatch and
// admission state, the server-side sibling of EndpointStats, plus the
// object adapter's servant count. The counters cover the network
// transport only (in-process fast-path dispatches bypass it) and count
// with or without an admission gate; admin scrapes on their bypass slots
// are not counted.
type ServerStats struct {
	// Endpoint is the primary bound listen endpoint ("tcp:host:port").
	Endpoint string
	// Endpoints lists every bound listener endpoint, in Listen order; the
	// admission gauges below aggregate over all of them (the gate is
	// shared).
	Endpoints []string
	// Conns is the number of live inbound connections across every
	// listener.
	Conns int
	// Inflight is the number of dispatches currently running.
	Inflight int
	// Queued is the number of requests waiting for a dispatch slot.
	Queued int
	// Shed is the cumulative count of requests shed with TRANSIENT.
	Shed uint64
	// Dispatched is the cumulative count of requests admitted to dispatch.
	Dispatched uint64
	// MaxInflight is the configured dispatch bound (0 = unbounded),
	// including any reserved priority slots.
	MaxInflight int
	// QueueDepth is the wait-queue bound, 2×MaxInflight.
	QueueDepth int
	// ShedAfter is the maximum queue wait.
	ShedAfter time.Duration
	// ReservedSlots is the number of dispatch slots reserved for the
	// priority admission class (see WithPriorityOps); 0 = no reservation.
	ReservedSlots int
	// PriorityInflight is the number of dispatches currently occupying
	// reserved slots.
	PriorityInflight int
	// PriorityDispatched is the cumulative count of priority-class requests
	// admitted to dispatch (through either slot pool).
	PriorityDispatched uint64
	// PriorityShed is the cumulative count of priority-class requests shed
	// with TRANSIENT.
	PriorityShed uint64
	// Servants is the number of servants currently active on the ORB.
	Servants int
}

// ServerStats reports the server transport's admission state, aggregated
// over every listener. It returns false until Listen has been called.
func (o *ORB) ServerStats() (ServerStats, bool) {
	o.mu.RLock()
	srvs := o.srvs
	bound := append([]string(nil), o.bound...)
	adm := o.adm
	servants := len(o.servants)
	o.mu.RUnlock()
	if len(srvs) == 0 {
		return ServerStats{}, false
	}
	st := ServerStats{Endpoint: bound[0], Endpoints: bound, Servants: servants}
	for _, srv := range srvs {
		srv.mu.Lock()
		st.Conns += len(srv.conns)
		srv.mu.Unlock()
	}
	st.Dispatched = o.dispatched.Load()
	st.Inflight = int(o.inflight.Load())
	if a := adm; a != nil {
		a.mu.Lock()
		st.Queued = a.queued
		st.Shed = a.shed
		st.PriorityDispatched = a.prioDispatched
		st.PriorityShed = a.prioShed
		a.mu.Unlock()
		st.MaxInflight = cap(a.slots)
		st.QueueDepth = a.queueMax
		st.ShedAfter = shedAfter
		if a.prioSlots != nil {
			st.ReservedSlots = cap(a.prioSlots)
			st.PriorityInflight = len(a.prioSlots)
			st.MaxInflight += cap(a.prioSlots)
		}
	}
	return st, true
}
