package orb

import (
	"container/list"
	"context"
	"encoding/binary"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// Client transport defaults. All are per-ORB configurable (WithPoolSize,
// WithDialTimeout, WithReconnectBackoff).
const (
	defaultDialTimeout = 5 * time.Second
	defaultPoolSize    = 4
	defaultBackoffMin  = 50 * time.Millisecond
	defaultBackoffMax  = 2 * time.Second
)

// endpointPool is the client side of one endpoint, and the only place this
// ORB keeps state about it: a bounded pool of connections, automatic
// reconnect under jittered exponential backoff, a dial health gate so a
// dead peer fails fast instead of being re-dialed on every call, and the
// optional call gate (the circuit breaker, breaker.go). One mutex guards
// all of it, so the selector's health verdict and EndpointStats are each
// one consistent read.
//
// The pool holds up to poolSize−1 exclusive lanes (lane.go) and one
// shared, multiplexed connection (clientConn). A call takes an idle lane,
// or dials one while the pool may; only when every lane it may have is
// busy does it go to the shared connection, whose least-pending pick,
// reply reader and combining writer carry any number of concurrent calls.
// A transport whose connections cannot be lanes (plainConn, or a platform
// without lanesSupported) gets up to poolSize shared connections instead.
//
// Pool growth is caller-driven: an invoke that finds the pool below its
// bound dials a new connection inline (concurrent callers fill the pool in
// parallel, one dial each). A dial failure marks the endpoint down until a
// backoff deadline; while it is down and nothing usable is live, calls
// fail fast with TRANSIENT. The first call after the deadline probes
// again — exactly one caller dials, the rest wait for its verdict.
type endpointPool struct {
	orb      *ORB
	endpoint string // "tcp:host:port"
	addr     string // "host:port"

	// rttNanos is an EWMA of successful call round-trip times (¼ new, ¾
	// old), in nanoseconds; zero until the first success. It feeds
	// EndpointStats.RTT and ORB.EndpointRTT — the latency signal
	// latency-aware relay-tree planning consumes.
	rttNanos atomic.Int64

	mu          sync.Mutex
	cond        *sync.Cond    // broadcast on any conns/lanes/dialing/closed change
	conns       []*clientConn // shared connections
	lanes       []*lane       // every open lane, idle or busy
	idle        []*lane       // idle lanes, the most recently returned last
	dialing     int           // dials in flight, lanes included
	laneDialing int           // dials in flight meant to become lanes
	closed      bool

	// Dial health gate: consecutive dial failures and the backoff deadline
	// until which calls fail fast while nothing is live.
	dialFailures int
	downUntil    time.Time

	// callFailures counts consecutive failed calls; only a success resets
	// it. The breaker opens when it reaches the threshold.
	callFailures int

	// Circuit breaker (BreakerInactive unless WithCircuitBreaker).
	brkState BreakerState // Closed, Open or HalfOpen when active
	openedAt time.Time
	probing  bool   // a half-open probe is in flight
	probes   uint64 // cumulative probes admitted
	opens    uint64 // cumulative transitions to open
}

func newEndpointPool(o *ORB, endpoint, addr string) *endpointPool {
	p := &endpointPool{
		orb:      o,
		endpoint: endpoint,
		addr:     addr,
	}
	if o.brkThreshold > 0 {
		p.brkState = BreakerClosed
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// rttExemptOps are operations whose round trip is dominated by nested
// fan-out work on the servant side rather than network proximity: feeding
// them into the RTT EWMA would inflate an endpoint's estimate by orders of
// magnitude and destabilize anything keyed off it (the relay-tree planner,
// whose plans — and therefore plant-cache hits — depend on endpoints
// staying in their latency class between rounds).
var rttExemptOps = map[string]bool{
	"relay_deliver": true,
}

// observeRTT folds one successful call's round trip into the endpoint's
// EWMA (¼ new sample, ¾ old estimate; the first sample seeds it).
func (p *endpointPool) observeRTT(d time.Duration) {
	sample := int64(d)
	if sample <= 0 {
		return
	}
	for {
		old := p.rttNanos.Load()
		next := sample
		if old > 0 {
			next = old - old/4 + sample/4
		}
		if p.rttNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// clientConn multiplexes concurrent requests over one transport
// connection. All writes flow through a combining frameWriter (writer.go)
// draining a bounded queue of pooled frame encoders: frames enqueued by
// concurrent fan-out callers while a write is in flight coalesce into one
// vectored write, so the connection costs one syscall per batch instead
// of two per frame — while an uncontended caller writes inline with no
// goroutine handoff.
type clientConn struct {
	pool *endpointPool
	tc   wireConn
	w    *frameWriter

	stop chan struct{} // closed by close(); unblocks queued senders

	mu      sync.Mutex
	pending map[uint64]chan reply
	closed  bool
}

// invokeRemote performs a remote invocation against ref: the endpoint
// selector orders the reference's profiles by sticky affinity and endpoint
// health, and the call fails over to the next profile on any TRANSIENT
// outcome (dial failure, health gate, breaker, admission shed — all of
// which guarantee the servant never ran) while the caller's deadline
// lasts. Non-TRANSIENT failures (timeouts, lost connections with
// the request possibly delivered) are returned to the caller: completion
// is unknown, so transparently re-running the operation elsewhere could
// break exactly-once expectations. FENCED is returned too: it asserts the
// operation did not run, but every profile of a deposed member is equally
// deposed, so there is nowhere in the reference to fail over to.
func (o *ORB) invokeRemote(ctx context.Context, ref IOR, op string, contexts []ServiceContext, body []byte) ([]byte, error) {
	callerCtx := ctx
	// deadline is the call timeout of a single-profile call whose caller
	// can never cancel (Done() == nil): the timeout is then only a
	// deadline, which the call applies where it waits — a socket deadline
	// on a lane, a timer context on the shared path — so the lane path
	// allocates no context.
	var deadline time.Time
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && o.callTimeout > 0 {
		if ctx.Done() == nil && len(ref.Profiles) == 1 {
			deadline = time.Now().Add(o.callTimeout)
		} else {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, o.callTimeout)
			defer cancel()
		}
	}
	if len(ref.Profiles) == 1 {
		// The dominant single-profile path: no choice to rank, so it skips
		// the affinity key, the selector and the ordered-endpoints slice —
		// the steady-state invoke allocates nothing here.
		if ep := ref.Profiles[0].Endpoint; strings.HasPrefix(ep, "tcp:") {
			return o.invokeEndpoint(ctx, callerCtx, deadline, ep, ref, op, contexts, body)
		}
		return nil, Systemf(CodeNoImplement, "object %q has no reachable profile (endpoints %v)", ref.Key, ref.Endpoints())
	}
	affKey := affinityKey(ref)
	eps, affinity := o.selectEndpoints(ref, affKey)
	if len(eps) == 0 {
		return nil, Systemf(CodeNoImplement, "object %q has no reachable profile (endpoints %v)", ref.Key, ref.Endpoints())
	}
	var lastErr error
	for _, ep := range eps {
		out, err := o.invokeEndpoint(ctx, callerCtx, time.Time{}, ep, ref, op, contexts, body)
		if err == nil {
			if len(eps) > 1 && ep != affinity {
				o.recordAffinity(ep, affKey)
			}
			return out, nil
		}
		lastErr = err
		if !IsSystem(err, CodeTransient) || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, lastErr
}

// invokeEndpoint performs one invocation attempt over the connection pool
// for a single endpoint. A non-zero deadline bounds the call when ctx
// carries none (see invokeRemote).
func (o *ORB) invokeEndpoint(ctx, callerCtx context.Context, deadline time.Time, endpoint string, ref IOR, op string, contexts []ServiceContext, body []byte) ([]byte, error) {
	addr, ok := strings.CutPrefix(endpoint, "tcp:")
	if !ok {
		return nil, Systemf(CodeNoImplement, "unreachable endpoint %q", endpoint)
	}
	pool, err := o.pool(addr, endpoint)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	probe, err := pool.admitCall(start)
	if err != nil {
		return nil, err
	}
	body, err = o.invokeOverPool(ctx, deadline, pool, ref, op, contexts, body)
	if err == nil && !rttExemptOps[op] {
		pool.observeRTT(time.Since(start))
	}
	// A call abandoned because the *caller* died (a cancelled parallel
	// straggler, an expired caller deadline) says nothing about the
	// endpoint's health and must not feed the breaker — the same
	// exemption dial applies to the health gate. An ORB-installed call
	// timeout firing is not the caller dying: it still counts.
	switch {
	case err == nil || callerCtx.Err() == nil:
		pool.observeCall(err)
	case probe:
		// The half-open probe's outcome was discarded with its caller;
		// release the slot so the next caller can probe, or the circuit
		// would stay latched on a probe that can never report back.
		pool.releaseProbe()
	}
	return body, err
}

// affinityKey identifies one logical object for stickiness: the servant
// key scoped by the reference's primary network profile, so well-known
// keys ("naming", "orb-admin") on different server groups do not clobber
// each other's affinity. The primary profile is taken from the reference
// as written, not the selector's reordering, so the key is stable across
// calls.
func affinityKey(ref IOR) string {
	for _, p := range ref.Profiles {
		if strings.HasPrefix(p.Endpoint, "tcp:") {
			return p.Endpoint + "|" + ref.Key
		}
	}
	return ref.Key
}

// selectEndpoints orders ref's network profiles for one invocation and
// returns the sticky-affinity endpoint it consulted (so the caller can
// skip re-recording an unchanged affinity). A single-profile reference
// skips all ranking work — the historic single-endpoint fast path. With
// several profiles the order is: the sticky-affinity endpoint for affKey
// first while it looks healthy (so a coordinated protocol keeps landing
// on the replica that answered its earlier phases), then the remaining
// profiles whose pools look healthy (dial gate closed, breaker not open)
// ranked by this ORB's round-trip EWMA against them — nearest first,
// never-measured ones after in reference order, so cross-shard traffic
// prefers near replicas while fresh endpoints still get probed — then the
// unhealthy ones in reference order (still tried last — a stale verdict
// must not make an object unreachable). An endpoint with no pool yet is
// healthy and unmeasured.
func (o *ORB) selectEndpoints(ref IOR, affKey string) ([]string, string) {
	var eps []string
	for _, p := range ref.Profiles {
		if strings.HasPrefix(p.Endpoint, "tcp:") {
			eps = append(eps, p.Endpoint)
		}
	}
	if len(eps) <= 1 {
		return eps, ""
	}
	affinity := o.affinityFor(affKey)
	type profileState struct {
		rtt       int64
		preferred bool
	}
	states := make([]profileState, len(eps))
	now := time.Now()
	o.connMu.Lock() // one pass over the pool map for every profile
	for i, ep := range eps {
		states[i].preferred = true
		if p := o.pools[ep]; p != nil {
			states[i].rtt = p.rttNanos.Load()
			p.mu.Lock()
			states[i].preferred = !now.Before(p.downUntil) && p.breakerLocked(now) != BreakerOpen
			p.mu.Unlock()
		}
	}
	o.connMu.Unlock()
	ordered := make([]string, 0, len(eps))
	orderedRTT := make([]int64, 0, len(eps))
	var unhealthy []string
	if affinity != "" {
		for i, ep := range eps {
			if ep == affinity && states[i].preferred {
				ordered = append(ordered, ep)
				orderedRTT = append(orderedRTT, 0)
				break
			}
		}
	}
	healthyStart := len(ordered)
	for i, ep := range eps {
		if healthyStart > 0 && ep == ordered[0] {
			continue
		}
		if !states[i].preferred {
			unhealthy = append(unhealthy, ep)
			continue
		}
		// Insertion-rank by RTT: measured endpoints ascending, unmeasured
		// (rtt 0) after them in reference order. Inserting strictly before
		// the first slower entry keeps the sort stable, so ties and the
		// unmeasured tail preserve reference order. The slices are profile-
		// list sized (a handful), so insertion beats sort.Slice's closure.
		r := states[i].rtt
		pos := len(ordered)
		if r > 0 {
			for j := healthyStart; j < len(ordered); j++ {
				if orderedRTT[j] == 0 || r < orderedRTT[j] {
					pos = j
					break
				}
			}
		}
		ordered = append(ordered, "")
		orderedRTT = append(orderedRTT, 0)
		copy(ordered[pos+1:], ordered[pos:])
		copy(orderedRTT[pos+1:], orderedRTT[pos:])
		ordered[pos] = ep
		orderedRTT[pos] = r
	}
	return append(ordered, unhealthy...), affinity
}

// maxAffinityEntries bounds the sticky-affinity map. Long-lived clients
// invoking short-lived per-activity objects would otherwise accumulate
// one entry per key forever; affinity is only a routing hint, so the
// map evicts in least-recently-used order at the bound — a sharded
// fleet multiplies distinct (endpoint, key) pairs, and the old
// wholesale reset would throw away every live protocol's stickiness
// whenever churn filled the map.
const maxAffinityEntries = 4096

// affEntry is one sticky-affinity binding, held in the LRU list.
type affEntry struct {
	key      string
	endpoint string
}

// affinityFor returns the endpoint that last served key, if any, and
// freshens the entry's recency: a binding consulted on every invocation
// of a live protocol must not be the one evicted mid-protocol.
func (o *ORB) affinityFor(key string) string {
	o.affMu.Lock()
	defer o.affMu.Unlock()
	el, ok := o.affinity[key]
	if !ok {
		return ""
	}
	o.affOrder.MoveToFront(el)
	return el.Value.(*affEntry).endpoint
}

// recordAffinity pins key to the endpoint that just served it, evicting
// the least-recently-used binding when the map is full.
func (o *ORB) recordAffinity(endpoint, key string) {
	o.affMu.Lock()
	defer o.affMu.Unlock()
	if el, ok := o.affinity[key]; ok {
		el.Value.(*affEntry).endpoint = endpoint
		o.affOrder.MoveToFront(el)
		return
	}
	if o.affinity == nil {
		o.affinity = make(map[string]*list.Element)
		o.affOrder = list.New()
	}
	if len(o.affinity) >= maxAffinityEntries {
		if back := o.affOrder.Back(); back != nil {
			delete(o.affinity, back.Value.(*affEntry).key)
			o.affOrder.Remove(back)
		}
	}
	o.affinity[key] = o.affOrder.PushFront(&affEntry{key: key, endpoint: endpoint})
}

// invokeOverPool performs one admitted invocation through the endpoint's
// connection pool: on an exclusive lane when the pool has or may dial
// one (lane.go), else multiplexed on a shared connection. The steady-state
// path is allocation-free either way: the request frame is built in a
// pooled encoder, the shared path's reply channel comes from a pool, and
// the reply body arrives in a pooled frame buffer that is cloned into a
// caller-owned slice before the buffer is recycled.
func (o *ORB) invokeOverPool(ctx context.Context, deadline time.Time, pool *endpointPool, ref IOR, op string, contexts []ServiceContext, body []byte) ([]byte, error) {
	req := request{
		requestID: o.reqID.Add(1),
		objectKey: ref.Key,
		operation: op,
		contexts:  contexts,
		body:      body,
	}
	// A shared connection picked from the pool can be torn down between
	// the pick and the send (its read loop may observe the peer dying at
	// any moment); the frame then never left this host, so pick again
	// until it is queued on a live one.
	for attempt := 0; ; attempt++ {
		c, l, err := pool.get(ctx, deadline)
		if err != nil {
			return nil, err
		}
		if l != nil {
			req.sole = true
			return l.invoke(ctx, deadline, req)
		}
		ch := getReplyChan()
		enc := encodeRequestFrame(req)
		if err := c.send(req.requestID, ch, enc); err != nil {
			cdr.PutEncoder(enc)
			putReplyChan(ch) // never registered, or unregistered by send
			if attempt < o.poolSize {
				continue
			}
			return nil, err
		}
		return c.await(ctx, deadline, req.requestID, ch, op)
	}
}

// await waits for the reply to request id, sent on c with reply channel
// ch, until ctx or the deadline ends the call.
func (c *clientConn) await(ctx context.Context, deadline time.Time, id uint64, ch chan reply, op string) ([]byte, error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	select {
	case rep := <-ch:
		// The sender removed the pending entry and completed its one send;
		// nobody else can touch ch, so it is safe to recycle.
		putReplyChan(ch)
		select {
		case <-ctx.Done():
			// The deadline passed before this caller took the reply (its
			// own inline write can overrun it): the call timed out, and a
			// late success must not be reported as if it met the deadline.
			rep.release()
			return nil, timeoutError(op, c.pool.endpoint, ctx.Err())
		default:
		}
		return replyToResult(rep)
	case <-ctx.Done():
		if c.unregister(id) {
			// This caller removed the entry itself: no send can ever happen.
			putReplyChan(ch)
		} else {
			// A sender beat the timeout to the entry. If its reply already
			// sits in the buffer, consume it and recycle; otherwise the send
			// is still in flight — abandon ch to the garbage collector.
			select {
			case rep := <-ch:
				rep.release()
				putReplyChan(ch)
			default:
			}
		}
		return nil, timeoutError(op, c.pool.endpoint, ctx.Err())
	}
}

// timeoutError is the TIMEOUT a call ended by its context or deadline
// reports.
func timeoutError(op, endpoint string, cause error) error {
	return Systemf(CodeTimeout, "invoking %s on %s: %v", op, endpoint, cause)
}

// pool returns the endpoint's connection pool, creating it if needed. It
// refuses after Shutdown, so an Invoke racing Shutdown cannot plant a live
// pool in the swapped-out map where nothing would ever close it.
func (o *ORB) pool(addr, endpoint string) (*endpointPool, error) {
	o.connMu.Lock()
	defer o.connMu.Unlock()
	if o.poolsClosed {
		return nil, Systemf(CodeCommFailure, "orb shut down")
	}
	p, ok := o.pools[endpoint]
	if !ok {
		p = newEndpointPool(o, endpoint, addr)
		o.pools[endpoint] = p
	}
	return p, nil
}

// PooledEndpoints returns the endpoints this ORB holds client pools for,
// sorted — the scrape surface the admin servant iterates.
func (o *ORB) PooledEndpoints() []string {
	o.connMu.Lock()
	eps := make([]string, 0, len(o.pools))
	for ep := range o.pools {
		eps = append(eps, ep)
	}
	o.connMu.Unlock()
	sort.Strings(eps)
	return eps
}

// get returns what the next call runs on: an idle lane, the least-pending
// shared connection when the pool is at its bound, or — through getSlow —
// a freshly dialed connection while the pool is below it. While the
// endpoint is marked down and nothing usable is live, get fails fast
// without touching the network.
func (p *endpointPool) get(ctx context.Context, deadline time.Time) (*clientConn, *lane, error) {
	// Steady-state fast path: an idle lane, or a full pool, needs no dial
	// or wait — so skip the context.AfterFunc wake-up plumbing (an
	// allocation per call) that only the blocking path uses.
	p.mu.Lock()
	if !p.closed && ctx.Err() == nil {
		if l := p.takeIdleLocked(); l != nil {
			p.mu.Unlock()
			return nil, l, nil
		}
		if len(p.conns)+len(p.lanes) >= p.orb.poolSize {
			if c := p.leastPendingLocked(); c != nil {
				p.mu.Unlock()
				return c, nil, nil
			}
		}
	}
	p.mu.Unlock()
	return p.getSlow(ctx, deadline)
}

// getSlow is get's dial-or-wait path.
func (p *endpointPool) getSlow(ctx context.Context, deadline time.Time) (*clientConn, *lane, error) {
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	// Wake this waiter if its context dies while it blocks in Wait below.
	stopWake := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stopWake()

	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if p.closed {
			return nil, nil, Systemf(CodeCommFailure, "orb shut down")
		}
		if err := ctx.Err(); err != nil {
			return nil, nil, Systemf(CodeTransient, "awaiting connection to %s: %v", p.endpoint, err)
		}
		if l := p.takeIdleLocked(); l != nil {
			return nil, l, nil
		}
		now := time.Now()
		down := now.Before(p.downUntil)
		if down && len(p.conns) == 0 && p.dialing == 0 {
			return nil, nil, Systemf(CodeTransient,
				"endpoint %s down after %d consecutive dial failures (next probe in %s)",
				p.endpoint, p.dialFailures, p.downUntil.Sub(now).Round(time.Millisecond))
		}
		// Growth is allowed when the pool is below its bound — but while
		// the endpoint is recovering from failures, the probe is
		// single-flight: one caller dials, the rest wait for its verdict.
		// The last slot is kept for the shared connection.
		if !down && len(p.conns)+len(p.lanes)+p.dialing < p.orb.poolSize && (p.dialFailures == 0 || p.dialing == 0) {
			asLane := lanesSupported && len(p.lanes)+p.laneDialing < p.orb.poolSize-1
			p.dialing++
			if asLane {
				p.laneDialing++
			}
			p.mu.Unlock()
			c, l, err := p.dial(ctx, asLane)
			p.mu.Lock()
			if err == nil {
				return c, l, nil
			}
			if len(p.conns) > 0 || len(p.idle) > 0 {
				continue // growth failed; fall back to a live connection
			}
			return nil, nil, err
		}
		if c := p.leastPendingLocked(); c != nil {
			return c, nil, nil
		}
		// Nothing usable is live but a dial is in flight, or every lane is
		// busy: wait for a verdict or a returned lane, or for this caller's
		// own context to die (the AfterFunc above wakes us).
		p.cond.Wait()
	}
}

// dial opens one connection and publishes the outcome to the pool and its
// dial health gate. The caller has already reserved a slot (p.dialing,
// and p.laneDialing when asLane). A connection dialed as a lane that
// cannot be one (asWire) joins the shared connections instead.
func (p *endpointPool) dial(ctx context.Context, asLane bool) (*clientConn, *lane, error) {
	// The dial timeout always applies; a sooner caller deadline still wins
	// through context propagation.
	dctx, cancel := context.WithTimeout(ctx, p.orb.dialTimeout)
	defer cancel()
	tc, err := p.orb.transport.Dial(dctx, p.addr)

	p.mu.Lock()
	p.dialing--
	if asLane {
		p.laneDialing--
	}
	if err != nil {
		if ctx.Err() == nil {
			// A real dial failure opens the down window. A dial aborted
			// because the *caller* died (cancelled straggler, expired call
			// deadline) says nothing about the peer's health and must not.
			p.dialFailures++
			p.downUntil = time.Now().Add(p.backoffFor(p.dialFailures))
		}
		p.cond.Broadcast()
		p.mu.Unlock()
		return nil, nil, Systemf(CodeTransient, "dial %s: %v", p.addr, err)
	}
	if p.closed {
		p.cond.Broadcast()
		p.mu.Unlock()
		tc.Close()
		return nil, nil, Systemf(CodeCommFailure, "orb shut down")
	}
	p.dialFailures = 0
	p.downUntil = time.Time{}
	p.cond.Broadcast()
	wc, laneable := asWire(tc)
	if asLane && laneable {
		l := newLane(p, wc)
		p.lanes = append(p.lanes, l)
		p.mu.Unlock()
		p.orb.armLaneSweep()
		return nil, l, nil
	}
	c := &clientConn{
		pool:    p,
		tc:      wc,
		stop:    make(chan struct{}),
		pending: make(map[uint64]chan reply),
	}
	c.w = newFrameWriter(writeQueueDepth, wc, func(unsent []*cdr.Encoder) {
		// The connection is dead: take it out of the pool before waking
		// anyone, so a caller failing over does not pick it again, and
		// close the transport so the read loop drops it (close then fails
		// what already reached the wire with COMM_FAILURE, completion
		// unknown). Requests the writer did not write never left (or only
		// partially left) this host: fail them with TRANSIENT — the
		// historic synchronous-send contract, which lets the caller retry
		// or fail over to another profile.
		c.pool.remove(c)
		c.tc.Close()
		c.failUnsent(unsent)
	})
	p.conns = append(p.conns, c)
	p.mu.Unlock()

	go c.readLoop()
	return c, nil, nil
}

// backoffFor returns the jittered exponential backoff for the given
// consecutive-failure count: full jitter over [d/2, d] where d doubles per
// failure between the configured bounds.
func (p *endpointPool) backoffFor(failures int) time.Duration {
	d := p.orb.backoffMin
	for i := 1; i < failures && d < p.orb.backoffMax; i++ {
		d *= 2
	}
	if d > p.orb.backoffMax {
		d = p.orb.backoffMax
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(rand.Int64N(int64(half)+1))
}

// leastPendingLocked picks the shared connection with the fewest
// in-flight requests.
func (p *endpointPool) leastPendingLocked() *clientConn {
	var best *clientConn
	bestLoad := 0
	for _, c := range p.conns {
		load := c.load()
		if best == nil || load < bestLoad {
			best, bestLoad = c, load
		}
	}
	return best
}

// remove takes c out of the pool, if it is still there.
func (p *endpointPool) remove(c *clientConn) {
	p.mu.Lock()
	for i, pc := range p.conns {
		if pc == c {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			break
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// drop removes a lost connection from the pool and fails its pending
// calls.
func (p *endpointPool) drop(c *clientConn) {
	p.remove(c)
	c.close(Systemf(CodeCommFailure, "connection to %s lost", p.endpoint))
}

// closePool tears down every connection and rejects future gets. A busy
// lane's caller sees its read fail and reports COMM_FAILURE.
func (p *endpointPool) closePool(cause *SystemError) {
	p.mu.Lock()
	p.closed = true
	conns, lanes := p.conns, p.lanes
	p.conns, p.lanes, p.idle = nil, nil, nil
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, l := range lanes {
		l.c.Close()
	}
	for _, c := range conns {
		c.close(cause)
	}
}

// EndpointStats is a snapshot of one endpoint pool's health, for tests,
// tooling and operational introspection.
type EndpointStats struct {
	// Endpoint is the pooled endpoint ("tcp:host:port").
	Endpoint string
	// Conns is the number of live connections, lanes included.
	Conns int
	// Lanes is the number of exclusive lanes among Conns.
	Lanes int
	// Pending is the total number of in-flight requests across them (a
	// busy lane carries one).
	Pending int
	// Dialing is the number of dials in flight.
	Dialing int
	// Failures is this ORB's consecutive dial-failure count against the
	// endpoint; a successful dial resets it.
	Failures int
	// Down reports whether the health gate is failing calls fast.
	Down bool
	// Breaker is the circuit breaker state (BreakerInactive when no
	// breaker is configured; see WithCircuitBreaker).
	Breaker BreakerState
	// BreakerProbes is the cumulative number of half-open probes admitted.
	BreakerProbes uint64
	// BreakerOpens is the cumulative number of transitions to the open
	// state.
	BreakerOpens uint64
	// RTT is the EWMA of successful call round trips against the endpoint,
	// zero until the first success (see ORB.EndpointRTT).
	RTT time.Duration
}

// EndpointStats reports the pool state for endpoint, if one exists.
func (o *ORB) EndpointStats(endpoint string) (EndpointStats, bool) {
	o.connMu.Lock()
	p, ok := o.pools[endpoint]
	o.connMu.Unlock()
	if !ok {
		return EndpointStats{}, false
	}
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	st := EndpointStats{
		Endpoint:      p.endpoint,
		Conns:         len(p.conns) + len(p.lanes),
		Lanes:         len(p.lanes),
		Pending:       len(p.lanes) - len(p.idle),
		Dialing:       p.dialing,
		Failures:      p.dialFailures,
		Down:          now.Before(p.downUntil),
		Breaker:       p.breakerLocked(now),
		BreakerProbes: p.probes,
		BreakerOpens:  p.opens,
		RTT:           time.Duration(p.rttNanos.Load()),
	}
	for _, c := range p.conns {
		st.Pending += c.load()
	}
	return st, true
}

// EndpointRTT returns the EWMA round-trip estimate this ORB has measured
// against endpoint ("tcp:host:port", the prefix optional), or zero when no
// successful call has been observed. Latency-aware relay-tree planning
// feeds on it.
func (o *ORB) EndpointRTT(endpoint string) time.Duration {
	o.connMu.Lock()
	p, ok := o.pools[canonicalEndpoint(endpoint)]
	o.connMu.Unlock()
	if !ok {
		return 0
	}
	return time.Duration(p.rttNanos.Load())
}

// unregister removes a pending entry, reporting whether this caller
// removed it. Whoever removes the entry owns the single reply send that
// will ever target its channel: a true return therefore proves no sender
// exists and the channel may be recycled.
func (c *clientConn) unregister(id uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.pending[id]; !ok {
		return false
	}
	delete(c.pending, id)
	return true
}

// load counts in-flight requests (the least-pending pick key).
func (c *clientConn) load() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// send registers ch for request id and hands its complete request frame
// (a pooled encoder, ownership included) to the connection's combining
// writer. On success the writer releases the encoder after the frame is
// written (often by this very goroutine, inline, batched with whatever
// concurrent callers enqueued meanwhile). It fails TRANSIENT only when
// the connection closed before the frame was queued; the caller then
// still owns the encoder and ch is no longer registered.
//
// The frame is queued under c.mu, the lock close marks the connection
// closed under before it discards the writer's queue: every call
// registered before close has its frame in the writer's hands by then,
// so close can tell frames that never left from frames on the wire. A
// full queue is waited out outside the lock.
func (c *clientConn) send(id uint64, ch chan reply, enc *cdr.Encoder) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Systemf(CodeTransient, "connection to %s closed", c.pool.endpoint)
	}
	c.pending[id] = ch
	select {
	case c.w.q <- enc:
		c.mu.Unlock()
	default:
		c.mu.Unlock()
		if !c.enqueueBlocking(enc) {
			if !c.unregister(id) {
				// close claimed the entry first: take its one reply (no
				// frame buffer; close builds it) so ch can be recycled.
				<-ch
			}
			return Systemf(CodeTransient, "connection to %s closed", c.pool.endpoint)
		}
	}
	c.w.combine()
	return nil
}

// enqueueBlocking waits for room in the writer's queue, reporting false
// if the connection closed first. A closed connection wins over room
// that close's own discard just made, except in the instant between the
// two selects: a frame queued there fails COMM_FAILURE if close reaches
// the pending map before the writer discards the frame.
func (c *clientConn) enqueueBlocking(enc *cdr.Encoder) bool {
	select {
	case <-c.stop:
		return false
	default:
	}
	select {
	case c.w.q <- enc:
		return true
	case <-c.stop:
		return false
	}
}

// failUnsent fails the pending calls behind unwritten (or only partially
// written) request frames with TRANSIENT, before the connection drop
// converts everything else to COMM_FAILURE. The request id sits at a
// fixed offset in the frame payload (magic, version, type, pad, u64), so
// no full decode is needed.
func (c *clientConn) failUnsent(unsent []*cdr.Encoder) {
	for _, e := range unsent {
		p := e.FramePayload()
		if len(p) < 16 {
			continue
		}
		id := binary.BigEndian.Uint64(p[8:16])
		c.mu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ok {
			ch <- reply{
				requestID: id,
				status:    replySystemErr,
				errCode:   string(CodeTransient),
				errDetail: "request not sent: connection to " + c.pool.endpoint + " lost",
			}
		}
	}
}

// readLoop delivers replies to waiting callers until the connection dies.
func (c *clientConn) readLoop() {
	for {
		rep, err := readReply(c.tc)
		if err != nil {
			c.pool.drop(c)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[rep.requestID]
		if ok {
			delete(c.pending, rep.requestID)
		}
		c.mu.Unlock()
		if ok {
			ch <- rep
		} else {
			// No waiter (it timed out and unregistered): the frame is dead.
			rep.release()
		}
	}
}

// readReply reads and decodes the next reply on tc — the one reply reader
// of the shared connections' read loops and of the lanes. Frames are read
// into pooled buffers: rep.fb tracks ownership, and the caller that
// consumes the reply releases the buffer.
func readReply(tc wireConn) (reply, error) {
	fb := getFrameBuf()
	var rep reply
	var err error
	if fb.b, err = tc.ReadFrameReuse(fb.b); err == nil {
		rep, err = decodeReply(fb.b)
	}
	if err != nil {
		putFrameBuf(fb)
		return reply{}, err
	}
	rep.fb = fb
	return rep, nil
}

// close shuts the connection and fails every pending call. A call whose
// frame reached the transport has unknown completion and fails with cause;
// one whose frame never left this host fails TRANSIENT, whichever
// goroutine saw the connection die first. Every call registered before
// closed is set has its frame in the writer's hands (see send). Closing
// the transport ends a write in progress, whose failure hands its
// unwritten frames to failUnsent; discard waits for that, then hands over
// every frame still queued, and only the calls left after that — frames
// that reached the transport — fail with cause.
func (c *clientConn) close(cause *SystemError) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()

	close(c.stop)
	c.tc.Close()
	c.w.discard()

	c.mu.Lock()
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for id, ch := range pending {
		ch <- reply{
			requestID: id,
			status:    replySystemErr,
			errCode:   string(cause.Code),
			errDetail: cause.Detail,
		}
	}
}

// endpointHost extracts the host:port from a "tcp:" endpoint, for tests
// and tooling.
func endpointHost(endpoint string) string {
	return strings.TrimPrefix(endpoint, "tcp:")
}
