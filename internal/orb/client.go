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

// endpointPool is the client side of one endpoint: a bounded pool of
// multiplexed connections with least-pending pick, automatic reconnect
// under jittered exponential backoff, and a health gate so a dead peer
// fails fast instead of being re-dialed on every call. The gate's state
// (consecutive failures, down-until deadline) lives in the ORB's
// HealthRegistry, so every client ORB sharing the registry shares the
// verdict: one pool discovering a dead endpoint fails the whole process
// fast against it.
//
// Pool growth is caller-driven: an invoke that finds the pool below its
// bound dials a new connection inline (concurrent callers fill the pool in
// parallel, one dial each). A dial failure marks the endpoint down until a
// backoff deadline; while it is down and no connection is live, calls fail
// fast with TRANSIENT. The first call after the deadline probes again —
// exactly one caller dials, the rest wait for its verdict.
type endpointPool struct {
	orb      *ORB
	endpoint string // "tcp:host:port"
	addr     string // "host:port"

	// health is the shared dial-gate record for this endpoint in the ORB's
	// HealthRegistry.
	health *endpointHealth

	// Overload protection above the health gate (breaker.go); either may
	// be nil when the corresponding option is unset.
	brk    *breaker
	budget *retryBudget

	// rttNanos is an EWMA of successful call round-trip times (¼ new, ¾
	// old), in nanoseconds; zero until the first success. It feeds
	// EndpointStats.RTT and ORB.EndpointRTT — the latency signal
	// latency-aware relay-tree planning consumes.
	rttNanos atomic.Int64

	mu      sync.Mutex
	cond    *sync.Cond // broadcast on any conns/dialing/closed change
	conns   []*clientConn
	dialing int
	closed  bool
}

func newEndpointPool(o *ORB, endpoint, addr string) *endpointPool {
	p := &endpointPool{
		orb:      o,
		endpoint: endpoint,
		addr:     addr,
		health:   o.health.acquire(endpoint), // released in closePool
		brk:      newBreaker(endpoint, o.brkThreshold, o.brkOpenFor),
		budget:   newRetryBudget(endpoint, o.retryRate, o.retryBurst),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// admitCall runs the pre-flight overload gates: the breaker first, so its
// fail-fast rejections never drain the retry budget, then the budget. A
// call admitted as the half-open probe but rejected by the budget releases
// the probe slot, so an exhausted budget cannot eat the recovery probe.
// The first return reports whether this call holds the probe slot.
func (p *endpointPool) admitCall(now time.Time) (bool, error) {
	var probe bool
	if p.brk != nil {
		var err error
		if probe, err = p.brk.admit(now); err != nil {
			return false, err
		}
	}
	if p.budget != nil {
		if err := p.budget.admit(now); err != nil {
			if probe {
				p.brk.abortProbe()
			}
			return false, err
		}
	}
	return probe, nil
}

// observeCall feeds a finished call's outcome back to the breaker and the
// retry budget, and publishes the breaker's verdict to the shared health
// registry so other ORBs' selectors deprioritize the endpoint while it is
// open. Fail-fast rejections from admitCall never reach here, so the
// budget and breaker cannot feed on their own output. Health-gate
// fail-fasts DO reach here and count as failures deliberately: they are
// the endpoint's last known state, and requiring real dials to trip the
// breaker would let the gate's own backoff spacing delay it indefinitely.
func (p *endpointPool) observeCall(err error) {
	failed := transportFailure(err)
	now := time.Now()
	if p.brk != nil {
		if failed {
			p.brk.onFailure(now)
			if until, open := p.brk.window(now); open {
				p.health.reportBreakerOpen(until)
			}
			// A failure that did not open THIS breaker says nothing about
			// a window another ORB published; only a proven-healthy round
			// trip may clear the shared verdict.
		} else {
			p.brk.onSuccess()
			p.health.reportBreakerClosed()
		}
	}
	if p.budget != nil {
		p.budget.observe(failed, now)
	}
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

// warm pre-dials up to n connections sequentially (WithPoolWarm), stopping
// at the pool bound, the first failure, or close. Sequential dials avoid a
// thundering herd on the peer; concurrent callers still grow the pool
// inline in parallel through get.
func (p *endpointPool) warm(n int) {
	if n > p.orb.poolSize {
		n = p.orb.poolSize
	}
	for {
		p.mu.Lock()
		// Gate on the down window, not the shared lifetime failure count: a
		// stale count from another ORB's old outage (the window long
		// expired) must not disable warming for every pool created after
		// it. This loop's own dial failure still stops it below.
		down, _, _ := p.health.gate(time.Now())
		if p.closed || down || len(p.conns)+p.dialing >= n {
			p.mu.Unlock()
			return
		}
		p.dialing++
		p.mu.Unlock()
		if _, err := p.dial(context.Background()); err != nil {
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
	tc   Conn
	w    *frameWriter

	stop chan struct{} // closed by close(); unblocks queued senders

	mu      sync.Mutex
	pending map[uint64]chan reply
	closed  bool
}

// invokeRemote performs a remote invocation against ref: the endpoint
// selector orders the reference's profiles by sticky affinity and shared
// health, and the call fails over to the next profile on any TRANSIENT
// outcome (dial failure, health gate, breaker, budget, admission shed —
// all of which guarantee the servant never ran) while the caller's
// deadline lasts. Non-TRANSIENT failures (timeouts, lost connections with
// the request possibly delivered) are returned to the caller: completion
// is unknown, so transparently re-running the operation elsewhere could
// break exactly-once expectations. FENCED is returned too: it asserts the
// operation did not run, but every profile of a deposed member is equally
// deposed, so there is nowhere in the reference to fail over to.
func (o *ORB) invokeRemote(ctx context.Context, ref IOR, op string, contexts []ServiceContext, body []byte) ([]byte, error) {
	callerCtx := ctx
	if _, hasDeadline := ctx.Deadline(); !hasDeadline && o.callTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.callTimeout)
		defer cancel()
	}
	if len(ref.Profiles) == 1 {
		// The dominant single-profile path: no choice to rank, so it skips
		// the affinity key, the selector and the ordered-endpoints slice —
		// the steady-state invoke allocates nothing here.
		if ep := ref.Profiles[0].Endpoint; strings.HasPrefix(ep, "tcp:") {
			return o.invokeEndpoint(ctx, callerCtx, ep, ref, op, contexts, body)
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
		out, err := o.invokeEndpoint(ctx, callerCtx, ep, ref, op, contexts, body)
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
// for a single endpoint.
func (o *ORB) invokeEndpoint(ctx, callerCtx context.Context, endpoint string, ref IOR, op string, contexts []ServiceContext, body []byte) ([]byte, error) {
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
	body, err = o.invokeOverPool(ctx, pool, ref, op, contexts, body)
	if err == nil && !rttExemptOps[op] {
		pool.observeRTT(time.Since(start))
	}
	// A call abandoned because the *caller* died (a cancelled parallel
	// straggler, an expired caller deadline) says nothing about the
	// endpoint's health and must not feed the breaker or retry budget —
	// the same exemption dial applies to the health gate. An ORB-installed
	// call timeout firing is not the caller dying: it still counts.
	switch {
	case err == nil || callerCtx.Err() == nil:
		pool.observeCall(err)
	case probe:
		// The half-open probe's outcome was discarded with its caller;
		// release the slot so the next caller can probe, or the circuit
		// would stay latched on a probe that can never report back.
		pool.brk.releaseProbe()
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
// profiles the shared HealthRegistry considers healthy ranked by this
// ORB's round-trip EWMA against them — nearest first, never-measured
// ones after in reference order, so cross-shard traffic prefers near
// replicas while fresh endpoints still get probed — then the unhealthy
// ones in reference order (still tried last — a stale verdict must not
// make an object unreachable).
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
	now := time.Now()
	affinity := o.affinityFor(affKey)
	records := o.health.entriesFor(eps) // one registry lock for all profiles
	rtts := o.rttsFor(eps)              // one pool-map lock for all profiles
	ordered := make([]string, 0, len(eps))
	orderedRTT := make([]int64, 0, len(eps))
	var unhealthy []string
	if affinity != "" {
		for i, ep := range eps {
			if ep == affinity && records[i].preferred(now) {
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
		if !records[i].preferred(now) {
			unhealthy = append(unhealthy, ep)
			continue
		}
		// Insertion-rank by RTT: measured endpoints ascending, unmeasured
		// (rtt 0) after them in reference order. Inserting strictly before
		// the first slower entry keeps the sort stable, so ties and the
		// unmeasured tail preserve reference order. The slices are profile-
		// list sized (a handful), so insertion beats sort.Slice's closure.
		r := rtts[i]
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

// rttsFor returns this ORB's round-trip EWMA for each endpoint (zero
// when no pool exists or nothing succeeded yet), taking the pool-map
// lock once for the whole profile list.
func (o *ORB) rttsFor(eps []string) []int64 {
	out := make([]int64, len(eps))
	o.connMu.Lock()
	if !o.poolsClosed {
		for i, ep := range eps {
			if p, ok := o.pools[ep]; ok {
				out[i] = p.rttNanos.Load()
			}
		}
	}
	o.connMu.Unlock()
	return out
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
// connection pool. The steady-state path is allocation-free: the request
// frame is built in a pooled encoder (released by the writer goroutine
// after the coalesced write), the reply channel comes from a pool, and
// the reply body arrives in a pooled frame buffer that is cloned into a
// caller-owned slice before the buffer is recycled.
func (o *ORB) invokeOverPool(ctx context.Context, pool *endpointPool, ref IOR, op string, contexts []ServiceContext, body []byte) ([]byte, error) {
	reqID := o.reqID.Add(1)
	ch := getReplyChan()

	// A connection picked from the pool can be torn down between the pick
	// and the registration (its read loop may observe the peer dying at any
	// moment); retry the pick until registration lands on a live one.
	var c *clientConn
	for attempt := 0; ; attempt++ {
		var err error
		c, err = pool.get(ctx)
		if err != nil {
			putReplyChan(ch) // never registered: no sender can exist
			return nil, err
		}
		if err = c.register(reqID, ch); err == nil {
			break
		}
		if attempt >= o.poolSize {
			putReplyChan(ch)
			return nil, err
		}
	}

	enc := encodeRequestFrame(request{
		requestID: reqID,
		objectKey: ref.Key,
		operation: op,
		contexts:  contexts,
		body:      body,
	})
	if err := c.send(enc); err != nil {
		cdr.PutEncoder(enc) // never enqueued; the caller still owns it
		if c.unregister(reqID) {
			putReplyChan(ch)
		}
		pool.drop(c, Systemf(CodeCommFailure, "connection to %s lost", pool.endpoint))
		// The request never left this host: TRANSIENT.
		return nil, Systemf(CodeTransient, "send to %s: %v", pool.endpoint, err)
	}

	select {
	case rep := <-ch:
		// The sender removed the pending entry and completed its one send;
		// nobody else can touch ch, so it is safe to recycle.
		putReplyChan(ch)
		return replyToResult(rep)
	case <-ctx.Done():
		if c.unregister(reqID) {
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
		return nil, Systemf(CodeTimeout, "invoking %s on %s: %v", op, pool.endpoint, ctx.Err())
	}
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
		if o.warmConns > 0 {
			// First use of this endpoint: pre-dial toward the bound in the
			// background so a following burst finds connections ready.
			go p.warm(o.warmConns)
		}
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

// get returns a live connection: the least-pending one when the pool is at
// its bound, a freshly dialed one while it is below. While the endpoint is
// marked down (in the shared health registry — possibly by another ORB's
// pool) and nothing is live, get fails fast without touching the network.
func (p *endpointPool) get(ctx context.Context) (*clientConn, error) {
	// Steady-state fast path: the pool is at its bound with live
	// connections, so no dial or wait can be needed — skip the
	// context.AfterFunc wake-up plumbing (an allocation per call) that
	// only the blocking path uses.
	p.mu.Lock()
	if !p.closed && len(p.conns) >= p.orb.poolSize && ctx.Err() == nil {
		if c := p.leastPendingLocked(); c != nil {
			p.mu.Unlock()
			return c, nil
		}
	}
	p.mu.Unlock()
	return p.getSlow(ctx)
}

// getSlow is get's dial-or-wait path.
func (p *endpointPool) getSlow(ctx context.Context) (*clientConn, error) {
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
			return nil, Systemf(CodeCommFailure, "orb shut down")
		}
		if err := ctx.Err(); err != nil {
			return nil, Systemf(CodeTransient, "awaiting connection to %s: %v", p.endpoint, err)
		}
		down, failures, downUntil := p.health.gate(time.Now())
		if down && len(p.conns) == 0 && p.dialing == 0 {
			return nil, Systemf(CodeTransient,
				"endpoint %s down after %d consecutive dial failures (next probe in %s)",
				p.endpoint, failures, time.Until(downUntil).Round(time.Millisecond))
		}
		// Growth is allowed when the pool is below its bound — but while
		// the endpoint is recovering from failures, the probe is
		// single-flight: one caller dials, the rest wait for its verdict.
		if !down && len(p.conns)+p.dialing < p.orb.poolSize && (failures == 0 || p.dialing == 0) {
			p.dialing++
			p.mu.Unlock()
			c, err := p.dial(ctx)
			p.mu.Lock()
			if err == nil {
				return c, nil
			}
			if len(p.conns) > 0 {
				continue // growth failed; fall back to a live connection
			}
			return nil, err
		}
		if c := p.leastPendingLocked(); c != nil {
			return c, nil
		}
		// Nothing live but a dial is in flight: wait for its verdict, or
		// for this caller's own context to die (the AfterFunc above wakes
		// us). The wait is otherwise bounded by the dialer's timeout.
		p.cond.Wait()
	}
}

// dial opens one connection and publishes the outcome to the pool and the
// shared health registry. The caller has already reserved a slot
// (p.dialing).
func (p *endpointPool) dial(ctx context.Context) (*clientConn, error) {
	// The dial timeout always applies; a sooner caller deadline still wins
	// through context propagation.
	dctx, cancel := context.WithTimeout(ctx, p.orb.dialTimeout)
	defer cancel()
	tc, err := p.orb.transport.Dial(dctx, p.addr)

	p.mu.Lock()
	p.dialing--
	if err != nil {
		if ctx.Err() == nil {
			// A real dial failure: penalize the endpoint for every ORB
			// sharing the registry. A dial aborted because the *caller*
			// died (cancelled straggler, expired call deadline) says
			// nothing about the peer's health and must not open the down
			// window.
			p.health.dialFailed(time.Now(), p.backoffFor)
		}
		p.cond.Broadcast()
		p.mu.Unlock()
		return nil, Systemf(CodeTransient, "dial %s: %v", p.addr, err)
	}
	if p.closed {
		p.cond.Broadcast()
		p.mu.Unlock()
		tc.Close()
		return nil, Systemf(CodeCommFailure, "orb shut down")
	}
	c := &clientConn{
		pool:    p,
		tc:      tc,
		stop:    make(chan struct{}),
		pending: make(map[uint64]chan reply),
	}
	bw, _ := tc.(frameBatchWriter)
	c.w = newFrameWriter(writeQueueDepth, bw, tc.WriteFrame, func(unsent []*cdr.Encoder) {
		// Requests in a failed write batch never left (or only partially
		// left) this host: fail them with TRANSIENT — the historic
		// synchronous-send contract, which lets the caller retry or fail
		// over to another profile — before the drop converts everything
		// already on the wire to COMM_FAILURE (completion unknown).
		c.failUnsent(unsent)
		c.pool.drop(c, Systemf(CodeCommFailure, "connection to %s lost", c.pool.endpoint))
	})
	p.conns = append(p.conns, c)
	p.health.dialOK()
	p.cond.Broadcast()
	p.mu.Unlock()

	go c.readLoop()
	return c, nil
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

// leastPendingLocked picks the live connection with the fewest in-flight
// requests.
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

// drop removes c from the pool and fails its pending calls.
func (p *endpointPool) drop(c *clientConn, cause *SystemError) {
	p.mu.Lock()
	for i, pc := range p.conns {
		if pc == c {
			p.conns = append(p.conns[:i], p.conns[i+1:]...)
			break
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	c.close(cause)
}

// closePool tears down every connection, rejects future gets, and unpins
// the pool's shared health record.
func (p *endpointPool) closePool(cause *SystemError) {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	for _, c := range conns {
		c.close(cause)
	}
	p.health.release()
}

// EndpointStats is a snapshot of one endpoint pool's health, for tests,
// tooling and operational introspection.
type EndpointStats struct {
	// Endpoint is the pooled endpoint ("tcp:host:port").
	Endpoint string
	// Conns is the number of live connections.
	Conns int
	// Pending is the total number of in-flight requests across them.
	Pending int
	// Dialing is the number of dials in flight.
	Dialing int
	// Failures is the consecutive dial-failure count, shared through the
	// HealthRegistry with every ORB dialing the same endpoint.
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
	// RetryExhausted is the cumulative number of calls failed fast by an
	// empty retry budget (see WithRetryBudget).
	RetryExhausted uint64
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
	p.mu.Lock()
	defer p.mu.Unlock()
	down, failures, _ := p.health.gate(time.Now())
	st := EndpointStats{
		Endpoint: p.endpoint,
		Conns:    len(p.conns),
		Dialing:  p.dialing,
		Failures: failures,
		Down:     down,
		RTT:      time.Duration(p.rttNanos.Load()),
	}
	for _, c := range p.conns {
		st.Pending += c.load()
	}
	if b := p.brk; b != nil {
		now := time.Now()
		b.mu.Lock()
		st.Breaker = b.stateLocked(now)
		st.BreakerProbes = b.probes
		st.BreakerOpens = b.opens
		b.mu.Unlock()
	}
	if rb := p.budget; rb != nil {
		rb.mu.Lock()
		st.RetryExhausted = rb.exhausted
		rb.mu.Unlock()
	}
	return st, ok
}

// EndpointRTT returns the EWMA round-trip estimate this ORB has measured
// against endpoint ("tcp:host:port", the prefix optional), or zero when no
// successful call has been observed. Latency-aware relay-tree planning
// feeds on it.
func (o *ORB) EndpointRTT(endpoint string) time.Duration {
	if !strings.HasPrefix(endpoint, "tcp:") {
		endpoint = "tcp:" + endpoint
	}
	o.connMu.Lock()
	p, ok := o.pools[endpoint]
	o.connMu.Unlock()
	if !ok {
		return 0
	}
	return time.Duration(p.rttNanos.Load())
}

func (c *clientConn) register(id uint64, ch chan reply) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Systemf(CodeTransient, "connection to %s closed", c.pool.endpoint)
	}
	c.pending[id] = ch
	return nil
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

// send hands a complete request frame (a pooled encoder, ownership
// included) to the connection's combining writer. On success the writer
// releases the encoder after the frame is written (often by this very
// goroutine, inline, batched with whatever concurrent callers enqueued
// meanwhile); on error the caller still owns it. A full queue blocks
// until a combiner drains or the connection dies.
func (c *clientConn) send(enc *cdr.Encoder) error {
	select {
	case c.w.q <- enc:
	case <-c.stop:
		return Systemf(CodeCommFailure, "connection to %s closed", c.pool.endpoint)
	}
	c.w.combine()
	return nil
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
// Frames are read into pooled buffers when the transport supports reuse
// (rep.fb tracks ownership; the caller that consumes the reply releases
// the buffer) and into fresh allocations otherwise.
func (c *clientConn) readLoop() {
	rr, _ := c.tc.(frameReuseReader)
	for {
		var (
			frame []byte
			fb    *frameBuf
			err   error
		)
		if rr != nil {
			fb = getFrameBuf()
			fb.b, err = rr.ReadFrameReuse(fb.b)
			frame = fb.b
		} else {
			frame, err = c.tc.ReadFrame()
		}
		if err != nil {
			putFrameBuf(fb)
			c.pool.drop(c, Systemf(CodeCommFailure, "connection to %s lost", c.pool.endpoint))
			return
		}
		rep, err := decodeReply(frame)
		if err != nil {
			putFrameBuf(fb)
			c.pool.drop(c, Systemf(CodeCommFailure, "connection to %s lost", c.pool.endpoint))
			return
		}
		rep.fb = fb
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

// close fails every pending call with a COMM_FAILURE-style reply and
// stops the writer goroutine. A call in flight when the connection dies
// has unknown completion.
func (c *clientConn) close(cause *SystemError) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	pending := c.pending
	c.pending = make(map[uint64]chan reply)
	c.mu.Unlock()

	close(c.stop)
	c.tc.Close()
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
