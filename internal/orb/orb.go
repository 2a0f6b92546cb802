// Package orb is the distribution substrate: a GIOP-lite object request
// broker standing in for the CORBA ORB the paper assumes.
//
// It provides what the Activity Service needs from CORBA and nothing more:
// interoperable object references (IOR), an object adapter dispatching
// operations to servants, location-transparent invocation over an
// in-process fast path or framed TCP, per-request service contexts (used
// for implicit activity/transaction context propagation), client/server
// interceptors, CORBA-style system exceptions, and a name service.
//
// The substitution is documented in docs/ARCHITECTURE.md: the wire format
// is not IIOP, but it preserves the properties the paper relies on —
// request/reply with service contexts and the standard failure surface
// (TRANSIENT, COMM_FAILURE, OBJECT_NOT_EXIST).
//
// # Object references
//
// IORs carry an ordered list of endpoint profiles (ior.go), like real
// CORBA IORs carry tagged profiles, so a reference survives the loss of a
// single endpoint. An ORB listening on several addresses (Listen may be
// called repeatedly) mints every bound endpoint into its references;
// WithAdvertised overrides the list for NAT or load-balancer fronting.
//
// # Client transport
//
// Outgoing TCP invocations run over a pluggable Transport (transport.go)
// behind a per-endpoint connection pool (client.go): up to WithPoolSize
// connections per endpoint — exclusive lanes (lane.go), on which a lone
// call writes its request and reads its own reply and the server
// dispatches it on the connection's read loop, plus one shared
// connection multiplexing every call that finds the lanes busy
// (least-pending pick) — automatic reconnect under jittered exponential
// backoff, and a dial health gate so a dead peer fails fast (TRANSIENT)
// instead of being re-dialed on every call. The pool is the only state this ORB keeps per endpoint — gate,
// breaker and RTT estimate, under one lock. Pools grow only under callers:
// an invoke that finds its pool below the bound dials inline, and
// concurrent callers dial in parallel. Above the pools, an
// endpoint selector orders a reference's profiles — sticky (endpoint,
// key) affinity first, then healthy profiles nearest first — and fails
// the call over to the next profile on any TRANSIENT outcome, within the
// caller's deadline. ChaosTransport (chaos.go) is a TCP transport whose
// injectable faults — latency, drops, resets, one-way partitions, per-op
// and per-address rules — hit lanes and shared connections alike, so the
// failure modes extended transactions exist to survive can be exercised
// deterministically in tests.
//
// # Overload protection
//
// Above the health gate each pool can run a three-state circuit breaker
// (WithCircuitBreaker), fed by one consecutive call-failure count: against
// a failing endpoint it admits threshold attempts, then one probe per open
// window, so at-least-once retry loops cannot turn a failing or flapping
// endpoint into a retry storm; EndpointStats exposes the breaker state.
// The server side is guarded by admission control (WithMaxInflight): a
// bounded number of concurrent dispatches plus a wait queue of twice that
// many requests, each shed after 100ms, shared by every listener, with the
// excess shed fast as TRANSIENT instead of piling up goroutines behind a
// slow servant; WithPriorityOps reserves some of the slots for completion
// and replication verbs. ServerStats exposes the gauges. The
// well-known orb-admin servant (admin.go) answers one "metrics" scrape:
// both stats surfaces and every SetMetrics source as a list of named
// samples. See docs/ARCHITECTURE.md for the failure-semantics table tying
// the mechanisms together.
package orb

import (
	"container/list"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/ids"
)

// Servant is an object implementation. Dispatch handles one operation,
// decoding arguments from in and returning the encoded reply body.
// Returning a *SystemError produces a system exception at the caller;
// any other error arrives as a *RemoteError.
//
// CodeTransient carries a contract: it asserts the operation had no
// effect ("the servant did not run"), which is what lets the client both
// retry and transparently fail a multi-profile invocation over to
// another replica. A servant must not return a bare TRANSIENT
// *SystemError after performing side effects — use any other error (or a
// wrapped one, which crosses the wire as a RemoteError) for
// partially-completed work.
//
// Buffer ownership: the decoder (and every []byte it lends — ReadBytes
// results, and on the network path the request body itself) is only
// valid for the duration of Dispatch; the ORB recycles the underlying
// frame buffer afterwards. A servant that retains bytes past its return
// must copy them with cdr.Clone, and must never retain the decoder
// itself (it is pooled). Returning a slice that aliases the request (an
// echo servant) is safe: the reply is encoded before the frame is
// reused.
type Servant interface {
	// Dispatch handles one operation against this object.
	Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error)
}

// ServantFunc adapts a function to the Servant interface.
type ServantFunc func(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error)

// Dispatch implements Servant.
func (f ServantFunc) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	return f(ctx, op, in)
}

// RemoteError is a user (application) error raised by a remote servant.
type RemoteError struct {
	// Message is the servant's error text.
	Message string
}

// Error implements error.
func (e *RemoteError) Error() string { return e.Message }

// ClientInterceptor runs before an outgoing invocation; it returns service
// contexts to attach to the request (e.g. the current activity context).
type ClientInterceptor func(ctx context.Context, ref IOR, op string) ([]ServiceContext, error)

// ServerInterceptor runs before dispatch on the receiving side; it derives
// the handler context from the request's service contexts (e.g. resuming
// the propagated activity).
type ServerInterceptor func(ctx context.Context, contexts []ServiceContext) (context.Context, error)

// inprocRegistry locates ORBs in this process by id, so "inproc:" IORs work
// across ORB instances without a network hop.
var inprocRegistry sync.Map // string -> *ORB

type servantEntry struct {
	servant Servant
	typeID  string
}

// ORB is an object request broker: object adapter, client and server
// transports, and interceptor chains.
type ORB struct {
	id          string
	gen         *ids.Generator
	callTimeout time.Duration

	// Client transport configuration (see client.go, breaker.go), fixed
	// at New.
	transport    Transport
	poolSize     int
	dialTimeout  time.Duration
	backoffMin   time.Duration
	backoffMax   time.Duration
	brkThreshold int
	brkOpenFor   time.Duration

	// Server admission configuration (see admission.go).
	maxInflight int
	prioReserve int

	mu         sync.RWMutex
	servants   map[string]servantEntry
	clientIC   []ClientInterceptor
	serverIC   []ServerInterceptor
	bound      []string // "tcp:host:port" per listener, in Listen order
	advertised []string // endpoints minted into IORs instead of bound
	shutdown   bool
	metrics    map[string]func(emit func(Sample)) // SetMetrics sources, by name

	srvs []*server
	adm  *admission // shared by every listener; nil = unbounded dispatch

	connMu      sync.Mutex
	pools       map[string]*endpointPool
	poolsClosed bool
	reqID       atomic.Uint64

	// sweep is the idle-lane sweep's timer (lane.go), under connMu; nil
	// until the first lane is dialed.
	sweep *time.Timer

	// Server dispatch counters (ServerStats), over every listener and
	// both dispatch paths; admin scrapes on their bypass slots are not
	// counted.
	dispatched atomic.Uint64
	inflight   atomic.Int64

	// affMu guards the sticky (key → endpoint) affinity state the
	// endpoint selector consults so multi-profile invocations for one
	// object keep landing on the replica that served it last: affinity
	// indexes entries of affOrder, the recency list whose back is
	// evicted at maxAffinityEntries (see client.go).
	affMu    sync.Mutex
	affinity map[string]*list.Element
	affOrder *list.List
}

// ORBOption configures an ORB.
type ORBOption interface {
	apply(*ORB)
}

type orbOptionFunc func(*ORB)

func (f orbOptionFunc) apply(o *ORB) { f(o) }

// WithCallTimeout sets the default invocation deadline when the caller's
// context carries none.
func WithCallTimeout(d time.Duration) ORBOption {
	return orbOptionFunc(func(o *ORB) { o.callTimeout = d })
}

// WithTransport replaces the client transport used for outgoing TCP
// invocations (the default is TCPTransport). Use a ChaosTransport to
// inject faults.
func WithTransport(t Transport) ORBOption {
	return orbOptionFunc(func(o *ORB) {
		if t != nil {
			o.transport = t
		}
	})
}

// WithAdvertised overrides the endpoints minted into this ORB's object
// references: references carry the given endpoints, in order, instead of
// the locally bound listener addresses. Hosts behind NAT or a load
// balancer advertise their externally reachable addresses this way.
// Endpoints without a scheme prefix are taken as "tcp:host:port".
func WithAdvertised(endpoints ...string) ORBOption {
	return orbOptionFunc(func(o *ORB) {
		for _, ep := range endpoints {
			if ep != "" {
				o.advertised = append(o.advertised, canonicalEndpoint(ep))
			}
		}
	})
}

// WithPoolSize bounds the number of client connections the ORB keeps per
// endpoint: up to n−1 exclusive lanes, each carrying one call at a time,
// plus one shared connection multiplexing every call that finds the lanes
// busy. The default is 4; 1 keeps a single multiplexed connection, the
// behaviour of earlier versions.
func WithPoolSize(n int) ORBOption {
	return orbOptionFunc(func(o *ORB) {
		if n > 0 {
			o.poolSize = n
		}
	})
}

// WithDialTimeout bounds each connection attempt when the caller's context
// carries no deadline.
func WithDialTimeout(d time.Duration) ORBOption {
	return orbOptionFunc(func(o *ORB) {
		if d > 0 {
			o.dialTimeout = d
		}
	})
}

// WithReconnectBackoff sets the jittered exponential backoff window
// applied after consecutive dial failures: the first failure marks the
// endpoint down for ~min, doubling per failure up to max. While an
// endpoint is down, calls fail fast with TRANSIENT instead of re-dialing.
// A max below min is raised to min.
func WithReconnectBackoff(min, max time.Duration) ORBOption {
	return orbOptionFunc(func(o *ORB) {
		if min > 0 {
			o.backoffMin = min
		}
		if max > 0 {
			o.backoffMax = max
		}
		if o.backoffMax < o.backoffMin {
			o.backoffMax = o.backoffMin
		}
	})
}

// WithCircuitBreaker layers a per-endpoint three-state circuit breaker
// (closed / open / half-open) above the dial health gate: after threshold
// consecutive call failures the endpoint's circuit opens and every call
// fails fast with TRANSIENT for openFor; the first call after the window
// is admitted as a single probe (concurrent callers fail fast while it is
// in flight), and the probe's outcome closes or re-opens the circuit. An
// openFor of 0 selects the default window. The breaker is off unless
// threshold > 0.
func WithCircuitBreaker(threshold int, openFor time.Duration) ORBOption {
	return orbOptionFunc(func(o *ORB) {
		if threshold > 0 {
			o.brkThreshold = threshold
			o.brkOpenFor = openFor
			if openFor <= 0 {
				o.brkOpenFor = defaultBreakerOpenFor
			}
		}
	})
}

// WithMaxInflight bounds the number of concurrently dispatched requests on
// the server transport. Up to 2n excess requests wait in a queue and are
// shed with a TRANSIENT system exception when the queue is full or a
// request has waited 100ms, so a slow servant under high fan-in degrades
// into fast, explicit rejections instead of an unbounded goroutine
// pile-up. This is the one admission knob: the queue depth follows from
// it and the shed deadline is fixed. The default is 0 (unbounded, the
// historic behaviour).
func WithMaxInflight(n int) ORBOption {
	return orbOptionFunc(func(o *ORB) {
		if n > 0 {
			o.maxInflight = n
		}
	})
}

// DefaultPriorityOps is the operation set WithPriorityOps reserves slots
// for: the completion and recovery verbs of the transaction surface, plus
// WAL replication and coordinator-group election. Shedding a "commit" or
// "replay_completion" strands prepared participants in doubt, and shedding
// "repl_fetch" lets the warm standby fall behind exactly when load makes a
// primary most likely to die, and a shed "repl_claim" counts as no vote,
// so a loaded group could not elect a leader — while shedding a
// first-contact "begin" merely refuses new work. So under overload the
// completion and replication verbs must win.
var DefaultPriorityOps = []string{
	"prepare", "commit", "rollback", "commit_one_phase", "forget",
	"replay_completion", "recover", "complete",
	"repl_state", "repl_fetch", "repl_snapshot", "repl_claim",
}

// WithPriorityOps reserves n of the WithMaxInflight dispatch slots for a
// priority admission class: requests whose operation name is in
// DefaultPriorityOps may use any slot, while other requests are confined
// to the remaining shared slots. Under overload the
// shared pool saturates and first-contact traffic is shed, but completion
// and recovery verbs still find the reservation — in-doubt transactions
// converge instead of being starved by the very load that made them
// in-doubt. The reservation is clamped to leave at least one shared slot
// and has no effect unless WithMaxInflight is set.
func WithPriorityOps(n int) ORBOption {
	return orbOptionFunc(func(o *ORB) {
		if n > 0 {
			o.prioReserve = n
		}
	})
}

// SetMetrics registers fn as the metrics source called name: every
// Metrics collection (and so every orb-admin "metrics" scrape) calls fn,
// and each sample it emits is named "<name>.<sample name>". A second call
// under the same name replaces the source — a service re-hosted after a
// takeover reports once, not twice — and a nil fn removes it. fn must be
// safe for concurrent use; it runs without ORB locks held.
func (o *ORB) SetMetrics(name string, fn func(emit func(Sample))) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if fn == nil {
		delete(o.metrics, name)
		return
	}
	o.metrics[name] = fn
}

// New returns a running ORB (in-process only until Listen is called).
func New(opts ...ORBOption) *ORB {
	gen := ids.NewGenerator()
	o := &ORB{
		id:          gen.New().String(),
		gen:         gen,
		callTimeout: 10 * time.Second,
		transport:   TCPTransport{},
		poolSize:    defaultPoolSize,
		dialTimeout: defaultDialTimeout,
		backoffMin:  defaultBackoffMin,
		backoffMax:  defaultBackoffMax,
		servants:    make(map[string]servantEntry),
		metrics:     make(map[string]func(emit func(Sample))),
		pools:       make(map[string]*endpointPool),
	}
	for _, opt := range opts {
		opt.apply(o)
	}
	inprocRegistry.Store(o.id, o)
	return o
}

// ID returns the ORB's process-unique identifier.
func (o *ORB) ID() string { return o.id }

// AddClientInterceptor appends an interceptor to the outgoing chain.
func (o *ORB) AddClientInterceptor(ic ClientInterceptor) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.clientIC = append(o.clientIC, ic)
}

// AddServerInterceptor appends an interceptor to the incoming chain.
func (o *ORB) AddServerInterceptor(ic ServerInterceptor) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.serverIC = append(o.serverIC, ic)
}

// RegisterServant activates s under a fresh key and returns its IOR.
func (o *ORB) RegisterServant(typeID string, s Servant) IOR {
	return o.RegisterServantWithKey(o.gen.New().String(), typeID, s)
}

// RegisterServantWithKey activates s under the given key (stable keys
// support recovery: a restarted server re-registers servants under the keys
// embedded in persisted IORs).
func (o *ORB) RegisterServantWithKey(key, typeID string, s Servant) IOR {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.servants[key] = servantEntry{servant: s, typeID: typeID}
	return o.iorLocked(key, typeID)
}

// hasServant reports whether a servant is active under key.
func (o *ORB) hasServant(key string) bool {
	o.mu.RLock()
	defer o.mu.RUnlock()
	_, ok := o.servants[key]
	return ok
}

// Servant returns the servant active under key, so a servant can reach
// its colocated peers without a call through the ORB.
func (o *ORB) Servant(key string) (Servant, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	e, ok := o.servants[key]
	return e.servant, ok
}

// Deactivate removes the servant under key.
func (o *ORB) Deactivate(key string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	delete(o.servants, key)
}

// IOR returns the current reference for an activated key.
func (o *ORB) IOR(key string) (IOR, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	e, ok := o.servants[key]
	if !ok {
		return IOR{}, false
	}
	return o.iorLocked(key, e.typeID), true
}

func (o *ORB) iorLocked(key, typeID string) IOR {
	eps := o.advertised
	if len(eps) == 0 {
		eps = o.bound
	}
	if len(eps) == 0 {
		eps = []string{"inproc:" + o.id}
	}
	return NewIOR(typeID, key, eps...)
}

// Endpoint returns the primary network endpoint ("tcp:host:port") once
// listening, or the in-process endpoint otherwise.
func (o *ORB) Endpoint() string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if len(o.bound) > 0 {
		return o.bound[0]
	}
	return "inproc:" + o.id
}

// Endpoints returns every bound listener endpoint in Listen order, or the
// in-process endpoint when the ORB is not listening. References minted by
// the ORB carry all of them as profiles (unless WithAdvertised overrides
// the list), so clients ride over the loss of any single listener.
func (o *ORB) Endpoints() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if len(o.bound) > 0 {
		return append([]string(nil), o.bound...)
	}
	return []string{"inproc:" + o.id}
}

// Shutdown stops the server transport, closes client connections and
// deactivates the ORB. It is idempotent.
func (o *ORB) Shutdown() {
	o.mu.Lock()
	if o.shutdown {
		o.mu.Unlock()
		return
	}
	o.shutdown = true
	srvs := o.srvs
	o.srvs = nil
	o.mu.Unlock()

	inprocRegistry.Delete(o.id)
	for _, srv := range srvs {
		srv.stop()
	}
	o.connMu.Lock()
	o.poolsClosed = true
	pools := o.pools
	o.pools = nil
	if o.sweep != nil {
		o.sweep.Stop()
	}
	o.connMu.Unlock()
	for _, p := range pools {
		p.closePool(Systemf(CodeCommFailure, "orb shut down"))
	}
}

// Invoke calls operation op on the object ref with the given request body.
// It chooses the in-process fast path when ref lives in this process and
// TCP otherwise. The reply body is returned on success.
func (o *ORB) Invoke(ctx context.Context, ref IOR, op string, body []byte) ([]byte, error) {
	if ref.IsZero() {
		return nil, Systemf(CodeObjectNotExist, "nil object reference")
	}
	o.mu.RLock()
	ics := o.clientIC
	down := o.shutdown
	o.mu.RUnlock()
	if down {
		return nil, Systemf(CodeCommFailure, "orb shut down")
	}

	var contexts []ServiceContext
	for _, ic := range ics {
		cs, err := ic(ctx, ref, op)
		if err != nil {
			return nil, fmt.Errorf("orb: client interceptor: %w", err)
		}
		contexts = append(contexts, cs...)
	}

	if target, ok := o.localTarget(ref); ok {
		rep := target.dispatch(ctx, request{
			requestID: o.reqID.Add(1),
			objectKey: ref.Key,
			operation: op,
			contexts:  contexts,
			body:      body,
		})
		return replyToResult(rep)
	}
	return o.invokeRemote(ctx, ref, op, contexts, body)
}

// localTarget resolves ref to an ORB in this process, if any of its
// profiles allows it: an "inproc:" profile naming a live local ORB, or a
// TCP profile matching one of this ORB's own bound endpoints (the
// self-reference short circuit).
func (o *ORB) localTarget(ref IOR) (*ORB, bool) {
	for _, p := range ref.Profiles {
		if id, ok := strings.CutPrefix(p.Endpoint, "inproc:"); ok {
			if v, ok := inprocRegistry.Load(id); ok {
				return v.(*ORB), true
			}
			continue
		}
		o.mu.RLock()
		for _, bound := range o.bound {
			if p.Endpoint == bound {
				o.mu.RUnlock()
				return o, true
			}
		}
		o.mu.RUnlock()
	}
	return nil, false
}

// dispatch runs a request against the local object adapter (the
// in-process invoke path).
func (o *ORB) dispatch(ctx context.Context, req request) reply {
	o.mu.RLock()
	entry, ok := o.servants[req.objectKey]
	ics := o.serverIC
	o.mu.RUnlock()
	if !ok {
		return errorReply(req.requestID, Systemf(CodeObjectNotExist, "key %q", req.objectKey))
	}
	return o.dispatchEntry(ctx, entry, ics, req.requestID, req.operation, req.contexts, req.body)
}

// dispatchWire runs a wire-decoded request against the object adapter
// without materializing its strings: the servant lookup runs directly on
// the lent key bytes (a map[string] lookup on string(b) compiles
// allocation-free) and the operation name is interned, so the server's
// steady-state dispatch allocates nothing for routing.
func (o *ORB) dispatchWire(ctx context.Context, req wireRequest) reply {
	o.mu.RLock()
	entry, ok := o.servants[string(req.objectKey)]
	ics := o.serverIC
	o.mu.RUnlock()
	if !ok {
		return errorReply(req.requestID, Systemf(CodeObjectNotExist, "key %q", req.objectKey))
	}
	return o.dispatchEntry(ctx, entry, ics, req.requestID, internOp(req.operation), req.contexts, req.body)
}

// dispatchEntry is the shared tail of dispatch/dispatchWire: interceptor
// chain, then the servant.
func (o *ORB) dispatchEntry(ctx context.Context, entry servantEntry, ics []ServerInterceptor, requestID uint64, op string, contexts []ServiceContext, body []byte) reply {
	for _, ic := range ics {
		var err error
		ctx, err = ic(ctx, contexts)
		if err != nil {
			return errorReply(requestID, Systemf(CodeTransient, "server interceptor: %v", err))
		}
	}
	// The argument decoder is pooled: servants read from it during
	// Dispatch and must not retain it (nor, without cdr.Clone, any []byte
	// it lends — see the Servant contract).
	d := cdr.GetDecoder(body)
	out, err := entry.servant.Dispatch(ctx, op, d)
	cdr.PutDecoder(d)
	if err != nil {
		return errorReply(requestID, err)
	}
	return reply{requestID: requestID, status: replyOK, body: out}
}

// maxInternedOps bounds the operation-name intern table. Operation names
// are protocol verbs — a small closed set in practice — but the bound
// makes sure a hostile client spraying random names cannot grow the
// table; overflow names just pay their one string allocation.
const maxInternedOps = 256

// opIntern deduplicates operation-name strings across requests, so the
// hot dispatch path converts the lent wire bytes to a string without
// allocating (the read path is a map[string] lookup on string(b), which
// the compiler performs allocation-free).
var opIntern = struct {
	sync.RWMutex
	m map[string]string
}{m: make(map[string]string)}

// internOp returns the canonical string for an operation name's bytes.
func internOp(b []byte) string {
	opIntern.RLock()
	s, ok := opIntern.m[string(b)]
	opIntern.RUnlock()
	if ok {
		return s
	}
	opIntern.Lock()
	defer opIntern.Unlock()
	if s, ok = opIntern.m[string(b)]; ok {
		return s
	}
	s = string(b)
	if len(opIntern.m) < maxInternedOps {
		opIntern.m[s] = s
	}
	return s
}

// errorReply encodes an error into a reply message.
func errorReply(requestID uint64, err error) reply {
	if se, ok := err.(*SystemError); ok {
		return reply{
			requestID: requestID,
			status:    replySystemErr,
			errCode:   string(se.Code),
			errDetail: se.Detail,
		}
	}
	return reply{
		requestID: requestID,
		status:    replyUserErr,
		errCode:   string(codeApplication),
		errDetail: err.Error(),
	}
}

// replyToResult converts a reply message back into (body, error). A body
// lent from a pooled frame buffer is cloned into a caller-owned slice and
// the buffer is recycled; local replies (no backing frame) pass their
// body through untouched.
func replyToResult(rep reply) ([]byte, error) {
	body := rep.body
	if rep.fb != nil {
		if rep.status == replyOK {
			body = cdr.Clone(body)
		}
		rep.release()
	}
	switch rep.status {
	case replyOK:
		return body, nil
	case replySystemErr:
		return nil, &SystemError{Code: ExceptionCode(rep.errCode), Detail: rep.errDetail}
	default:
		return nil, &RemoteError{Message: rep.errDetail}
	}
}
