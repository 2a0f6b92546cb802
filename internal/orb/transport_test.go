package orb

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// startServer spins up an ORB serving one servant and returns the client's
// view of it.
func startServer(t *testing.T, s Servant) (*ORB, IOR) {
	t.Helper()
	srv := New()
	t.Cleanup(srv.Shutdown)
	ref := srv.RegisterServant("IDL:test/Echo:1.0", s)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = srv.IOR(ref.Key)
	return srv, ref
}

// countingServant replies "pong" after an optional delay, counting dispatches.
type countingServant struct {
	delay time.Duration
	calls atomic.Int32
}

func (s *countingServant) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	s.calls.Add(1)
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
		}
	}
	return []byte("pong"), nil
}

// TestPoolGrowsToBoundAndMultiplexes drives concurrent invocations through
// a bounded pool and checks the pool never exceeds its bound while still
// serving everything.
func TestPoolGrowsToBoundAndMultiplexes(t *testing.T) {
	_, ref := startServer(t, &countingServant{delay: 30 * time.Millisecond})
	client := New(WithPoolSize(3))
	defer client.Shutdown()

	const calls = 12
	var over atomic.Bool
	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if st, ok := client.EndpointStats(ref.Endpoint()); ok && st.Conns > 3 {
				over.Store(true)
			}
		}
	}()

	var wg sync.WaitGroup
	ctx := context.Background()
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = client.Invoke(ctx, ref, "ping", nil)
		}()
	}
	wg.Wait()
	close(stop)
	<-watched

	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if over.Load() {
		t.Fatal("pool exceeded its bound of 3 connections")
	}
	st, ok := client.EndpointStats(ref.Endpoint())
	if !ok {
		t.Fatal("no pool stats for endpoint")
	}
	if st.Conns < 2 || st.Conns > 3 {
		t.Fatalf("pool holds %d conns after concurrent burst, want 2..3", st.Conns)
	}
	if st.Pending != 0 {
		t.Fatalf("pool reports %d pending after quiesce", st.Pending)
	}
}

// TestPoolSizeOneKeepsSingleConnection pins the backwards-compatible
// single-connection mode.
func TestPoolSizeOneKeepsSingleConnection(t *testing.T) {
	_, ref := startServer(t, &countingServant{delay: 10 * time.Millisecond})
	client := New(WithPoolSize(1))
	defer client.Shutdown()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Invoke(context.Background(), ref, "ping", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if st, _ := client.EndpointStats(ref.Endpoint()); st.Conns != 1 {
		t.Fatalf("pool holds %d conns, want exactly 1", st.Conns)
	}
}

// deadEndpoint reserves a port with nothing listening on it.
func deadEndpoint(t *testing.T) IOR {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return NewIOR("IDL:test/Echo:1.0", "nobody", "tcp:"+addr)
}

// readFirstResetTransport dials connections that break on the first write
// with the read side noticing first: WriteFrame makes ReadFrame fail, then
// holds its own error until the client has closed the connection in
// response — the ordering a peer reset can produce, made deterministic.
// With sent set, WriteFrame reports the frame written before the read
// side breaks. With hold set, the first write sends on it once when it
// starts and again before it breaks the read side, so the test can queue
// more frames behind it.
type readFirstResetTransport struct {
	sent bool
	hold chan struct{}
}

func (t readFirstResetTransport) Dial(context.Context, string) (Conn, error) {
	return &readFirstResetConn{sent: t.sent, hold: t.hold,
		broken: make(chan struct{}), closed: make(chan struct{})}, nil
}

type readFirstResetConn struct {
	sent                 bool
	hold, broken, closed chan struct{}
	breakOnce, closeOnce sync.Once
}

func (c *readFirstResetConn) WriteFrame([]byte) error {
	c.breakOnce.Do(func() {
		if c.hold != nil {
			c.hold <- struct{}{} // the write has started
			c.hold <- struct{}{} // the test lets it go on
		}
		close(c.broken)
	})
	if c.sent {
		return nil
	}
	<-c.closed
	return errors.New("connection reset by peer")
}

func (c *readFirstResetConn) ReadFrame() ([]byte, error) {
	select {
	case <-c.broken:
	case <-c.closed:
	}
	return nil, errors.New("connection reset by peer")
}

func (c *readFirstResetConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// TestPoolUnsentFrameTransientWhenReaderSeesResetFirst pins the failure
// code of a request lost with its connection: a frame that never reached
// the transport fails TRANSIENT (the servant never ran, so the caller may
// fail over) even when the read loop tears the connection down before the
// writer learns its frame did not go out — including a frame queued
// behind the failing write — while a frame the transport accepted fails
// COMM_FAILURE (completion unknown).
func TestPoolUnsentFrameTransientWhenReaderSeesResetFirst(t *testing.T) {
	ref := NewIOR("IDL:test/Echo:1.0", "obj", "tcp:127.0.0.1:1")
	for _, tc := range []struct {
		sent bool
		want ExceptionCode
	}{{false, CodeTransient}, {true, CodeCommFailure}} {
		client := New(WithTransport(readFirstResetTransport{sent: tc.sent}))
		_, err := client.Invoke(context.Background(), ref, "ping", nil)
		client.Shutdown()
		if !IsSystem(err, tc.want) {
			t.Fatalf("frame sent=%v: err = %v, want %s", tc.sent, err, tc.want)
		}
	}

	// Two callers share one connection: the first one's frame is stuck in
	// the write, the second one's waits in the queue behind it when the
	// read side breaks. Neither frame reached the transport.
	hold := make(chan struct{})
	client := New(WithTransport(readFirstResetTransport{hold: hold}), WithPoolSize(1))
	defer client.Shutdown()
	errs := make(chan error, 2)
	invoke := func() {
		_, err := client.Invoke(context.Background(), ref, "ping", nil)
		errs <- err
	}
	go invoke()
	<-hold // the first frame's write has started
	go invoke()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := client.EndpointStats(ref.Endpoint()); st.Pending == 2 {
			break // registered, so queued (send does both under one lock)
		}
		if time.Now().After(deadline) {
			t.Fatal("second call never queued")
		}
	}
	<-hold
	for i := 0; i < 2; i++ {
		if err := <-errs; !IsSystem(err, CodeTransient) {
			t.Fatalf("caller %d: err = %v, want TRANSIENT", i, err)
		}
	}
}

// lateReplyTransport dials connections whose every write overruns the
// call deadline by delay and then hands the reply to the read loop,
// returning only once the loop has delivered it: the caller leaves its
// inline write with both the reply and its expired deadline ready.
type lateReplyTransport struct{ delay time.Duration }

func (t lateReplyTransport) Dial(context.Context, string) (Conn, error) {
	return &lateReplyConn{delay: t.delay, delivered: make(chan struct{}),
		replies: make(chan []byte), closed: make(chan struct{})}, nil
}

type lateReplyConn struct {
	delay     time.Duration
	replies   chan []byte
	delivered chan struct{} // the read loop is back for the next frame
	handed    bool          // read loop only: a reply went out
	closed    chan struct{}
	closeOnce sync.Once
}

func (c *lateReplyConn) WriteFrame(p []byte) error {
	req, err := decodeRequest(p)
	if err != nil {
		return err
	}
	time.Sleep(c.delay)
	enc := encodeReplyFrame(reply{requestID: req.requestID, status: replyOK, body: []byte("late")})
	frame := append([]byte(nil), enc.FramePayload()...)
	cdr.PutEncoder(enc)
	c.replies <- frame
	<-c.delivered
	return nil
}

func (c *lateReplyConn) ReadFrame() ([]byte, error) {
	if c.handed {
		select {
		case c.delivered <- struct{}{}:
		case <-c.closed:
			return nil, net.ErrClosed
		}
	}
	select {
	case f := <-c.replies:
		c.handed = true
		return f, nil
	case <-c.closed:
		return nil, net.ErrClosed
	}
}

func (c *lateReplyConn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return nil
}

// TestInvokeLateReplyAfterDeadlineTimesOut pins the call timeout against
// a reply that is already waiting when the caller gets back from a write
// that overran its deadline: the call reports TIMEOUT, never the late
// success.
func TestInvokeLateReplyAfterDeadlineTimesOut(t *testing.T) {
	ref := NewIOR("IDL:test/Echo:1.0", "obj", "tcp:127.0.0.1:1")
	client := New(WithTransport(lateReplyTransport{delay: 40 * time.Millisecond}),
		WithCallTimeout(20*time.Millisecond))
	defer client.Shutdown()
	for i := 0; i < 10; i++ {
		if body, err := client.Invoke(context.Background(), ref, "ping", nil); !IsSystem(err, CodeTimeout) {
			t.Fatalf("call %d: body %q, err = %v, want TIMEOUT", i, body, err)
		}
	}
}

// TestPoolFailsFastWhileEndpointDown checks the health gate: after a dial
// failure the endpoint is marked down and calls fail immediately without
// re-dialing.
func TestPoolFailsFastWhileEndpointDown(t *testing.T) {
	ref := deadEndpoint(t)
	client := New(
		WithReconnectBackoff(500*time.Millisecond, 500*time.Millisecond),
	)
	defer client.Shutdown()
	ctx := context.Background()

	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
		t.Fatalf("first call: err = %v, want TRANSIENT", err)
	}
	start := time.Now()
	_, err := client.Invoke(ctx, ref, "ping", nil)
	if !IsSystem(err, CodeTransient) {
		t.Fatalf("second call: err = %v, want TRANSIENT", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("second call took %s; the health gate should fail fast", elapsed)
	}
	st, ok := client.EndpointStats(ref.Endpoint())
	if !ok || !st.Down || st.Failures == 0 {
		t.Fatalf("stats = %+v, want down with failures recorded", st)
	}
}

// flakyTransport fails the first n dials, then delegates to TCP. It counts
// dial attempts so tests can prove the health gate suppressed re-dialing.
type flakyTransport struct {
	mu       sync.Mutex
	failures int
	dials    int
}

func (f *flakyTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	f.mu.Lock()
	f.dials++
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		return nil, errors.New("synthetic dial failure")
	}
	return TCPTransport{}.Dial(ctx, addr)
}

func (f *flakyTransport) dialCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials
}

// TestPoolReconnectsAfterBackoffWindow proves the reconnect lifecycle: a
// failed dial opens the down window (no dials during it), and the first
// call after the window probes again and succeeds.
func TestPoolReconnectsAfterBackoffWindow(t *testing.T) {
	_, ref := startServer(t, &countingServant{})
	flaky := &flakyTransport{failures: 1}
	client := New(
		WithTransport(flaky),
		WithReconnectBackoff(30*time.Millisecond, 30*time.Millisecond),
	)
	defer client.Shutdown()
	ctx := context.Background()

	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
		t.Fatalf("call during synthetic failure: err = %v, want TRANSIENT", err)
	}
	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
		t.Fatalf("call during down window: err = %v, want TRANSIENT", err)
	}
	if got := flaky.dialCount(); got != 1 {
		t.Fatalf("dials during down window = %d, want 1 (fail fast, no re-dial)", got)
	}

	time.Sleep(40 * time.Millisecond) // let the window expire
	body, err := client.Invoke(ctx, ref, "ping", nil)
	if err != nil {
		t.Fatalf("call after window: %v", err)
	}
	if string(body) != "pong" {
		t.Fatalf("body = %q", body)
	}
	if got := flaky.dialCount(); got != 2 {
		t.Fatalf("dials after recovery = %d, want 2", got)
	}
	if st, _ := client.EndpointStats(ref.Endpoint()); st.Down || st.Failures != 0 {
		t.Fatalf("stats after recovery = %+v, want healthy", st)
	}
}

// blockingFailTransport takes delay per dial attempt and always fails.
type blockingFailTransport struct {
	mu    sync.Mutex
	delay time.Duration
	dials int
}

func (f *blockingFailTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	f.mu.Lock()
	f.dials++
	f.mu.Unlock()
	time.Sleep(f.delay)
	return nil, errors.New("synthetic dial failure")
}

func (f *blockingFailTransport) dialCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials
}

// TestPoolProbeIsSingleFlight proves that when the down window expires,
// exactly one of many concurrent callers re-probes the endpoint; the rest
// wait for its verdict instead of bursting dials at a recovering peer.
func TestPoolProbeIsSingleFlight(t *testing.T) {
	ref := deadEndpoint(t)
	transport := &blockingFailTransport{delay: 30 * time.Millisecond}
	client := New(
		WithTransport(transport),
		WithReconnectBackoff(30*time.Millisecond, 30*time.Millisecond),
	)
	defer client.Shutdown()
	ctx := context.Background()

	// Open the down window.
	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
		t.Fatalf("first call: err = %v, want TRANSIENT", err)
	}
	time.Sleep(40 * time.Millisecond) // let the window expire

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
				t.Errorf("probe-window call: err = %v, want TRANSIENT", err)
			}
		}()
	}
	wg.Wait()
	if got := transport.dialCount(); got != 2 {
		t.Fatalf("dials = %d, want 2 (initial failure + one single-flight probe)", got)
	}
}

// TestPoolWaiterHonorsContextDeadline proves a caller waiting on someone
// else's in-flight dial is released at its own deadline, not the dialer's.
func TestPoolWaiterHonorsContextDeadline(t *testing.T) {
	ref := deadEndpoint(t)
	client := New(
		WithTransport(&blockingFailTransport{delay: 2 * time.Second}),
		WithPoolSize(1),
	)
	defer client.Shutdown()

	// Occupy the single dial slot with a patient caller.
	go func() {
		_, _ = client.Invoke(context.Background(), ref, "ping", nil)
	}()
	time.Sleep(20 * time.Millisecond) // let the dial get in flight

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Invoke(ctx, ref, "ping", nil)
	elapsed := time.Since(start)
	if !IsSystem(err, CodeTransient) {
		t.Fatalf("err = %v, want TRANSIENT", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("waiter released after %s; it should unblock at its own 50ms deadline", elapsed)
	}
}

// slowDialTransport waits delay before dialing TCP, honouring ctx.
type slowDialTransport struct {
	delay time.Duration
}

func (f slowDialTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	select {
	case <-time.After(f.delay):
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return TCPTransport{}.Dial(ctx, addr)
}

// TestPoolCanceledCallerDoesNotPoisonHealth proves a dial aborted by the
// caller's own context (a cancelled straggler, an expired deadline) leaves
// the endpoint's health gate untouched: the next caller connects normally.
func TestPoolCanceledCallerDoesNotPoisonHealth(t *testing.T) {
	_, ref := startServer(t, &countingServant{})
	client := New(
		WithTransport(slowDialTransport{delay: 80 * time.Millisecond}),
		WithReconnectBackoff(time.Second, time.Second),
	)
	defer client.Shutdown()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	_, err := client.Invoke(ctx, ref, "ping", nil)
	cancel()
	if !IsSystem(err, CodeTransient) && !IsSystem(err, CodeTimeout) {
		t.Fatalf("impatient caller: err = %v, want TRANSIENT or TIMEOUT", err)
	}

	if _, err := client.Invoke(context.Background(), ref, "ping", nil); err != nil {
		t.Fatalf("next caller against a healthy endpoint: %v", err)
	}
	if st, _ := client.EndpointStats(ref.Endpoint()); st.Down || st.Failures != 0 {
		t.Fatalf("stats = %+v; a caller's cancellation must not open the down window", st)
	}
}

// TestDialTimeoutAppliesUnderCallTimeout proves WithDialTimeout bounds the
// dial even though invokeTCP installs the (longer) call deadline first.
func TestDialTimeoutAppliesUnderCallTimeout(t *testing.T) {
	ref := deadEndpoint(t)
	client := New(
		WithTransport(slowDialTransport{delay: 30 * time.Second}),
		WithDialTimeout(50*time.Millisecond),
		WithCallTimeout(20*time.Second),
	)
	defer client.Shutdown()

	start := time.Now()
	_, err := client.Invoke(context.Background(), ref, "ping", nil)
	if !IsSystem(err, CodeTransient) {
		t.Fatalf("err = %v, want TRANSIENT", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dial ran %s; WithDialTimeout(50ms) should have bounded it", elapsed)
	}
}

// TestPoolCreationRefusedAfterShutdown pins the Shutdown/Invoke race
// guard: no new pool (and thus no unclosable connection) can be created
// once Shutdown has swapped the pool map out.
func TestPoolCreationRefusedAfterShutdown(t *testing.T) {
	o := New()
	o.Shutdown()
	if _, err := o.pool("127.0.0.1:1", "tcp:127.0.0.1:1"); !IsSystem(err, CodeCommFailure) {
		t.Fatalf("pool after shutdown: err = %v, want COMM_FAILURE", err)
	}
}

// TestReconnectBackoffOptionValidation pins the min/max normalisation.
func TestReconnectBackoffOptionValidation(t *testing.T) {
	o := New(WithReconnectBackoff(5*time.Second, time.Second))
	defer o.Shutdown()
	if o.backoffMin != 5*time.Second || o.backoffMax != 5*time.Second {
		t.Fatalf("backoff = [%s, %s], want max raised to min [5s, 5s]", o.backoffMin, o.backoffMax)
	}
}

// TestPoolLeastPendingPrefersIdleConn checks the pick: with the pool at
// its bound, a new call lands on the connection with the fewest in-flight
// requests.
func TestPoolLeastPendingPrefersIdleConn(t *testing.T) {
	_, ref := startServer(t, &countingServant{delay: 40 * time.Millisecond})
	client := New(WithPoolSize(2))
	defer client.Shutdown()
	ctx := context.Background()

	// Fill the pool with two in-flight calls (each dials one conn).
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Invoke(ctx, ref, "ping", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	// Wait until both connections exist and carry load.
	deadline := time.Now().Add(time.Second)
	for {
		st, _ := client.EndpointStats(ref.Endpoint())
		if st.Conns == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never reached 2 conns: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
	pool, err := client.pool(endpointHost(ref.Endpoint()), ref.Endpoint())
	if err != nil {
		t.Fatal(err)
	}
	pool.mu.Lock()
	c := pool.leastPendingLocked()
	load := c.load()
	pool.mu.Unlock()
	if load > 1 {
		t.Fatalf("least-pending pick carries %d in-flight, want <= 1", load)
	}
	wg.Wait()
}

// TestPoolShutdownFailsPendingCalls verifies Shutdown rejects new calls
// and fails in-flight ones with COMM_FAILURE.
func TestPoolShutdownFailsPendingCalls(t *testing.T) {
	_, ref := startServer(t, &countingServant{delay: 2 * time.Second})
	client := New()
	ctx := context.Background()

	errCh := make(chan error, 1)
	go func() {
		_, err := client.Invoke(ctx, ref, "ping", nil)
		errCh <- err
	}()
	// Let the call get in flight, then pull the rug.
	time.Sleep(50 * time.Millisecond)
	client.Shutdown()
	select {
	case err := <-errCh:
		if !IsSystem(err, CodeCommFailure) {
			t.Fatalf("in-flight call: err = %v, want COMM_FAILURE", err)
		}
	case <-time.After(time.Second):
		t.Fatal("in-flight call not failed by Shutdown")
	}
	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeCommFailure) {
		t.Fatalf("post-shutdown call: err = %v, want COMM_FAILURE", err)
	}
}

// TestPoolStatsUnknownEndpoint pins the miss case.
func TestPoolStatsUnknownEndpoint(t *testing.T) {
	client := New()
	defer client.Shutdown()
	if _, ok := client.EndpointStats("tcp:127.0.0.1:1"); ok {
		t.Fatal("stats reported for an endpoint never invoked")
	}
}

// TestBackoffGrowsAndCaps pins the jittered-backoff arithmetic.
func TestBackoffGrowsAndCaps(t *testing.T) {
	o := New(WithReconnectBackoff(40*time.Millisecond, 160*time.Millisecond))
	defer o.Shutdown()
	p := newEndpointPool(o, "tcp:x", "x")
	for failures, want := range map[int]time.Duration{
		1: 40 * time.Millisecond,
		2: 80 * time.Millisecond,
		3: 160 * time.Millisecond,
		9: 160 * time.Millisecond, // capped
	} {
		for i := 0; i < 20; i++ {
			d := p.backoffFor(failures)
			if d < want/2 || d > want {
				t.Fatalf("failures=%d: backoff %s outside [%s, %s]", failures, d, want/2, want)
			}
		}
	}
}

// TestPoolConcurrentEndpoints exercises pools for several endpoints at
// once — the remote-fanout shape — and checks isolation between them.
func TestPoolConcurrentEndpoints(t *testing.T) {
	const endpoints = 3
	refs := make([]IOR, endpoints)
	for i := range refs {
		_, refs[i] = startServer(t, &countingServant{delay: 5 * time.Millisecond})
	}
	client := New(WithPoolSize(2))
	defer client.Shutdown()

	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		ref := refs[i%endpoints]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Invoke(context.Background(), ref, "ping", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, ref := range refs {
		st, ok := client.EndpointStats(ref.Endpoint())
		if !ok || st.Conns == 0 || st.Conns > 2 {
			t.Fatalf("endpoint %d stats = %+v, want 1..2 conns", i, st)
		}
	}
}
