package orb

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBreakerOpensAfterThreshold drives consecutive failures into a
// breaker-equipped pool and checks the circuit opens and fails calls fast
// with the breaker's own TRANSIENT detail.
func TestBreakerOpensAfterThreshold(t *testing.T) {
	ref := deadEndpoint(t)
	transport := &blockingFailTransport{}
	client := New(
		WithTransport(transport),
		WithCircuitBreaker(2, time.Minute),
		WithReconnectBackoff(time.Millisecond, time.Millisecond),
	)
	defer client.Shutdown()
	ctx := context.Background()

	// Two consecutive failures cross the threshold.
	for i := 0; i < 2; i++ {
		if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
			t.Fatalf("failure %d: err = %v, want TRANSIENT", i+1, err)
		}
		time.Sleep(3 * time.Millisecond) // let the health-gate window lapse
	}
	dialsWhenOpened := transport.dialCount()

	_, err := client.Invoke(ctx, ref, "ping", nil)
	if !IsSystem(err, CodeTransient) || !strings.Contains(err.Error(), "circuit breaker") {
		t.Fatalf("call with open circuit: err = %v, want breaker TRANSIENT", err)
	}
	if got := transport.dialCount(); got != dialsWhenOpened {
		t.Fatalf("open circuit still dialed (%d -> %d dials)", dialsWhenOpened, got)
	}
	st, _ := client.EndpointStats(ref.Endpoint())
	if st.Breaker != BreakerOpen || st.BreakerOpens != 1 {
		t.Fatalf("stats = %+v, want open breaker with one open transition", st)
	}
}

// TestBreakerHalfOpenAdmitsSingleProbe proves the half-open window rations
// recovery: of many concurrent callers after the open window lapses,
// exactly one reaches the network as a probe; the rest fail fast.
func TestBreakerHalfOpenAdmitsSingleProbe(t *testing.T) {
	ref := deadEndpoint(t)
	transport := &blockingFailTransport{delay: 50 * time.Millisecond}
	client := New(
		WithTransport(transport),
		WithCircuitBreaker(1, 60*time.Millisecond),
		WithReconnectBackoff(time.Millisecond, time.Millisecond),
	)
	defer client.Shutdown()
	ctx := context.Background()

	// One failure opens the circuit (threshold 1).
	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
		t.Fatalf("opening failure: err = %v, want TRANSIENT", err)
	}
	time.Sleep(80 * time.Millisecond) // open window lapses; health gate long lapsed

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
				t.Errorf("half-open call: err = %v, want TRANSIENT", err)
			}
		}()
	}
	wg.Wait()

	if got := transport.dialCount(); got != 2 {
		t.Fatalf("dials = %d, want 2 (the opening failure + one half-open probe)", got)
	}
	st, _ := client.EndpointStats(ref.Endpoint())
	if st.BreakerProbes != 1 {
		t.Fatalf("stats = %+v, want exactly one probe admitted", st)
	}
	if st.Breaker != BreakerOpen || st.BreakerOpens != 2 {
		t.Fatalf("stats = %+v, want re-opened circuit after the failed probe", st)
	}
}

// TestBreakerStateTransitions walks the full lifecycle through
// EndpointStats: closed + down on failures, open at the threshold,
// half-open once the window lapses, closed again after a successful probe
// (with the dial health gate recovering alongside).
func TestBreakerStateTransitions(t *testing.T) {
	_, ref := startServer(t, &countingServant{})
	flaky := &flakyTransport{failures: 2}
	client := New(
		WithTransport(flaky),
		WithCircuitBreaker(2, 80*time.Millisecond),
		WithReconnectBackoff(time.Millisecond, time.Millisecond),
	)
	defer client.Shutdown()
	ctx := context.Background()

	// Failure 1: dial failure — breaker still closed, health gate down.
	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
		t.Fatalf("failure 1: %v", err)
	}
	st, _ := client.EndpointStats(ref.Endpoint())
	if st.Breaker != BreakerClosed || !st.Down {
		t.Fatalf("after failure 1: stats = %+v, want closed breaker + down health gate", st)
	}

	// Failure 2 crosses the threshold: open.
	time.Sleep(3 * time.Millisecond)
	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
		t.Fatalf("failure 2: %v", err)
	}
	st, _ = client.EndpointStats(ref.Endpoint())
	if st.Breaker != BreakerOpen {
		t.Fatalf("after failure 2: stats = %+v, want open breaker", st)
	}

	// The open window lapses: stats report half-open before any call.
	time.Sleep(100 * time.Millisecond)
	st, _ = client.EndpointStats(ref.Endpoint())
	if st.Breaker != BreakerHalfOpen {
		t.Fatalf("after window: stats = %+v, want half-open breaker", st)
	}

	// The probe succeeds (flaky dials exhausted): closed and healthy.
	body, err := client.Invoke(ctx, ref, "ping", nil)
	if err != nil || string(body) != "pong" {
		t.Fatalf("probe: body = %q, err = %v", body, err)
	}
	st, _ = client.EndpointStats(ref.Endpoint())
	if st.Breaker != BreakerClosed || st.Down || st.Failures != 0 {
		t.Fatalf("after probe success: stats = %+v, want closed + recovered", st)
	}
	if st.BreakerProbes != 1 || st.BreakerOpens != 1 {
		t.Fatalf("stats = %+v, want one open and one probe across the lifecycle", st)
	}

	// The circuit stays closed for ordinary traffic.
	if _, err := client.Invoke(ctx, ref, "ping", nil); err != nil {
		t.Fatalf("post-recovery call: %v", err)
	}
}

// switchableTransport blocks for delay then fails while fail is set, and
// delegates to TCP once cleared.
type switchableTransport struct {
	mu    sync.Mutex
	fail  bool
	delay time.Duration
}

func (f *switchableTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	f.mu.Lock()
	fail, delay := f.fail, f.delay
	f.mu.Unlock()
	if fail {
		select {
		case <-time.After(delay):
		case <-ctx.Done():
		}
		return nil, context.DeadlineExceeded
	}
	return TCPTransport{}.Dial(ctx, addr)
}

func (f *switchableTransport) setFail(v bool) {
	f.mu.Lock()
	f.fail = v
	f.mu.Unlock()
}

// TestBreakerProbeAbandonedByCallerReleasesSlot pins the probe-slot leak:
// a half-open probe whose caller dies before the outcome is known can
// never report back, so its slot must be released — otherwise every later
// call fails with "probe already in flight" forever, even after the
// endpoint recovers.
func TestBreakerProbeAbandonedByCallerReleasesSlot(t *testing.T) {
	_, ref := startServer(t, &countingServant{})
	tr := &switchableTransport{fail: true, delay: 100 * time.Millisecond}
	client := New(
		WithTransport(tr),
		WithCircuitBreaker(1, 30*time.Millisecond),
		WithReconnectBackoff(time.Millisecond, time.Millisecond),
	)
	defer client.Shutdown()

	// Open the circuit (threshold 1).
	if _, err := client.Invoke(context.Background(), ref, "ping", nil); !IsSystem(err, CodeTransient) {
		t.Fatalf("opening failure: err = %v, want TRANSIENT", err)
	}
	time.Sleep(40 * time.Millisecond) // half-open

	// The probe's caller dies while the dial is still blocked.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	_, err := client.Invoke(ctx, ref, "ping", nil)
	cancel()
	if err == nil {
		t.Fatal("abandoned probe unexpectedly succeeded")
	}

	// The endpoint recovers; a later caller must be able to probe and
	// close the circuit — with a leaked slot this loop never succeeds.
	tr.setFail(false)
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, err := client.Invoke(context.Background(), ref, "ping", nil); err == nil {
			break
		}
		if time.Now().After(deadline) {
			st, _ := client.EndpointStats(ref.Endpoint())
			t.Fatalf("endpoint never recovered after abandoned probe; stats = %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st, _ := client.EndpointStats(ref.Endpoint()); st.Breaker != BreakerClosed {
		t.Fatalf("stats = %+v, want closed circuit after recovery", st)
	}
}

// TestBreakerIgnoresCallerCancellation proves a call abandoned by its own
// caller — the routine advance-cancellation of parallel delivery — does
// not count against a healthy endpoint: the circuit stays closed.
func TestBreakerIgnoresCallerCancellation(t *testing.T) {
	_, ref := startServer(t, &countingServant{delay: 200 * time.Millisecond})
	client := New(WithCircuitBreaker(1, time.Minute))
	defer client.Shutdown()

	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		_, err := client.Invoke(ctx, ref, "ping", nil)
		cancel()
		if !IsSystem(err, CodeTimeout) && !IsSystem(err, CodeTransient) {
			t.Fatalf("impatient call %d: err = %v", i, err)
		}
	}
	st, _ := client.EndpointStats(ref.Endpoint())
	if st.Breaker != BreakerClosed || st.BreakerOpens != 0 {
		t.Fatalf("stats = %+v; caller cancellations must not open the circuit", st)
	}
	// The endpoint is fine: a patient caller succeeds.
	if _, err := client.Invoke(context.Background(), ref, "ping", nil); err != nil {
		t.Fatalf("patient call: %v", err)
	}
}

// TestBreakerInactiveWithoutOption pins the default: no breaker state in
// stats and no breaker interference.
func TestBreakerInactiveWithoutOption(t *testing.T) {
	_, ref := startServer(t, &countingServant{})
	client := New()
	defer client.Shutdown()
	if _, err := client.Invoke(context.Background(), ref, "ping", nil); err != nil {
		t.Fatal(err)
	}
	if st, _ := client.EndpointStats(ref.Endpoint()); st.Breaker != BreakerInactive {
		t.Fatalf("stats = %+v, want inactive breaker by default", st)
	}
}
