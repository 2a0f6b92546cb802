package orb

import (
	"context"
	"sync"
	"testing"
	"time"
)

// chaosClient builds a client ORB whose TCP transport runs through a fresh
// ChaosTransport.
func chaosClient(t *testing.T, opts ...ORBOption) (*ORB, *ChaosTransport) {
	t.Helper()
	ct := NewChaosTransport()
	client := New(append([]ORBOption{WithTransport(ct)}, opts...)...)
	t.Cleanup(client.Shutdown)
	return client, ct
}

// TestChaosLatencyRule delays matching requests and checks the call pays
// the injected latency.
func TestChaosLatencyRule(t *testing.T) {
	_, ref := startServer(t, &countingServant{})
	client, ct := chaosClient(t)
	ct.Inject(ChaosRule{Op: "ping", Latency: 60 * time.Millisecond})

	start := time.Now()
	if _, err := client.Invoke(context.Background(), ref, "ping", nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("call took %s, want >= 60ms of injected latency", elapsed)
	}
}

// TestChaosDropRequest swallows the request: the servant never runs and
// the caller times out.
func TestChaosDropRequest(t *testing.T) {
	srv := &countingServant{}
	_, ref := startServer(t, srv)
	client, ct := chaosClient(t, WithCallTimeout(80*time.Millisecond))
	fault := ct.Inject(ChaosRule{Op: "ping", Drop: true})

	_, err := client.Invoke(context.Background(), ref, "ping", nil)
	if !IsSystem(err, CodeTimeout) {
		t.Fatalf("err = %v, want TIMEOUT", err)
	}
	if srv.calls.Load() != 0 {
		t.Fatalf("servant ran %d times despite dropped request", srv.calls.Load())
	}
	if fault.Hits() != 1 {
		t.Fatalf("fault hits = %d, want 1", fault.Hits())
	}
}

// TestChaosDropReply lets the operation run but swallows its reply — the
// "completion unknown" case.
func TestChaosDropReply(t *testing.T) {
	srv := &countingServant{}
	_, ref := startServer(t, srv)
	client, ct := chaosClient(t, WithCallTimeout(150*time.Millisecond))
	ct.Inject(ChaosRule{Op: "ping", Stage: StageReply, Drop: true, Count: 1})

	_, err := client.Invoke(context.Background(), ref, "ping", nil)
	if !IsSystem(err, CodeTimeout) {
		t.Fatalf("err = %v, want TIMEOUT", err)
	}
	if srv.calls.Load() != 1 {
		t.Fatalf("servant ran %d times, want 1 (request was delivered)", srv.calls.Load())
	}
	// The fault is exhausted: the retry completes.
	if _, err := client.Invoke(context.Background(), ref, "ping", nil); err != nil {
		t.Fatalf("retry after exhausted fault: %v", err)
	}
}

// TestChaosResetRuleThenReconnect resets the connection on a matching
// request; the pool re-dials and the retry succeeds.
func TestChaosResetRuleThenReconnect(t *testing.T) {
	_, ref := startServer(t, &countingServant{})
	client, ct := chaosClient(t)
	fault := ct.Inject(ChaosRule{Op: "ping", Reset: true, Count: 1})

	_, err := client.Invoke(context.Background(), ref, "ping", nil)
	if !IsSystem(err, CodeTransient) {
		t.Fatalf("reset call: err = %v, want TRANSIENT", err)
	}
	if _, err := client.Invoke(context.Background(), ref, "ping", nil); err != nil {
		t.Fatalf("call after reconnect: %v", err)
	}
	if fault.Hits() != 1 {
		t.Fatalf("fault hits = %d, want 1", fault.Hits())
	}
	if st, _ := client.EndpointStats(ref.Endpoint()); st.Conns == 0 {
		t.Fatalf("no live connection after reconnect: %+v", st)
	}
}

// TestChaosAfterTargetsNthFrame proves the occurrence window: After skips
// the first matches, Count bounds the firing.
func TestChaosAfterTargetsNthFrame(t *testing.T) {
	srv := &countingServant{}
	_, ref := startServer(t, srv)
	client, ct := chaosClient(t, WithCallTimeout(80*time.Millisecond))
	fault := ct.Inject(ChaosRule{Op: "ping", After: 1, Count: 1, Drop: true})
	ctx := context.Background()

	if _, err := client.Invoke(ctx, ref, "ping", nil); err != nil {
		t.Fatalf("call 1 (before window): %v", err)
	}
	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTimeout) {
		t.Fatalf("call 2 (in window): err = %v, want TIMEOUT", err)
	}
	if _, err := client.Invoke(ctx, ref, "ping", nil); err != nil {
		t.Fatalf("call 3 (after window): %v", err)
	}
	if fault.Hits() != 1 {
		t.Fatalf("fault hits = %d, want 1", fault.Hits())
	}
	if srv.calls.Load() != 2 {
		t.Fatalf("servant ran %d times, want 2", srv.calls.Load())
	}
}

// TestChaosPerOpRuleLeavesOtherOpsAlone scopes a rule to one operation.
func TestChaosPerOpRuleLeavesOtherOpsAlone(t *testing.T) {
	_, ref := startServer(t, &countingServant{})
	client, ct := chaosClient(t, WithCallTimeout(80*time.Millisecond))
	ct.Inject(ChaosRule{Op: "doomed", Drop: true})
	ctx := context.Background()

	if _, err := client.Invoke(ctx, ref, "healthy", nil); err != nil {
		t.Fatalf("unmatched op: %v", err)
	}
	if _, err := client.Invoke(ctx, ref, "doomed", nil); !IsSystem(err, CodeTimeout) {
		t.Fatalf("matched op: err = %v, want TIMEOUT", err)
	}
}

// TestChaosOneWayPartitions exercises both partition directions and Heal.
func TestChaosOneWayPartitions(t *testing.T) {
	srv := &countingServant{}
	_, ref := startServer(t, srv)
	client, ct := chaosClient(t, WithCallTimeout(80*time.Millisecond))
	ctx := context.Background()

	// Send partition: the servant never sees the request.
	ct.PartitionSend(true)
	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTimeout) {
		t.Fatalf("send partition: err = %v, want TIMEOUT", err)
	}
	if srv.calls.Load() != 0 {
		t.Fatalf("servant ran during send partition")
	}
	ct.Heal()

	// Recv partition: the servant runs but the caller never learns.
	ct.PartitionRecv(true)
	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTimeout) {
		t.Fatalf("recv partition: err = %v, want TIMEOUT", err)
	}
	if srv.calls.Load() != 1 {
		t.Fatalf("servant ran %d times during recv partition, want 1", srv.calls.Load())
	}
	ct.Heal()

	if _, err := client.Invoke(ctx, ref, "ping", nil); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

// TestChaosDroppedRequestsDoNotLeakOps verifies the in-flight op map is
// pruned when a request is swallowed (no reply will ever clear it).
func TestChaosDroppedRequestsDoNotLeakOps(t *testing.T) {
	_, ref := startServer(t, &countingServant{})
	client, ct := chaosClient(t, WithCallTimeout(50*time.Millisecond))
	ctx := context.Background()

	ct.PartitionSend(true)
	for i := 0; i < 5; i++ {
		if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTimeout) {
			t.Fatalf("partitioned call %d: err = %v, want TIMEOUT", i, err)
		}
	}
	ct.mu.Lock()
	stale := 0
	for c := range ct.conns {
		c.mu.Lock()
		stale += len(c.ops)
		c.mu.Unlock()
	}
	ct.mu.Unlock()
	if stale != 0 {
		t.Fatalf("ops map holds %d stale entries after dropped requests", stale)
	}
}

// TestChaosRuleRemove withdraws a rule mid-flight.
func TestChaosRuleRemove(t *testing.T) {
	_, ref := startServer(t, &countingServant{})
	client, ct := chaosClient(t, WithCallTimeout(80*time.Millisecond))
	fault := ct.Inject(ChaosRule{Drop: true})
	ctx := context.Background()

	if _, err := client.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTimeout) {
		t.Fatalf("with rule: err = %v, want TIMEOUT", err)
	}
	fault.Remove()
	if _, err := client.Invoke(ctx, ref, "ping", nil); err != nil {
		t.Fatalf("after remove: %v", err)
	}
}

// TestChaosPoolStressConcurrentResets is the pool race test: concurrent
// invocations across endpoints while chaos keeps resetting connections.
// Every call must either succeed or fail with a system exception from the
// documented failure surface — never hang, panic or corrupt the pool —
// and the pool must recover once the chaos stops. Run under -race in CI.
func TestChaosPoolStressConcurrentResets(t *testing.T) {
	const (
		endpoints = 2
		workers   = 8
		calls     = 25
	)
	refs := make([]IOR, endpoints)
	for i := range refs {
		_, refs[i] = startServer(t, &countingServant{})
	}
	client, ct := chaosClient(t,
		WithPoolSize(4),
		WithCallTimeout(2*time.Second),
		WithReconnectBackoff(time.Millisecond, 5*time.Millisecond),
	)

	stop := make(chan struct{})
	var resetter sync.WaitGroup
	resetter.Add(1)
	go func() {
		defer resetter.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
				ct.ResetAll()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < calls; i++ {
				_, err := client.Invoke(ctx, refs[(w+i)%endpoints], "ping", nil)
				if err == nil {
					continue
				}
				switch {
				case IsSystem(err, CodeTransient),
					IsSystem(err, CodeCommFailure),
					IsSystem(err, CodeTimeout):
					// The documented failure surface under resets.
				default:
					t.Errorf("worker %d call %d: unexpected error %v", w, i, err)
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	resetter.Wait()

	// With the chaos stopped the pool must converge back to healthy.
	deadline := time.Now().Add(5 * time.Second)
	for _, ref := range refs {
		for {
			if _, err := client.Invoke(context.Background(), ref, "ping", nil); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("endpoint %s never recovered after chaos stopped", ref.Endpoint())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}
