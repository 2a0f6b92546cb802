package orb

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// holdServant implements "hold", which blocks until release is closed
// (announcing each arrival on started) and then replies "late", and
// "echo" from echoServant.
type holdServant struct {
	started chan struct{}
	release chan struct{}
}

func newHoldServant() *holdServant {
	return &holdServant{started: make(chan struct{}, 64), release: make(chan struct{})}
}

func (s *holdServant) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	if op != "hold" {
		return echoServant{}.Dispatch(ctx, op, in)
	}
	s.started <- struct{}{}
	<-s.release
	e := cdr.NewEncoder(16)
	e.WriteString("late")
	return e.Bytes(), nil
}

// TestLaneBlockedServantDoesNotDelayOthers pins head-of-line freedom: with
// more calls parked in a blocked servant than the pool has connections —
// every lane busy and the shared connection carrying one too — a call to
// another servant on the same endpoint still completes at once.
func TestLaneBlockedServantDoesNotDelayOthers(t *testing.T) {
	for _, pool := range []int{2, 4} {
		t.Run(fmt.Sprintf("pool=%d", pool), func(t *testing.T) {
			hold := newHoldServant()
			srv := New()
			defer srv.Shutdown()
			holdRef := srv.RegisterServant("IDL:test/Hold:1.0", hold)
			echoRef := srv.RegisterServant("IDL:test/Echo:1.0", echoServant{})
			if _, err := srv.Listen("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			holdRef, _ = srv.IOR(holdRef.Key)
			echoRef, _ = srv.IOR(echoRef.Key)
			client := New(WithPoolSize(pool))
			defer client.Shutdown()

			blocked := pool + 1
			done := make(chan error, blocked)
			for i := 0; i < blocked; i++ {
				go func() {
					_, err := client.Invoke(context.Background(), holdRef, "hold", nil)
					done <- err
				}()
				select {
				case <-hold.started:
				case <-time.After(5 * time.Second):
					t.Fatalf("blocked call %d never reached the servant", i)
				}
			}
			got, err := echoCall(t, client, echoRef, "through")
			if err != nil || got != "through" {
				t.Fatalf("echo beside %d blocked calls = %q, %v", blocked, got, err)
			}
			close(hold.release)
			for i := 0; i < blocked; i++ {
				if err := <-done; err != nil {
					t.Fatalf("blocked call: %v", err)
				}
			}
		})
	}
}

// TestLaneNestedCallbackChain pins that nested calls always find a
// connection: P calls Q, whose servant calls back into P, whose servant
// calls Q again — each hop made while the hop before it holds its
// connection — with every pool size pairing of one and two.
func TestLaneNestedCallbackChain(t *testing.T) {
	for _, pools := range [][2]int{{1, 1}, {1, 2}, {2, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("pools=%d,%d", pools[0], pools[1]), func(t *testing.T) {
			p, q := New(WithPoolSize(pools[0])), New(WithPoolSize(pools[1]))
			defer p.Shutdown()
			defer q.Shutdown()
			for _, o := range []*ORB{p, q} {
				if _, err := o.Listen("127.0.0.1:0"); err != nil {
					t.Fatal(err)
				}
			}
			pRef := NewIOR("IDL:test/Hop:1.0", "hop", p.Endpoint())
			qRef := NewIOR("IDL:test/Hop:1.0", "hop", q.Endpoint())
			hop := func(self *ORB, next IOR) Servant {
				return ServantFunc(func(ctx context.Context, _ string, in *cdr.Decoder) ([]byte, error) {
					n := in.ReadUint32()
					if n == 0 {
						return []byte("bottom"), nil
					}
					e := cdr.NewEncoder(4)
					e.WriteUint32(n - 1)
					return self.Invoke(ctx, next, "hop", e.Bytes())
				})
			}
			p.RegisterServantWithKey(pRef.Key, pRef.TypeID, hop(p, qRef))
			q.RegisterServantWithKey(qRef.Key, qRef.TypeID, hop(q, pRef))

			// Q calls P with 3 hops left: P→Q→P→Q.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for round := 0; round < 3; round++ {
				e := cdr.NewEncoder(4)
				e.WriteUint32(3)
				out, err := q.Invoke(ctx, pRef, "hop", e.Bytes())
				if err != nil || string(out) != "bottom" {
					t.Fatalf("round %d: chain = %q, %v", round, out, err)
				}
			}
		})
	}
}

// TestLaneCancelledCallerNextCallGetsOwnReply pins cancellation without a
// deadline: the cancelled call returns at once, and the next call to the
// endpoint gets its own reply, never the cancelled call's late one.
func TestLaneCancelledCallerNextCallGetsOwnReply(t *testing.T) {
	hold := newHoldServant()
	srv := New()
	defer srv.Shutdown()
	ref := srv.RegisterServant("IDL:test/Hold:1.0", hold)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = srv.IOR(ref.Key)
	client := New()
	defer client.Shutdown()
	if got, err := echoCall(t, client, ref, "warm"); err != nil || got != "warm" {
		t.Fatalf("warm-up echo = %q, %v", got, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		err error
		at  time.Time
	}
	res := make(chan result, 1)
	go func() {
		_, err := client.Invoke(ctx, ref, "hold", nil)
		res <- result{err, time.Now()}
	}()
	<-hold.started
	cancelled := time.Now()
	cancel()
	select {
	case r := <-res:
		if !IsSystem(r.err, CodeTimeout) {
			t.Fatalf("cancelled call: err = %v, want TIMEOUT", r.err)
		}
		if d := r.at.Sub(cancelled); d > 50*time.Millisecond {
			t.Fatalf("cancelled call returned %s after cancel, want within 50ms", d)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled call did not return")
	}

	// The servant now replies to the abandoned call; the next calls must
	// each see their own reply.
	close(hold.release)
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < 3; i++ {
		msg := fmt.Sprintf("mine-%d", i)
		if got, err := echoCall(t, client, ref, msg); err != nil || got != msg {
			t.Fatalf("call after cancel = %q, %v, want %q", got, err, msg)
		}
	}
}

// TestLaneIdleDeadServerLeavesPool pins idle-connection liveness: once the
// server behind an idle connection shuts down, the connection leaves
// EndpointStats within a second with no call made, and the next call
// through a two-profile reference fails over from the dead profile
// (a refused dial: TRANSIENT) to the live one.
func TestLaneIdleDeadServerLeavesPool(t *testing.T) {
	primary, ep1 := startReplica(t, "svc")
	backup, ep2 := startReplica(t, "svc")
	client := New()
	t.Cleanup(client.Shutdown)
	ctx := context.Background()
	if _, err := client.Invoke(ctx, NewIOR("IDL:test/Replica:1.0", "svc", ep1), "work", nil); err != nil {
		t.Fatal(err)
	}
	if st, _ := client.EndpointStats(ep1); st.Conns != 1 || st.Pending != 0 {
		t.Fatalf("after one call: %+v, want one idle connection", st)
	}

	primary.orb.Shutdown()
	deadline := time.Now().Add(time.Second)
	for {
		st, _ := client.EndpointStats(ep1)
		if st.Conns == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle connection to a shut-down server still pooled after 1s: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if _, err := client.Invoke(ctx, NewIOR("IDL:test/Replica:1.0", "svc", ep1, ep2), "work", nil); err != nil {
		t.Fatalf("two-profile call after the primary died: %v", err)
	}
	if b := backup.calls.Load(); b != 1 {
		t.Fatalf("backup served %d calls, want 1", b)
	}
	if st, _ := client.EndpointStats(ep1); st.Failures == 0 || !st.Down {
		t.Fatalf("primary stats = %+v, want a failed dial (TRANSIENT) behind the failover", st)
	}
}

// TestServerStatsCountWithoutGate pins the dispatch counters of a server
// without an admission gate: every regular dispatch counts, a running
// one shows in Inflight, and an admin scrape counts itself in neither.
func TestServerStatsCountWithoutGate(t *testing.T) {
	hold := newHoldServant()
	srv := New()
	defer srv.Shutdown()
	ServeAdmin(srv)
	ref := srv.RegisterServant("IDL:test/Hold:1.0", hold)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref, _ = srv.IOR(ref.Key)
	single := New(WithPoolSize(1)) // multiplexed: one goroutine per request
	defer single.Shutdown()
	laned := New() // exclusive lanes: dispatched on the read loop
	defer laned.Shutdown()
	for _, c := range []*ORB{single, laned, single} {
		if _, err := echoCall(t, c, ref, "x"); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := srv.ServerStats()
	if st.Dispatched != 3 || st.Inflight != 0 || st.MaxInflight != 0 {
		t.Fatalf("stats after 3 calls = %+v, want Dispatched 3, Inflight 0, ungated", st)
	}

	done := make(chan error, 1)
	go func() {
		_, err := laned.Invoke(context.Background(), ref, "hold", nil)
		done <- err
	}()
	<-hold.started
	scraper := New()
	defer scraper.Shutdown()
	scraped, ok, err := NewAdminClient(scraper, AdminAt(ep)).ServerStats(context.Background())
	if err != nil || !ok {
		t.Fatalf("scrape: ok=%v err=%v", ok, err)
	}
	if scraped.Dispatched != 4 || scraped.Inflight != 1 {
		t.Fatalf("scraped stats = %+v, want Dispatched 4, Inflight 1 (the held call)", scraped)
	}
	close(hold.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if st, _ := srv.ServerStats(); st.Dispatched != 4 || st.Inflight != 0 {
		t.Fatalf("stats after the held call = %+v, want Dispatched 4, Inflight 0", st)
	}
}

// laneCount reports how many of the pool's connections are lanes.
func laneCount(o *ORB, endpoint string) int {
	o.connMu.Lock()
	p := o.pools[endpoint]
	o.connMu.Unlock()
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.lanes)
}

// TestLaneCarriesLoneCallsSharedCarriesRest pins which connection a call
// takes: a lone call runs on a lane, concurrent calls fill at most
// poolSize−1 lanes and the rest share one connection, and WithPoolSize(1)
// has no lanes at all.
func TestLaneCarriesLoneCallsSharedCarriesRest(t *testing.T) {
	if !lanesSupported {
		t.Skip("TCP connections cannot be lanes on this platform")
	}
	srv := New()
	defer srv.Shutdown()
	hold := newHoldServant()
	ref := srv.RegisterServant("IDL:test/Hold:1.0", hold)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = srv.IOR(ref.Key)

	lone := New()
	defer lone.Shutdown()
	for i := 0; i < 3; i++ {
		if _, err := echoCall(t, lone, ref, "x"); err != nil {
			t.Fatal(err)
		}
	}
	if n, st := laneCount(lone, ref.Endpoint()), mustStats(t, lone, ref.Endpoint()); n != 1 || st.Conns != 1 {
		t.Fatalf("serial calls: %d lanes, %+v, want one lane and nothing else", n, st)
	}

	const pool = 3
	busy := New(WithPoolSize(pool))
	defer busy.Shutdown()
	done := make(chan error, 2*pool)
	for i := 0; i < 2*pool; i++ {
		go func() {
			_, err := busy.Invoke(context.Background(), ref, "hold", nil)
			done <- err
		}()
		<-hold.started
	}
	if n, st := laneCount(busy, ref.Endpoint()), mustStats(t, busy, ref.Endpoint()); n != pool-1 || st.Conns != pool || st.Pending != 2*pool {
		t.Fatalf("%d concurrent calls: %d lanes, %+v, want %d lanes of %d conns carrying all of them", 2*pool, n, st, pool-1, pool)
	}
	close(hold.release)
	for i := 0; i < 2*pool; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	one := New(WithPoolSize(1))
	defer one.Shutdown()
	if _, err := echoCall(t, one, ref, "x"); err != nil {
		t.Fatal(err)
	}
	if n := laneCount(one, ref.Endpoint()); n != 0 {
		t.Fatalf("WithPoolSize(1): %d lanes, want none", n)
	}
}

func mustStats(t *testing.T, o *ORB, endpoint string) EndpointStats {
	t.Helper()
	st, ok := o.EndpointStats(endpoint)
	if !ok {
		t.Fatalf("no pool for %s", endpoint)
	}
	return st
}

// TestChaosLaneReplyDelayedPastTimeout delays a lane's reply past the
// call timeout, bounded either by the ORB's call timeout (a socket
// deadline) or by the caller's context (which closes the lane): the
// caller gets TIMEOUT without waiting out the latency, and the next calls
// each get their own reply, never the late one still crossing the link.
func TestChaosLaneReplyDelayedPastTimeout(t *testing.T) {
	if !lanesSupported {
		t.Skip("TCP connections cannot be lanes on this platform")
	}
	for _, bound := range []string{"deadline", "context"} {
		t.Run(bound, func(t *testing.T) {
			_, ref := startServer(t, echoServant{})
			client, ct := chaosClient(t, WithCallTimeout(50*time.Millisecond))
			if got, err := echoCall(t, client, ref, "warm"); err != nil || got != "warm" {
				t.Fatalf("warm-up echo = %q, %v", got, err)
			}
			if st := mustStats(t, client, ref.Endpoint()); st.Lanes != 1 {
				t.Fatalf("after one call: %+v, want it on a lane", st)
			}
			fault := ct.Inject(ChaosRule{Op: "echo", Stage: StageReply, Latency: time.Second, Count: 1})

			ctx := context.Background()
			if bound == "context" {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, 50*time.Millisecond)
				defer cancel()
			}
			start := time.Now()
			if _, err := client.Invoke(ctx, ref, "echo", encodeEchoArg("late")); !IsSystem(err, CodeTimeout) {
				t.Fatalf("delayed call: err = %v, want TIMEOUT", err)
			}
			if d := time.Since(start); d > 500*time.Millisecond {
				t.Fatalf("delayed call returned after %s: the timeout did not cut the latency short", d)
			}
			if fault.Hits() != 1 {
				t.Fatalf("reply delay fired %d times, want 1", fault.Hits())
			}
			for i := 0; i < 3; i++ {
				msg := fmt.Sprintf("mine-%d", i)
				if got, err := echoCall(t, client, ref, msg); err != nil || got != msg {
					t.Fatalf("call after the timeout = %q, %v, want %q", got, err, msg)
				}
			}
		})
	}
}

// TestChaosLaneIdleResetCaughtAtCheckout resets an idle lane under the
// pool: the next call's checkout peek finds it closed and the call
// succeeds on a freshly dialed lane, before the idle sweep could notice.
func TestChaosLaneIdleResetCaughtAtCheckout(t *testing.T) {
	if !lanesSupported {
		t.Skip("TCP connections cannot be lanes on this platform")
	}
	_, ref := startServer(t, echoServant{})
	client, ct := chaosClient(t)
	for i := 0; i < 3; i++ {
		msg := fmt.Sprintf("call-%d", i)
		if got, err := echoCall(t, client, ref, msg); err != nil || got != msg {
			t.Fatalf("call %d after ResetAll = %q, %v", i, got, err)
		}
		if st := mustStats(t, client, ref.Endpoint()); st.Lanes != 1 || st.Conns != 1 {
			t.Fatalf("call %d: %+v, want one lane and nothing else", i, st)
		}
		ct.ResetAll()
	}
}
