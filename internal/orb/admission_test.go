package orb

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// gaugeServant replies after a delay while tracking its own dispatch
// concurrency — the ground truth the admission bound must hold (the
// server's Inflight gauge cannot exceed its channel capacity by
// construction, so asserting on it alone would be vacuous).
type gaugeServant struct {
	delay time.Duration
	cur   atomic.Int32
	peak  atomic.Int32
}

func (s *gaugeServant) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	cur := s.cur.Add(1)
	defer s.cur.Add(-1)
	for {
		p := s.peak.Load()
		if cur <= p || s.peak.CompareAndSwap(p, cur) {
			break
		}
	}
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
		}
	}
	return []byte("pong"), nil
}

// startAdmissionServer spins up a server ORB with admission control and a
// concurrency-gauging slow servant, returning the client's view of it.
func startAdmissionServer(t *testing.T, delay time.Duration, opts ...ORBOption) (*ORB, *gaugeServant, IOR) {
	t.Helper()
	srv := New(opts...)
	t.Cleanup(srv.Shutdown)
	servant := &gaugeServant{delay: delay}
	ref := srv.RegisterServant("IDL:test/Echo:1.0", servant)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = srv.IOR(ref.Key)
	return srv, servant, ref
}

// TestAdmissionShedsAtSaturation drives fan-in far above the dispatch
// bound at a slow servant: the bounded few dispatch, the queue briefly
// absorbs a couple more, and the excess is shed with TRANSIENT well before
// the servant latency — while in-flight dispatches never exceed the bound.
func TestAdmissionShedsAtSaturation(t *testing.T) {
	const (
		maxInflight = 2
		queueDepth  = 2
		fanIn       = 16
		servantWork = 300 * time.Millisecond
		shedAfter   = 40 * time.Millisecond
	)
	srv, servant, ref := startAdmissionServer(t, servantWork,
		WithMaxInflight(maxInflight),
		WithAdmissionQueue(queueDepth, shedAfter),
	)
	client := New(WithCallTimeout(5 * time.Second))
	defer client.Shutdown()

	type result struct {
		err     error
		elapsed time.Duration
	}
	results := make([]result, fanIn)
	var wg sync.WaitGroup
	for i := 0; i < fanIn; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, err := client.Invoke(context.Background(), ref, "ping", nil)
			results[i] = result{err: err, elapsed: time.Since(start)}
		}()
	}
	wg.Wait()

	succ, shed := 0, 0
	for i, r := range results {
		switch {
		case r.err == nil:
			succ++
		case IsSystem(r.err, CodeTransient):
			shed++
			if !strings.Contains(r.err.Error(), "overloaded") {
				t.Errorf("call %d: shed error %v, want admission shed detail", i, r.err)
			}
			if r.elapsed >= servantWork {
				t.Errorf("call %d: shed after %s, want fast rejection (servant takes %s)",
					i, r.elapsed, servantWork)
			}
		default:
			t.Errorf("call %d: unexpected error %v", i, r.err)
		}
	}
	if succ == 0 || shed == 0 || succ+shed != fanIn {
		t.Fatalf("successes = %d, sheds = %d, want both > 0 summing to %d", succ, shed, fanIn)
	}
	if succ > maxInflight+queueDepth {
		t.Fatalf("successes = %d, want <= inflight+queue = %d", succ, maxInflight+queueDepth)
	}
	// The servant's own concurrency gauge is the real proof the bound
	// held: no more than maxInflight dispatches ever ran at once.
	if peak := servant.peak.Load(); peak > maxInflight {
		t.Fatalf("servant saw %d concurrent dispatches, want <= %d", peak, maxInflight)
	}
	st, ok := srv.ServerStats()
	if !ok {
		t.Fatal("no server stats while listening")
	}
	if st.Shed != uint64(shed) || st.Dispatched != uint64(succ) {
		t.Fatalf("server stats = %+v, want shed=%d dispatched=%d", st, shed, succ)
	}
	if st.MaxInflight != maxInflight || st.QueueDepth != queueDepth || st.ShedAfter != shedAfter {
		t.Fatalf("configured bounds in stats = %+v", st)
	}
	// The server writes a reply before it releases the dispatch slot, so
	// the last caller can return while its slot is still held: the gauges
	// drain to zero shortly after, not at once.
	deadline := time.Now().Add(2 * time.Second)
	for st.Inflight != 0 || st.Queued != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gauges after quiesce = %+v, want zero", st)
		}
		time.Sleep(time.Millisecond)
		st, _ = srv.ServerStats()
	}
}

// TestAdmissionQueueDrainsWhenSlotsFree proves queued requests are
// admitted — not shed — once running dispatches finish within the shed
// deadline.
func TestAdmissionQueueDrainsWhenSlotsFree(t *testing.T) {
	srv, _, ref := startAdmissionServer(t, 10*time.Millisecond,
		WithMaxInflight(1),
		WithAdmissionQueue(8, 2*time.Second),
	)
	client := New(WithCallTimeout(5 * time.Second))
	defer client.Shutdown()

	const calls = 6
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = client.Invoke(context.Background(), ref, "ping", nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v (queued requests should drain, not shed)", i, err)
		}
	}
	st, _ := srv.ServerStats()
	if st.Shed != 0 || st.Dispatched != calls {
		t.Fatalf("stats = %+v, want 0 shed / %d dispatched", st, calls)
	}
}

// TestAdmissionDisabledByDefault pins the historic unbounded behaviour:
// without WithMaxInflight a burst above any queue size dispatches fully.
func TestAdmissionDisabledByDefault(t *testing.T) {
	srv, _, ref := startAdmissionServer(t, 20*time.Millisecond)
	client := New()
	defer client.Shutdown()

	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Invoke(context.Background(), ref, "ping", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st, ok := srv.ServerStats()
	if !ok {
		t.Fatal("no server stats while listening")
	}
	if st.MaxInflight != 0 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want unbounded (MaxInflight 0) and no shed", st)
	}
}

// TestServerStatsBeforeListen pins the not-listening case.
func TestServerStatsBeforeListen(t *testing.T) {
	o := New()
	defer o.Shutdown()
	if _, ok := o.ServerStats(); ok {
		t.Fatal("server stats reported before Listen")
	}
}

// TestAdmissionDefaultsFromMaxInflight checks WithMaxInflight alone
// derives the documented queue depth and shed deadline.
func TestAdmissionDefaultsFromMaxInflight(t *testing.T) {
	srv, _, _ := startAdmissionServer(t, 0, WithMaxInflight(3))
	st, _ := srv.ServerStats()
	if st.MaxInflight != 3 || st.QueueDepth != 6 || st.ShedAfter != defaultShedAfter {
		t.Fatalf("stats = %+v, want bounds 3/6/%s", st, defaultShedAfter)
	}
}
