package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/trace"
)

// runBroadcast drives one freshly built protocol under the given policy and
// returns the encoded collated outcome plus the compact trace.
func runBroadcast(t *testing.T, policy DeliveryPolicy, nSignals, nActions int, latency func(i int) time.Duration) ([]byte, []string) {
	t.Helper()
	rec := trace.New()
	coord := newCoordinator("A", testGen(), rec, RetryPolicy{Attempts: 1}, policy, nil)
	for i := 0; i < nActions; i++ {
		i := i
		coord.AddNamedAction("s", fmt.Sprintf("act%d", i), ActionFunc(
			func(_ context.Context, sig Signal) (Outcome, error) {
				if latency != nil {
					if d := latency(i); d > 0 {
						time.Sleep(d)
					}
				}
				return Outcome{Name: fmt.Sprintf("ok-%d-%s", i, sig.Name)}, nil
			}))
	}
	var names []string
	for i := 0; i < nSignals; i++ {
		names = append(names, fmt.Sprintf("sig%d", i))
	}
	set := NewSequenceSet("s", names...).Collate(func(responses []Outcome) Outcome {
		parts := make([]string, len(responses))
		for i, r := range responses {
			parts[i] = r.Name
		}
		return Outcome{Name: "collated", Data: strings.Join(parts, ",")}
	})
	set.SetDelivery(policy)
	out, err := coord.ProcessSignalSet(context.Background(), set)
	if err != nil {
		t.Fatalf("ProcessSignalSet(%s): %v", policy.Mode, err)
	}
	e := cdr.NewEncoder(64)
	if err := out.Encode(e); err != nil {
		t.Fatalf("encode outcome: %v", err)
	}
	return append([]byte(nil), e.Bytes()...), rec.Sequence()
}

// concurrentPolicies are the policies that share the concurrent engine. The
// in-process actions of this package cannot relay, so tree mode must
// reproduce the parallel path exactly.
var concurrentPolicies = []DeliveryPolicy{Parallel(), Tree(4)}

// TestDifferentialParallelMatchesSerial is the differential property test:
// for random protocol shapes over idempotent actions, serial and concurrent
// delivery produce byte-identical collated outcomes and identical traces.
func TestDifferentialParallelMatchesSerial(t *testing.T) {
	f := func(nSignals, nActions, latSeed uint8) bool {
		a := int(nSignals%4) + 1
		n := int(nActions%16) + 1
		latency := func(i int) time.Duration {
			// Deterministic per-action jitter so fast/slow interleavings vary.
			return time.Duration((int(latSeed)+i*7)%5) * 100 * time.Microsecond
		}
		serialOut, serialTrace := runBroadcast(t, DeliveryPolicy{Mode: DeliverSerial}, a, n, latency)
		for _, policy := range concurrentPolicies {
			out, trace := runBroadcast(t, policy, a, n, latency)
			if string(serialOut) != string(out) {
				t.Logf("outcome mismatch: serial=%x %s=%x", serialOut, policy.Mode, out)
				return false
			}
			if strings.Join(serialTrace, "\n") != strings.Join(trace, "\n") {
				t.Logf("trace mismatch:\nserial:\n%s\n%s:\n%s",
					strings.Join(serialTrace, "\n"), policy.Mode, strings.Join(trace, "\n"))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// voteAdvanceSet broadcasts one signal and advances as soon as it sees the
// outcome named "abort" (a miniature of the 2PC vote).
type voteAdvanceSet struct {
	BaseSet

	mu        sync.Mutex
	emitted   bool
	responses []Outcome
}

func newVoteAdvanceSet() *voteAdvanceSet { return &voteAdvanceSet{BaseSet: NewBaseSet("adv")} }

func (s *voteAdvanceSet) GetSignal() (Signal, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.emitted {
		return Signal{}, false, ErrExhausted
	}
	s.emitted = true
	return Signal{Name: "vote", SetName: "adv"}, true, nil
}

func (s *voteAdvanceSet) SetResponse(resp Outcome, deliveryErr error) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.responses = append(s.responses, resp)
	return resp.Name == "abort", nil
}

func (s *voteAdvanceSet) GetOutcome() (Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Outcome{Name: fmt.Sprintf("responses=%d", len(s.responses))}, nil
}

// TestParallelAdvanceShortCircuit verifies that an advancing response stops
// collation at the same point serial delivery would, discards speculative
// responses, and cancels in-flight stragglers through their context.
func TestParallelAdvanceShortCircuit(t *testing.T) {
	for _, policy := range concurrentPolicies {
		t.Run(policy.Mode.String(), func(t *testing.T) {
			rec := trace.New()
			coord := newCoordinator("A", testGen(), rec, RetryPolicy{Attempts: 1}, policy, nil)
			var cancelled atomic.Int32
			// act0 aborts immediately; the rest block until their context dies.
			coord.AddNamedAction("adv", "act0", ActionFunc(
				func(context.Context, Signal) (Outcome, error) {
					return Outcome{Name: "abort"}, nil
				}))
			for i := 1; i < 8; i++ {
				coord.AddNamedAction("adv", fmt.Sprintf("act%d", i), ActionFunc(
					func(ctx context.Context, _ Signal) (Outcome, error) {
						select {
						case <-ctx.Done():
							cancelled.Add(1)
							return Outcome{Name: "interrupted"}, nil
						case <-time.After(5 * time.Second):
							return Outcome{Name: "slept"}, nil
						}
					}))
			}
			set := newVoteAdvanceSet()
			start := time.Now()
			out, err := coord.ProcessSignalSet(context.Background(), set)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("broadcast took %s; stragglers were not cancelled", elapsed)
			}
			// Only act0's response was fed: the advance discards everything after it.
			if out.Name != "responses=1" {
				t.Fatalf("outcome = %q, want responses=1", out.Name)
			}
			if cancelled.Load() == 0 {
				t.Fatal("no straggler observed cancellation")
			}
			// The trace records only the fed delivery, like serial short-circuit.
			var transmits int
			for _, e := range rec.Events() {
				if e.Kind == trace.KindTransmit {
					transmits++
				}
			}
			if transmits != 1 {
				t.Fatalf("recorded %d transmits, want 1", transmits)
			}
		})
	}
}

// TestParallelRetryTraceMatchesSerial checks the replayed trace of a
// flaky-then-successful delivery matches serial recording exactly.
func TestParallelRetryTraceMatchesSerial(t *testing.T) {
	run := func(policy DeliveryPolicy) []string {
		rec := trace.New()
		coord := newCoordinator("A", testGen(), rec, RetryPolicy{Attempts: 3}, policy, nil)
		for i := 0; i < 3; i++ {
			var failures atomic.Int32
			coord.AddNamedAction("s", fmt.Sprintf("act%d", i), ActionFunc(
				func(context.Context, Signal) (Outcome, error) {
					if failures.Add(1) == 1 {
						return Outcome{}, errors.New("transient")
					}
					return Outcome{Name: "ok"}, nil
				}))
		}
		set := NewSequenceSet("s", "ping")
		if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
			t.Fatal(err)
		}
		return rec.Sequence()
	}
	serial := run(DeliveryPolicy{Mode: DeliverSerial})
	for _, policy := range concurrentPolicies {
		if got := run(policy); strings.Join(serial, "\n") != strings.Join(got, "\n") {
			t.Fatalf("trace mismatch:\nserial:\n%s\n%s:\n%s",
				strings.Join(serial, "\n"), policy.Mode, strings.Join(got, "\n"))
		}
	}
}

// concurrencyProbe counts how many actions run simultaneously.
type concurrencyProbe struct {
	cur atomic.Int32
	max atomic.Int32
}

func (p *concurrencyProbe) action() Action {
	return ActionFunc(func(context.Context, Signal) (Outcome, error) {
		c := p.cur.Add(1)
		for {
			m := p.max.Load()
			if c <= m || p.max.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		p.cur.Add(-1)
		return Outcome{Name: "ok"}, nil
	})
}

// TestDeliveryPolicyResolution verifies the per-Service default applies and
// a set-level policy overrides it, by observing actual concurrency.
func TestDeliveryPolicyResolution(t *testing.T) {
	run := func(svcPolicy, setPolicy DeliveryPolicy) int32 {
		svc := New(WithDelivery(svcPolicy))
		a := svc.Begin("probe")
		probe := &concurrencyProbe{}
		set := NewSequenceSet("s", "ping")
		set.SetDelivery(setPolicy)
		if err := a.RegisterSignalSet(set); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			if _, err := a.AddAction("s", probe.action()); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.Signal(context.Background(), "s"); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Complete(context.Background()); err != nil {
			t.Fatal(err)
		}
		return probe.max.Load()
	}

	if got := run(Parallel(), DeliveryPolicy{}); got < 2 {
		t.Errorf("service-wide parallel: max concurrency = %d, want >= 2", got)
	}
	if got := run(DeliveryPolicy{}, Parallel()); got < 2 {
		t.Errorf("set-level parallel: max concurrency = %d, want >= 2", got)
	}
	if got := run(Parallel(), DeliveryPolicy{Mode: DeliverSerial}); got != 1 {
		t.Errorf("set-level serial override: max concurrency = %d, want 1", got)
	}
	if got := run(DeliveryPolicy{}, DeliveryPolicy{}); got != 1 {
		t.Errorf("default: max concurrency = %d, want 1", got)
	}
}

// TestParallelWorkerBound verifies the default worker bound caps in-flight
// deliveries in both concurrent modes.
func TestParallelWorkerBound(t *testing.T) {
	bound := workers(1 << 20)
	for _, policy := range concurrentPolicies {
		coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1}, policy, nil)
		probe := &concurrencyProbe{}
		for i := 0; i < 3*bound; i++ {
			coord.AddAction("s", probe.action())
		}
		set := NewSequenceSet("s", "ping")
		if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
			t.Fatal(err)
		}
		if got := probe.max.Load(); int(got) > bound {
			t.Fatalf("%s: max concurrency = %d, want <= %d", policy.Mode, got, bound)
		}
		if got := probe.max.Load(); got < 2 {
			t.Fatalf("%s: max concurrency = %d, want >= 2 (pool not parallel at all)", policy.Mode, got)
		}
	}
}

// TestPolicyWorkersResolution pins the worker-bound arithmetic:
// max(16, 4×GOMAXPROCS), capped at the fanout.
func TestPolicyWorkersResolution(t *testing.T) {
	want := max(16, 4*runtime.GOMAXPROCS(0))
	if got := workers(10000); got != want {
		t.Errorf("default bound: %d, want %d", got, want)
	}
	if got := workers(8); got != 8 {
		t.Errorf("bound capped at fanout: %d, want 8", got)
	}
}

// TestParallelDeliveryErrorFeedsSet verifies a failed delivery reaches the
// set as a delivery error under concurrent delivery, exactly like serial.
func TestParallelDeliveryErrorFeedsSet(t *testing.T) {
	for _, policy := range append([]DeliveryPolicy{{Mode: DeliverSerial}}, concurrentPolicies...) {
		coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1}, policy, nil)
		coord.AddNamedAction("s", "good", ActionFunc(
			func(context.Context, Signal) (Outcome, error) {
				return Outcome{Name: "ok"}, nil
			}))
		coord.AddNamedAction("s", "bad", ActionFunc(
			func(context.Context, Signal) (Outcome, error) {
				return Outcome{}, errors.New("boom")
			}))
		set := NewSequenceSet("s", "ping")
		if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
			t.Fatalf("%s: %v", policy.Mode, err)
		}
		resp := set.Responses()
		if len(resp) != 2 {
			t.Fatalf("%s: %d responses, want 2", policy.Mode, len(resp))
		}
		if resp[0].Name != "ok" || resp[1].Name != "delivery-error" {
			t.Fatalf("%s: responses = %v", policy.Mode, resp)
		}
	}
}

// TestSpeculativeDeliveryAccounting verifies the Service-wide accounting
// of concurrent deliveries discarded by an advance: an advancing vote with
// three stragglers already in flight counts exactly three discarded
// responses, and serial delivery (which never speculates) adds nothing.
func TestSpeculativeDeliveryAccounting(t *testing.T) {
	for _, policy := range concurrentPolicies {
		t.Run(policy.Mode.String(), func(t *testing.T) { testSpeculativeDeliveryAccounting(t, policy) })
	}
}

func testSpeculativeDeliveryAccounting(t *testing.T, policy DeliveryPolicy) {
	const stragglers = 3
	svc := New(WithDelivery(policy))
	a := svc.Begin("speculative")
	set := newVoteAdvanceSet()
	if err := a.RegisterSignalSet(set); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, stragglers)
	// act0 advances the set — but only after every straggler has received
	// the signal, so the discard count is deterministic.
	if _, err := a.AddNamedAction("adv", "act0", ActionFunc(
		func(context.Context, Signal) (Outcome, error) {
			for i := 0; i < stragglers; i++ {
				<-started
			}
			return Outcome{Name: "abort"}, nil
		})); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= stragglers; i++ {
		if _, err := a.AddNamedAction("adv", fmt.Sprintf("act%d", i), ActionFunc(
			func(ctx context.Context, _ Signal) (Outcome, error) {
				started <- struct{}{}
				<-ctx.Done() // run until the advance cancels the broadcast
				return Outcome{Name: "late"}, nil
			})); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Signal(context.Background(), "adv"); err != nil {
		t.Fatal(err)
	}
	st := svc.DeliveryStats()
	if st.DiscardedResponses != stragglers || st.SkippedDeliveries != 0 || st.CancelledDeliveries != 0 {
		t.Fatalf("stats = %+v, want exactly %d discarded responses", st, stragglers)
	}
	if st.Total() != stragglers {
		t.Fatalf("Total() = %d, want %d", st.Total(), stragglers)
	}

	// Serial delivery stops transmitting at the advance: nothing
	// speculative to account for.
	b := svc.Begin("serial", WithActivityDelivery(DeliveryPolicy{Mode: DeliverSerial}))
	sset := newVoteAdvanceSet()
	if err := b.RegisterSignalSet(sset); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddNamedAction("adv", "abort0", ActionFunc(
		func(context.Context, Signal) (Outcome, error) {
			return Outcome{Name: "abort"}, nil
		})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddNamedAction("adv", "never", ActionFunc(
		func(context.Context, Signal) (Outcome, error) {
			t.Error("serial delivery transmitted past an advance")
			return Outcome{}, nil
		})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Signal(context.Background(), "adv"); err != nil {
		t.Fatal(err)
	}
	if got := svc.DeliveryStats(); got != st {
		t.Fatalf("serial broadcast changed stats: %+v -> %+v", st, got)
	}
}
