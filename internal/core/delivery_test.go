package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
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

// Answer kinds an action's script draws from: acknowledge, veto, some
// other outcome, or fail the delivery.
const (
	answerOK = iota
	answerVeto
	answerOther
	answerError
)

// declShape is one generated SequenceSet declaration plus the script its
// actions answer by.
type declShape struct {
	first, fail int  // sequence lengths; fail 0 declares no OnFailure
	veto        bool // Veto("veto"), which delivery errors also trigger
	declared    bool // Outcomes("done", "undone") instead of Collate
	failOnly    bool // the set starts with a FailOnly completion status
	// script[i][k] is action i's answer to the k-th signal of the first
	// sequence followed by the failure sequence. Answers depend only on
	// (action, signal), so actions are idempotent and speculative
	// deliveries cannot change what a later round hears.
	script [][]uint8
}

// genShape draws a declaration from decl's bits and a script from seed:
// bit 0 vetoes, bit 1 declares outcomes, bit 2 starts FailOnly, bits 3-4
// size the failure sequence (0-2). A zero decl with an all-ok script is
// the shape TestDifferentialParallelMatchesSerial has always covered.
func genShape(first, nActions int, decl uint8, seed int64) declShape {
	sh := declShape{
		first:    first,
		fail:     int(decl>>3) % 3,
		veto:     decl&1 != 0,
		declared: decl&2 != 0,
		failOnly: decl&4 != 0,
		script:   make([][]uint8, nActions),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := range sh.script {
		sh.script[i] = make([]uint8, sh.first+sh.fail)
		for k := range sh.script[i] {
			// Mostly acknowledgements, so sequences often run past round 1.
			if a := rng.Intn(8); a >= 5 {
				sh.script[i][k] = uint8(a - 4)
			}
		}
	}
	return sh
}

// broadcastResult is everything a delivery policy must leave identical:
// the encoded collated outcome, the encoded responses the set recorded,
// whether it took its failure sequence, and the compact trace.
type broadcastResult struct {
	outcome, responses []byte
	failed             bool
	trace              []string
}

// runBroadcast drives one freshly built set of the given shape under the
// given policy — declared on the set, the only place a policy lives.
func runBroadcast(t *testing.T, policy DeliveryPolicy, sh declShape, latency func(i int) time.Duration) broadcastResult {
	t.Helper()
	rec := trace.New()
	act := beginTraced("A", rec, RetryPolicy{Attempts: 1})
	for i := range sh.script {
		act.AddNamedAction("s", fmt.Sprintf("act%d", i), shapeAction(sh, i, latency))
	}
	set := shapeSet(sh, policy)
	out, err := act.transmit(context.Background(), set)
	if err != nil {
		t.Fatalf("ProcessSignalSet(%s): %v", policy.Mode, err)
	}
	return shapeResult(t, out, set, rec)
}

// shapeAction is action i of a shape: it answers each signal by its script,
// after latency(i) when latency is set.
func shapeAction(sh declShape, i int, latency func(i int) time.Duration) Action {
	return ActionFunc(func(_ context.Context, sig Signal) (Outcome, error) {
		if latency != nil {
			if d := latency(i); d > 0 {
				time.Sleep(d)
			}
		}
		switch sh.script[i][sig.Data.(int64)] {
		case answerVeto:
			return Outcome{Name: "veto"}, nil
		case answerOther:
			return Outcome{Name: fmt.Sprintf("other-%d-%s", i, sig.Name)}, nil
		case answerError:
			return Outcome{}, fmt.Errorf("act%d refused %s", i, sig.Name)
		}
		return Outcome{Name: fmt.Sprintf("ok-%d-%s", i, sig.Name)}, nil
	})
}

// shapeSet declares a fresh set "s" of the shape, delivering by policy.
func shapeSet(sh declShape, policy DeliveryPolicy) *SequenceSet {
	signals := func(prefix string, from, n int) []Signal {
		var sigs []Signal
		for k := 0; k < n; k++ {
			sigs = append(sigs, Signal{Name: fmt.Sprintf("%s%d", prefix, k), Data: int64(from + k)})
		}
		return sigs
	}
	set := NewSequenceSet("s").Signals(signals("sig", 0, sh.first)...)
	if sh.fail > 0 {
		set.OnFailure(signals("fail", sh.first, sh.fail)...)
	}
	if sh.veto {
		set.Veto("veto")
	}
	if sh.declared {
		set.Outcomes("done", "undone")
	} else {
		set.Collate(func(responses []Outcome) Outcome {
			parts := make([]string, len(responses))
			for i, r := range responses {
				parts[i] = r.Name
			}
			return Outcome{Name: "collated", Data: strings.Join(parts, ",")}
		})
	}
	if sh.failOnly {
		set.SetCompletionStatus(CompletionFailOnly)
	}
	set.SetDelivery(policy)
	return set
}

// shapeResult encodes what a driven set of a shape was left with.
func shapeResult(t *testing.T, out Outcome, set *SequenceSet, rec *trace.Recorder) broadcastResult {
	t.Helper()
	encode := func(outs ...Outcome) []byte {
		e := cdr.NewEncoder(64)
		for _, o := range outs {
			if err := o.Encode(e); err != nil {
				t.Fatalf("encode outcome: %v", err)
			}
		}
		return append([]byte(nil), e.Bytes()...)
	}
	return broadcastResult{
		outcome:   encode(out),
		responses: encode(set.Responses()...),
		failed:    set.Failed(),
		trace:     rec.Sequence(),
	}
}

// concurrentPolicies are the policies that share the concurrent engine. The
// in-process actions of this package cannot relay, so tree mode must
// reproduce the parallel path exactly.
var concurrentPolicies = []DeliveryPolicy{Parallel(), Tree(4)}

// TestDifferentialParallelMatchesSerial is the differential property test:
// for random protocol shapes over idempotent actions, serial and concurrent
// delivery produce byte-identical collated outcomes and responses, the same
// failure-sequence choice and identical traces. The shape covers the
// declaration too — Veto, OnFailure, Outcomes versus Collate, a FailOnly
// start — with every action answering ok, veto, another outcome or a
// delivery error per signal.
func TestDifferentialParallelMatchesSerial(t *testing.T) {
	f := func(nSignals, nActions, latSeed, decl uint8, scriptSeed int64) bool {
		sh := genShape(int(nSignals%4)+1, int(nActions%16)+1, decl, scriptSeed)
		latency := func(i int) time.Duration {
			// Deterministic per-action jitter so fast/slow interleavings vary.
			return time.Duration((int(latSeed)+i*7)%5) * 100 * time.Microsecond
		}
		serial := runBroadcast(t, DeliveryPolicy{}, sh, latency)
		for _, policy := range concurrentPolicies {
			got := runBroadcast(t, policy, sh, latency)
			if !bytes.Equal(serial.outcome, got.outcome) || !bytes.Equal(serial.responses, got.responses) || serial.failed != got.failed {
				t.Logf("shape %+v: serial outcome=%x responses=%x failed=%v, %s outcome=%x responses=%x failed=%v",
					sh, serial.outcome, serial.responses, serial.failed, policy.Mode, got.outcome, got.responses, got.failed)
				return false
			}
			if strings.Join(serial.trace, "\n") != strings.Join(got.trace, "\n") {
				t.Logf("shape %+v: trace mismatch:\nserial:\n%s\n%s:\n%s", sh,
					strings.Join(serial.trace, "\n"), policy.Mode, strings.Join(got.trace, "\n"))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
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
			act := beginTraced("A", rec, RetryPolicy{Attempts: 1})
			var cancelled atomic.Int32
			// act0 aborts immediately; the rest block until their context dies.
			act.AddNamedAction("adv", "act0", ActionFunc(
				func(context.Context, Signal) (Outcome, error) {
					return Outcome{Name: "abort"}, nil
				}))
			for i := 1; i < 8; i++ {
				act.AddNamedAction("adv", fmt.Sprintf("act%d", i), ActionFunc(
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
			set.SetDelivery(policy)
			start := time.Now()
			out, err := act.transmit(context.Background(), set)
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
		act := beginTraced("A", rec, RetryPolicy{Attempts: 3})
		for i := 0; i < 3; i++ {
			var failures atomic.Int32
			act.AddNamedAction("s", fmt.Sprintf("act%d", i), ActionFunc(
				func(context.Context, Signal) (Outcome, error) {
					if failures.Add(1) == 1 {
						return Outcome{}, errors.New("transient")
					}
					return Outcome{Name: "ok"}, nil
				}))
		}
		set := NewSequenceSet("s", "ping")
		set.SetDelivery(policy)
		if _, err := act.transmit(context.Background(), set); err != nil {
			t.Fatal(err)
		}
		return rec.Sequence()
	}
	serial := run(DeliveryPolicy{})
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

// policylessSet hides a set's DeliveryPolicyProvider method: a SignalSet
// that declares no delivery policy at all.
type policylessSet struct{ SignalSet }

// TestDeliveryPolicyResolution verifies the one delivery rule — the set's
// declared policy, serial when it declares none — by observing actual
// concurrency.
func TestDeliveryPolicyResolution(t *testing.T) {
	run := func(declare func(*SequenceSet) SignalSet) int32 {
		a := New().Begin("probe")
		probe := &concurrencyProbe{}
		if err := a.RegisterSignalSet(declare(NewSequenceSet("s", "ping"))); err != nil {
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

	with := func(p DeliveryPolicy) func(*SequenceSet) SignalSet {
		return func(set *SequenceSet) SignalSet {
			set.SetDelivery(p)
			return set
		}
	}
	if got := run(with(Parallel())); got < 2 {
		t.Errorf("set-level parallel: max concurrency = %d, want >= 2", got)
	}
	if got := run(with(DeliveryPolicy{Mode: DeliverSerial})); got != 1 {
		t.Errorf("set-level serial: max concurrency = %d, want 1", got)
	}
	if got := run(with(DeliveryPolicy{})); got != 1 {
		t.Errorf("zero policy: max concurrency = %d, want 1", got)
	}
	if got := run(func(set *SequenceSet) SignalSet { return policylessSet{set} }); got != 1 {
		t.Errorf("set declaring no policy: max concurrency = %d, want 1", got)
	}
}

// TestParallelWorkerBound verifies the default worker bound caps in-flight
// deliveries in both concurrent modes.
func TestParallelWorkerBound(t *testing.T) {
	bound := workers(1 << 20)
	for _, policy := range concurrentPolicies {
		act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
		probe := &concurrencyProbe{}
		for i := 0; i < 3*bound; i++ {
			act.AddAction("s", probe.action())
		}
		set := NewSequenceSet("s", "ping")
		set.SetDelivery(policy)
		if _, err := act.transmit(context.Background(), set); err != nil {
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
	for _, policy := range append([]DeliveryPolicy{{}}, concurrentPolicies...) {
		act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
		act.AddNamedAction("s", "good", ActionFunc(
			func(context.Context, Signal) (Outcome, error) {
				return Outcome{Name: "ok"}, nil
			}))
		act.AddNamedAction("s", "bad", ActionFunc(
			func(context.Context, Signal) (Outcome, error) {
				return Outcome{}, errors.New("boom")
			}))
		set := NewSequenceSet("s", "ping")
		set.SetDelivery(policy)
		if _, err := act.transmit(context.Background(), set); err != nil {
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

// TestSpeculativeDeliveryAccounting accounts, from the actions' side,
// for the work an advance throws away. Concurrent delivery is
// speculative: an advancing vote with three stragglers already in flight
// leaves exactly three responses produced and discarded, and the set sees
// only the vote. Serial delivery never speculates: it stops transmitting
// at the advance.
func TestSpeculativeDeliveryAccounting(t *testing.T) {
	for _, policy := range concurrentPolicies {
		t.Run(policy.Mode.String(), func(t *testing.T) { testSpeculativeDeliveryAccounting(t, policy) })
	}
	t.Run("serial", func(t *testing.T) {
		a := New().Begin("serial")
		set := newVoteAdvanceSet()
		if err := a.RegisterSignalSet(set); err != nil {
			t.Fatal(err)
		}
		if _, err := a.AddNamedAction("adv", "abort0", ActionFunc(
			func(context.Context, Signal) (Outcome, error) {
				return Outcome{Name: "abort"}, nil
			})); err != nil {
			t.Fatal(err)
		}
		if _, err := a.AddNamedAction("adv", "never", ActionFunc(
			func(context.Context, Signal) (Outcome, error) {
				t.Error("serial delivery transmitted past an advance")
				return Outcome{}, nil
			})); err != nil {
			t.Fatal(err)
		}
		if out, err := a.Signal(context.Background(), "adv"); err != nil || out.Name != "responses=1" {
			t.Fatalf("Signal = %v, %v; want responses=1", out, err)
		}
	})
}

func testSpeculativeDeliveryAccounting(t *testing.T, policy DeliveryPolicy) {
	const stragglers = 3
	a := New().Begin("speculative")
	set := newVoteAdvanceSet()
	set.SetDelivery(policy)
	if err := a.RegisterSignalSet(set); err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, stragglers)
	var discarded atomic.Int32
	// act0 advances the set — but only after every straggler has received
	// the signal, so the discard count is deterministic. A broadcast that
	// silently ran serially would never start them: give up after a while.
	if _, err := a.AddNamedAction("adv", "act0", ActionFunc(
		func(context.Context, Signal) (Outcome, error) {
			for i := 0; i < stragglers; i++ {
				select {
				case <-started:
				case <-time.After(5 * time.Second):
					t.Error("stragglers never received the signal: delivery was not concurrent")
					return Outcome{Name: "abort"}, nil
				}
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
				discarded.Add(1)
				return Outcome{Name: "late"}, nil
			})); err != nil {
			t.Fatal(err)
		}
	}
	out, err := a.Signal(context.Background(), "adv")
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "responses=1" {
		t.Fatalf("outcome = %q, want responses=1: only the vote is fed", out.Name)
	}
	if got := discarded.Load(); got != stragglers {
		t.Fatalf("%d straggler responses produced, want exactly %d", got, stragglers)
	}
}
