// Differential and chaos tests for tree-structured relay delivery: the
// relay fan-out must be observationally identical to flat delivery —
// byte-identical collation, identical traces, exactly-once counters on
// pure broadcasts — and an interior relay dying mid-round must be
// re-adopted by its parent without changing a 2PC decision or delivering
// a signal's effect more than once.
package activityservice_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/twopc"
	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/orb"
)

// scriptSet is a SignalSet broadcasting a fixed script of signals (with
// payloads, unlike SequenceSet) and recording every response in feed
// order. When veto is non-empty, a response with that outcome name
// requests an early advance — the speculative short-circuit path.
type scriptSet struct {
	activityservice.BaseSet

	mu        sync.Mutex
	signals   []activityservice.Signal
	idx       int
	responses []activityservice.Outcome
	veto      string
}

func newScriptSet(name string, signals []activityservice.Signal, veto string) *scriptSet {
	return &scriptSet{BaseSet: activityservice.NewBaseSet(name), signals: signals, veto: veto}
}

// GetSignal implements SignalSet.
func (s *scriptSet) GetSignal() (activityservice.Signal, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx >= len(s.signals) {
		return activityservice.Signal{}, false, activityservice.ErrExhausted
	}
	sig := s.signals[s.idx]
	s.idx++
	return sig, s.idx == len(s.signals), nil
}

// SetResponse implements SignalSet.
func (s *scriptSet) SetResponse(resp activityservice.Outcome, deliveryErr error) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if deliveryErr != nil {
		resp = activityservice.Outcome{Name: "delivery-error", Data: deliveryErr.Error()}
	}
	s.responses = append(s.responses, resp)
	return s.veto != "" && resp.Name == s.veto, nil
}

// GetOutcome implements SignalSet.
func (s *scriptSet) GetOutcome() (activityservice.Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return activityservice.Outcome{Name: "scripted", Data: int64(len(s.responses))}, nil
}

// Responses returns the feed-order response log.
func (s *scriptSet) Responses() []activityservice.Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]activityservice.Outcome(nil), s.responses...)
}

// diffFixture is the differential harness: fanout participants spread
// over in-process site ORBs (each hosting the well-known relay servant),
// imported into one client ORB, with per-participant per-signal delivery
// counters.
type diffFixture struct {
	actions []activityservice.Action
	counts  []*sync.Map // participant -> signal name -> *atomic.Int32
}

func newDiffFixture(t *testing.T, fanout, sites int) *diffFixture {
	t.Helper()
	siteORBs := make([]*orb.ORB, sites)
	for i := range siteORBs {
		siteORBs[i] = orb.New()
		t.Cleanup(siteORBs[i].Shutdown)
		orb.ServeRelay(siteORBs[i])
	}
	client := orb.New()
	t.Cleanup(client.Shutdown)

	fx := &diffFixture{
		actions: make([]activityservice.Action, fanout),
		counts:  make([]*sync.Map, fanout),
	}
	for i := 0; i < fanout; i++ {
		i := i
		fx.counts[i] = &sync.Map{}
		site := siteORBs[i%sites]
		ref := orb.ExportAction(site, activityservice.ActionFunc(
			func(_ context.Context, sig activityservice.Signal) (activityservice.Outcome, error) {
				c, _ := fx.counts[i].LoadOrStore(sig.Name, new(atomic.Int32))
				c.(*atomic.Int32).Add(1)
				// A participant- and signal-specific payload: any collation
				// divergence between delivery modes becomes a byte diff.
				return activityservice.Outcome{
					Name: "ack:" + sig.Name,
					Data: int64(i)<<16 | int64(len(sig.Name)),
				}, nil
			}))
		ref, _ = site.IOR(ref.Key)
		fx.actions[i] = orb.ImportAction(client, ref)
	}
	return fx
}

// snapshot returns each participant's delivery count per script signal and
// clears all counters for the next run.
func (fx *diffFixture) snapshot(signals []activityservice.Signal) [][]int32 {
	out := make([][]int32, len(signals))
	for s, sig := range signals {
		out[s] = make([]int32, len(fx.counts))
		for i, m := range fx.counts {
			if c, ok := m.Load(sig.Name); ok {
				out[s][i] = c.(*atomic.Int32).Load()
			}
		}
	}
	for i := range fx.counts {
		fx.counts[i] = &sync.Map{}
	}
	return out
}

// runScript drives one activity over the fixture's participants under the
// given delivery policy and returns the encoded response log (collation
// bytes) and the recorded trace.
func (fx *diffFixture) runScript(t *testing.T, policy activityservice.DeliveryPolicy, signals []activityservice.Signal, veto string) ([]byte, []string) {
	t.Helper()
	rec := activityservice.NewTraceRecorder()
	svc := activityservice.New(activityservice.WithDelivery(policy), activityservice.WithTrace(rec))
	a := svc.Begin("differential")
	set := newScriptSet("script", signals, veto)
	if err := a.RegisterSignalSet(set); err != nil {
		t.Fatal(err)
	}
	for i, action := range fx.actions {
		if _, err := a.AddNamedAction("script", fmt.Sprintf("p%04d", i), action); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Signal(context.Background(), "script"); err != nil {
		t.Fatal(err)
	}
	enc := cdr.NewEncoder(1024)
	for _, o := range set.Responses() {
		if err := o.Encode(enc); err != nil {
			t.Fatal(err)
		}
	}
	return append([]byte(nil), enc.Bytes()...), rec.Sequence()
}

// randomScript builds a deterministic pseudo-random signal script: names
// from a small alphabet, payloads mixing every cdr-any shape.
func randomScript(rng *rand.Rand, setName string, n int) []activityservice.Signal {
	alphabet := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	signals := make([]activityservice.Signal, n)
	for i := range signals {
		name := alphabet[rng.Intn(len(alphabet))] + fmt.Sprintf("-%d", i)
		var data any
		switch rng.Intn(3) {
		case 0:
			data = rng.Int63()
		case 1:
			data = fmt.Sprintf("payload-%d", rng.Int63())
		default:
			data = []any{rng.Int63(), "nested"}
		}
		signals[i] = activityservice.Signal{Name: name, SetName: setName, Data: data}
	}
	return signals
}

// TestTreeDifferentialMatchesSerial is the differential property test: for
// randomized broadcast scripts at fanout 256 across branching factors
// 2..8, tree delivery must produce byte-identical collation, an identical
// trace, and exactly-once delivery to every participant — indistinguishable
// from serial delivery except in how the signals traveled.
func TestTreeDifferentialMatchesSerial(t *testing.T) {
	const fanout = 256
	fx := newDiffFixture(t, fanout, 4)

	for _, branching := range []int{2, 3, 8} {
		branching := branching
		t.Run(fmt.Sprintf("branching=%d", branching), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + branching)))
			for script := 0; script < 2; script++ {
				signals := randomScript(rng, "script", 2+rng.Intn(2))

				serialBytes, serialTrace := fx.runScript(t, activityservice.DeliveryPolicy{Mode: activityservice.DeliverSerial}, signals, "")
				serialCounts := fx.snapshot(signals)

				treeBytes, treeTrace := fx.runScript(t, activityservice.Tree(branching), signals, "")
				treeCounts := fx.snapshot(signals)
				for i, sig := range signals {
					for p := 0; p < fanout; p++ {
						if serialCounts[i][p] != 1 {
							t.Fatalf("script %d: serial delivered %q to participant %d %d times, want 1", script, sig.Name, p, serialCounts[i][p])
						}
						if treeCounts[i][p] != 1 {
							t.Fatalf("script %d: tree delivered %q to participant %d %d times, want exactly once", script, sig.Name, p, treeCounts[i][p])
						}
					}
				}
				if !bytes.Equal(serialBytes, treeBytes) {
					t.Fatalf("script %d: tree collation diverged from serial (%d vs %d bytes)", script, len(treeBytes), len(serialBytes))
				}
				if len(serialTrace) != len(treeTrace) {
					t.Fatalf("script %d: trace length %d (tree) vs %d (serial)", script, len(treeTrace), len(serialTrace))
				}
				for i := range serialTrace {
					if serialTrace[i] != treeTrace[i] {
						t.Fatalf("script %d: trace diverged at event %d: %q (tree) vs %q (serial)", script, i, treeTrace[i], serialTrace[i])
					}
				}
			}
		})
	}
}

// TestTreeDifferentialAdvanceShortCircuit covers the speculative path: a
// mid-fanout participant vetoes the first broadcast, forcing an early
// advance. Tree delivery is speculative — batches already relayed cannot
// be recalled — but the fed responses, the collation and the trace must
// still match serial delivery exactly. (Delivery counters are not
// compared: speculative modes may legitimately deliver to participants
// whose responses are then discarded.)
func TestTreeDifferentialAdvanceShortCircuit(t *testing.T) {
	const (
		fanout  = 256
		vetoIdx = 100
	)
	siteORBs := make([]*orb.ORB, 4)
	for i := range siteORBs {
		siteORBs[i] = orb.New()
		t.Cleanup(siteORBs[i].Shutdown)
		orb.ServeRelay(siteORBs[i])
	}
	client := orb.New()
	t.Cleanup(client.Shutdown)
	actions := make([]activityservice.Action, fanout)
	for i := 0; i < fanout; i++ {
		i := i
		site := siteORBs[i%4]
		ref := orb.ExportAction(site, activityservice.ActionFunc(
			func(_ context.Context, sig activityservice.Signal) (activityservice.Outcome, error) {
				if i == vetoIdx && sig.Name == "poll" {
					return activityservice.Outcome{Name: "veto", Data: int64(i)}, nil
				}
				return activityservice.Outcome{Name: "ack:" + sig.Name, Data: int64(i)}, nil
			}))
		ref, _ = site.IOR(ref.Key)
		actions[i] = orb.ImportAction(client, ref)
	}

	signals := []activityservice.Signal{
		{Name: "poll", SetName: "script", Data: int64(1)},
		{Name: "cancel", SetName: "script", Data: int64(2)},
	}
	run := func(policy activityservice.DeliveryPolicy) ([]byte, []string) {
		rec := activityservice.NewTraceRecorder()
		svc := activityservice.New(activityservice.WithDelivery(policy), activityservice.WithTrace(rec))
		a := svc.Begin("advance")
		set := newScriptSet("script", signals, "veto")
		if err := a.RegisterSignalSet(set); err != nil {
			t.Fatal(err)
		}
		for i, action := range actions {
			if _, err := a.AddNamedAction("script", fmt.Sprintf("p%04d", i), action); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.Signal(context.Background(), "script"); err != nil {
			t.Fatal(err)
		}
		enc := cdr.NewEncoder(1024)
		for _, o := range set.Responses() {
			if err := o.Encode(enc); err != nil {
				t.Fatal(err)
			}
		}
		return append([]byte(nil), enc.Bytes()...), rec.Sequence()
	}

	serialBytes, serialTrace := run(activityservice.DeliveryPolicy{Mode: activityservice.DeliverSerial})
	treeBytes, treeTrace := run(activityservice.Tree(4))
	if !bytes.Equal(serialBytes, treeBytes) {
		t.Fatalf("advance collation diverged: %d bytes (tree) vs %d (serial)", len(treeBytes), len(serialBytes))
	}
	if len(serialTrace) != len(treeTrace) {
		t.Fatalf("advance trace length %d (tree) vs %d (serial)", len(treeTrace), len(serialTrace))
	}
	for i := range serialTrace {
		if serialTrace[i] != treeTrace[i] {
			t.Fatalf("advance trace diverged at event %d: %q (tree) vs %q (serial)", i, treeTrace[i], serialTrace[i])
		}
	}
}

// relayChaosFixture spreads one 2PC participant per site over real TCP,
// every site sharing one chaos transport for its outbound (relay-to-relay
// and relay-to-member) calls, while the coordinator's client ORB dials
// through a clean transport. Any relay_deliver crossing the chaos
// transport is therefore an interior forward — exactly the traffic an
// interior-relay-death scenario must disturb.
type relayChaosFixture struct {
	resources []*chaosResource
	refs      []orb.IOR
	client    *orb.ORB
	chaos     *orb.ChaosTransport
}

func newRelayChaosFixture(t *testing.T, sites int, wrap func(activityservice.Action) activityservice.Action) *relayChaosFixture {
	t.Helper()
	fx := &relayChaosFixture{chaos: orb.NewChaosTransport(nil)}
	fx.client = orb.New(orb.WithCallTimeout(2 * time.Second))
	t.Cleanup(fx.client.Shutdown)

	refs := make([]orb.IOR, sites)
	for i := 0; i < sites; i++ {
		site := orb.New(orb.WithTransport(fx.chaos), orb.WithCallTimeout(2*time.Second))
		t.Cleanup(site.Shutdown)
		if _, err := site.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		orb.ServeRelay(site)
		r := &chaosResource{}
		fx.resources = append(fx.resources, r)
		action := activityservice.Action(twopc.NewResourceAction(r))
		if wrap != nil {
			action = wrap(action)
		}
		ref := orb.ExportAction(site, action)
		refs[i], _ = site.IOR(ref.Key)
	}
	fx.refs = refs
	return fx
}

// commitTree runs one 2PC over every participant with tree delivery.
func (fx *relayChaosFixture) commitTree(t *testing.T, branching int) bool {
	t.Helper()
	svc := activityservice.New(activityservice.WithRetryPolicy(
		activityservice.RetryPolicy{Attempts: 3, Backoff: 5 * time.Millisecond}))
	coord := twopc.NewCoordinator(svc, twopc.WithDelivery(activityservice.Tree(branching)))
	tx, err := coord.Begin("relay-chaos")
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range fx.refs {
		if err := tx.EnlistAction(orb.ImportAction(fx.client, ref)); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return committed
}

// TestRelayChaosInteriorDeathReadopts kills an interior relay mid-prepare:
// the first relay-to-relay forward is reset before it is sent, so the
// parent relay re-adopts the orphaned span and delivers those members
// directly. Documented behaviour: the 2PC decision converges — commit —
// and every participant prepares and commits exactly once (the relay died
// before delivering anything, so re-adoption cannot duplicate).
func TestRelayChaosInteriorDeathReadopts(t *testing.T) {
	fx := newRelayChaosFixture(t, 8, nil)
	fault := fx.chaos.Inject(orb.ChaosRule{
		Op: "relay_deliver", Stage: orb.StageRequest, Reset: true, Count: 1,
	})

	if !fx.commitTree(t, 2) {
		t.Fatal("2PC rolled back; an interior relay death must not change the decision")
	}
	if fault.Hits() != 1 {
		t.Fatalf("interior forward reset fired %d times, want exactly 1", fault.Hits())
	}
	for i, r := range fx.resources {
		if got := r.prepares.Load(); got != 1 {
			t.Errorf("participant %d prepared %d times, want exactly 1", i, got)
		}
		if got := r.commits.Load(); got != 1 {
			t.Errorf("participant %d committed %d times, want exactly 1", i, got)
		}
		if got := r.rollbacks.Load(); got != 0 {
			t.Errorf("participant %d rolled back %d times, want 0", i, got)
		}
	}
}

// TestRelayChaosLostReplyRedeliversIdempotently kills the interior relay
// after it delivered its span but before its aggregated reply reaches the
// parent: the parent cannot tell delivery from death, re-adopts the span
// and redelivers. Documented behaviour: outer delivery is at-least-once,
// the idempotent wrapper absorbs the duplicates, and the protocol effect —
// the resource's prepare/commit — still happens exactly once while the
// 2PC converges on commit.
func TestRelayChaosLostReplyRedeliversIdempotently(t *testing.T) {
	fx := newRelayChaosFixture(t, 8, activityservice.Idempotent)
	fault := fx.chaos.Inject(orb.ChaosRule{
		Op: "relay_deliver", Stage: orb.StageReply, Reset: true, Count: 1,
	})

	if !fx.commitTree(t, 2) {
		t.Fatal("2PC rolled back; a lost relay reply must not change the decision")
	}
	if fault.Hits() != 1 {
		t.Fatalf("reply-stage reset fired %d times, want exactly 1", fault.Hits())
	}
	for i, r := range fx.resources {
		if got := r.prepares.Load(); got != 1 {
			t.Errorf("participant %d prepared %d times, want exactly 1 (idempotent redelivery)", i, got)
		}
		if got := r.commits.Load(); got != 1 {
			t.Errorf("participant %d committed %d times, want exactly 1", i, got)
		}
		if got := r.rollbacks.Load(); got != 0 {
			t.Errorf("participant %d rolled back %d times, want 0", i, got)
		}
	}
}

// countingTransport dials TCP and counts every frame byte written on its
// connections.
type countingTransport struct{ sent *atomic.Int64 }

// Dial implements orb.Transport.
func (t countingTransport) Dial(ctx context.Context, addr string) (orb.Conn, error) {
	c, err := orb.TCPTransport{}.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, sent: t.sent}, nil
}

// countingConn counts outbound frame bytes. Embedding the interface hides
// the batch-write fast path, so every frame passes through WriteFrame.
type countingConn struct {
	orb.Conn
	sent *atomic.Int64
}

// WriteFrame implements orb.Conn.
func (c countingConn) WriteFrame(p []byte) error {
	c.sent.Add(int64(len(p)))
	return c.Conn.WriteFrame(p)
}

// TestTreeCoordinatorBytesConstantInFanout pins the relay tree's headline
// cost in BenchmarkTreeFanout's topology: once the warm-up round has
// planted the memberships, every round ships one constant-size plant
// reference per subtree root, so the coordinator's outbound bytes per
// round are the same at fanout 64 and 256 — while flat delivery writes a
// frame per participant and grows with fanout.
func TestTreeCoordinatorBytesConstantInFanout(t *testing.T) {
	perRound := func(fanout int, policy activityservice.DeliveryPolicy) int64 {
		var sent atomic.Int64
		round := treeFanout(t, fanout, 4, policy, orb.WithTransport(countingTransport{&sent}))
		round()
		sent.Store(0)
		round()
		return sent.Load()
	}
	tree64, tree256 := perRound(64, activityservice.Tree(8)), perRound(256, activityservice.Tree(8))
	flat64, flat256 := perRound(64, activityservice.Parallel()), perRound(256, activityservice.Parallel())
	t.Logf("bytes/round: tree %d → %d, flat %d → %d (fanout 64 → 256)", tree64, tree256, flat64, flat256)
	if tree64 != tree256 {
		t.Errorf("tree coordinator bytes/round grew with fanout: %d at 64, %d at 256", tree64, tree256)
	}
	if flat256 <= flat64 {
		t.Errorf("flat coordinator bytes/round did not grow with fanout: %d at 64, %d at 256", flat64, flat256)
	}
}
