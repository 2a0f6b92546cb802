// Distributed failure-injection tests: chaos-transport scenarios driving
// the extended-transaction models over a faulty network — the partitions,
// resets and slow links that "a network of systems connected indirectly by
// some distribution infrastructure" actually produces. Each scenario
// asserts the model's documented outcome and recovery behaviour, and runs
// deterministically (the faults are rule-driven, not probabilistic).
package activityservice_test

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/btp"
	"github.com/extendedtx/activityservice/hls/twopc"
	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	iorb "github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/remote"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// chaosResource is a 2PC participant counting every protocol verb it sees.
type chaosResource struct {
	prepares, commits, rollbacks atomic.Int32
}

func (r *chaosResource) Prepare() (ots.Vote, error) { r.prepares.Add(1); return ots.VoteCommit, nil }
func (r *chaosResource) Commit() error              { r.commits.Add(1); return nil }
func (r *chaosResource) Rollback() error            { r.rollbacks.Add(1); return nil }
func (r *chaosResource) CommitOnePhase() error      { r.commits.Add(1); return nil }
func (r *chaosResource) Forget() error              { return nil }

// exportChaosResource hosts a 2PC participant on its own node and returns
// the reference a coordinator enlists.
func exportChaosResource(t *testing.T, r *chaosResource) orb.IOR {
	t.Helper()
	node := orb.New()
	t.Cleanup(node.Shutdown)
	ref := orb.ExportAction(node, twopc.NewResourceAction(r))
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = node.IOR(ref.Key)
	return ref
}

// TestChaosResetBetweenPrepareAndCommit injects a connection reset exactly
// between the two phases of a remote 2PC: both participants vote, then the
// transport dies before the first commit signal leaves the coordinator.
// Documented behaviour: the commit decision stands; at-least-once delivery
// re-dials through the pool and re-drives phase two, so both participants
// commit exactly once, whether the commit rides an exclusive lane or the
// shared connection.
func TestChaosResetBetweenPrepareAndCommit(t *testing.T) {
	forEachPool(t, testChaosResetBetweenPrepareAndCommit)
}

func testChaosResetBetweenPrepareAndCommit(t *testing.T, pool orb.ORBOption, lanes bool) {
	ctx := context.Background()
	p1, p2 := &chaosResource{}, &chaosResource{}
	ref1 := exportChaosResource(t, p1)
	ref2 := exportChaosResource(t, p2)

	chaos := orb.NewChaosTransport()
	clientORB := orb.New(orb.WithTransport(chaos), orb.WithCallTimeout(2*time.Second), pool)
	defer clientORB.Shutdown()
	// Reset the connection before the first commit request is sent, after
	// both prepares.
	fault := chaos.Inject(orb.ChaosRule{
		Signal: "commit", Stage: orb.StageRequest, Count: 1, Reset: true,
	})

	svc := activityservice.New(activityservice.WithRetryPolicy(
		activityservice.RetryPolicy{Attempts: 3, Backoff: 5 * time.Millisecond}))
	coord := twopc.NewCoordinator(svc)
	tx, err := coord.Begin("reset-between-phases")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.EnlistAction(orb.ImportAction(clientORB, ref1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.EnlistAction(orb.ImportAction(clientORB, ref2)); err != nil {
		t.Fatal(err)
	}

	committed, err := tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("transaction rolled back; a reset between phases must not change the commit decision")
	}
	if fault.Hits() != 1 {
		t.Fatalf("reset fired %d times, want exactly 1", fault.Hits())
	}
	for i, p := range []*chaosResource{p1, p2} {
		if got := p.prepares.Load(); got != 1 {
			t.Errorf("participant %d prepared %d times, want 1", i+1, got)
		}
		if got := p.commits.Load(); got != 1 {
			t.Errorf("participant %d committed %d times, want 1 (retried delivery, not re-execution)", i+1, got)
		}
		if got := p.rollbacks.Load(); got != 0 {
			t.Errorf("participant %d rolled back %d times, want 0", i+1, got)
		}
	}
	assertLanes(t, clientORB, lanes, ref1.Endpoint(), ref2.Endpoint())
}

// forEachPool runs a chaos scenario on the default pool, whose lone calls
// ride exclusive lanes, and at WithPoolSize(1), whose calls all share one
// multiplexed connection.
func forEachPool(t *testing.T, scenario func(t *testing.T, pool orb.ORBOption, lanes bool)) {
	t.Run("lanes", func(t *testing.T) { scenario(t, orb.WithPoolSize(4), true) })
	t.Run("shared", func(t *testing.T) { scenario(t, orb.WithPoolSize(1), false) })
}

// assertLanes checks which connections o's client pools to endpoints
// hold: at least one exclusive lane when lanes, none otherwise.
func assertLanes(t *testing.T, o *orb.ORB, lanes bool, endpoints ...string) {
	t.Helper()
	n := 0
	for _, ep := range endpoints {
		st, _ := o.EndpointStats(ep)
		n += st.Lanes
	}
	if (n > 0) != lanes {
		t.Fatalf("client pools to %v hold %d lanes, want lanes=%v", endpoints, n, lanes)
	}
}

// chaosBTPParticipant is a remote BTP participant speaking the btp signal
// protocol directly, with idempotent confirm/cancel as the spec demands.
type chaosBTPParticipant struct {
	prepared, confirmed, cancelled atomic.Int32
}

func (p *chaosBTPParticipant) action() core.Action {
	return activityservice.ActionFunc(
		func(_ context.Context, sig activityservice.Signal) (activityservice.Outcome, error) {
			switch sig.Name {
			case btp.SignalPrepare:
				p.prepared.Add(1)
				return activityservice.Outcome{Name: btp.OutcomePrepared}, nil
			case btp.SignalConfirm:
				p.confirmed.Add(1)
				return activityservice.Outcome{Name: btp.OutcomeConfirmed}, nil
			default:
				p.cancelled.Add(1)
				return activityservice.Outcome{Name: btp.OutcomeCancelled}, nil
			}
		})
}

// TestChaosPartitionDuringConfirm partitions the network in the
// server→client direction while a prepared BTP atom confirms: confirm
// requests reach the participants, every acknowledgement is lost, and the
// coordinator's calls time out. Documented behaviour: confirm is
// at-least-once and participant confirm is idempotent, so the atom still
// reports confirmed, the participants converge on confirmed, and after the
// partition heals the transport works again. It runs over lanes and over
// the shared connection.
func TestChaosPartitionDuringConfirm(t *testing.T) {
	forEachPool(t, testChaosPartitionDuringConfirm)
}

func testChaosPartitionDuringConfirm(t *testing.T, pool orb.ORBOption, lanes bool) {
	ctx := context.Background()
	p1, p2 := &chaosBTPParticipant{}, &chaosBTPParticipant{}

	node := orb.New()
	defer node.Shutdown()
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	refs := make([]orb.IOR, 2)
	for i, p := range []*chaosBTPParticipant{p1, p2} {
		ref := orb.ExportAction(node, p.action())
		refs[i], _ = node.IOR(ref.Key)
	}

	chaos := orb.NewChaosTransport()
	clientORB := orb.New(orb.WithTransport(chaos), orb.WithCallTimeout(100*time.Millisecond), pool)
	defer clientORB.Shutdown()

	svc := activityservice.New(activityservice.WithRetryPolicy(
		activityservice.RetryPolicy{Attempts: 2, Backoff: time.Millisecond}))
	atom, err := btp.NewAtom(svc, "partitioned-confirm")
	if err != nil {
		t.Fatal(err)
	}
	atom.SetDelivery(activityservice.DeliveryPolicy{})
	for i, label := range []string{"p1", "p2"} {
		proxy := orb.ImportAction(clientORB, refs[i])
		if _, err := atom.Activity().AddNamedAction(btp.PrepareSetName, label, proxy); err != nil {
			t.Fatal(err)
		}
		if _, err := atom.Activity().AddNamedAction(btp.CompleteSetName, label, proxy); err != nil {
			t.Fatal(err)
		}
	}

	if err := atom.Prepare(ctx); err != nil {
		t.Fatalf("prepare over healthy network: %v", err)
	}

	chaos.PartitionRecv(true)
	start := time.Now()
	if err := atom.Confirm(ctx); err != nil {
		t.Fatalf("confirm during partition: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("confirm returned in %s; it should have waited out lost acknowledgements", elapsed)
	}
	if st := atom.State(); st != btp.AtomConfirmed {
		t.Fatalf("atom state = %s, want confirmed", st)
	}

	// The requests crossed the partition even though the acks did not:
	// participants converge on confirmed (possibly via idempotent
	// redelivery).
	deadline := time.Now().Add(2 * time.Second)
	for _, p := range []*chaosBTPParticipant{p1, p2} {
		for p.confirmed.Load() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("participant never saw confirm despite one-way partition")
			}
			time.Sleep(5 * time.Millisecond)
		}
		if got := p.cancelled.Load(); got != 0 {
			t.Fatalf("participant cancelled %d times during confirm", got)
		}
	}

	// Recovery: heal the partition and run a fresh atom end to end.
	chaos.Heal()
	p3 := &chaosBTPParticipant{}
	ref := orb.ExportAction(node, p3.action())
	ref, _ = node.IOR(ref.Key)
	atom2, err := btp.NewAtom(svc, "after-heal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atom2.Activity().AddNamedAction(btp.PrepareSetName, "p3", orb.ImportAction(clientORB, ref)); err != nil {
		t.Fatal(err)
	}
	if _, err := atom2.Activity().AddNamedAction(btp.CompleteSetName, "p3", orb.ImportAction(clientORB, ref)); err != nil {
		t.Fatal(err)
	}
	if err := atom2.Prepare(ctx); err != nil {
		t.Fatalf("prepare after heal: %v", err)
	}
	if err := atom2.Confirm(ctx); err != nil {
		t.Fatalf("confirm after heal: %v", err)
	}
	if p3.confirmed.Load() == 0 {
		t.Fatal("post-heal participant never confirmed")
	}
	assertLanes(t, clientORB, lanes, ref.Endpoint())
}

// TestChaosSlowParticipantTimeout runs a remote 2PC where one participant
// sits behind a link slower than the call timeout. Documented behaviour:
// its prepare times out, the delivery failure dooms the vote, and the
// healthy participant is rolled back — the slow node never commits.
func TestChaosSlowParticipantTimeout(t *testing.T) {
	ctx := context.Background()
	healthy, slow := &chaosResource{}, &chaosResource{}
	healthyRef := exportChaosResource(t, healthy)
	slowRef := exportChaosResource(t, slow)

	healthyORB := orb.New()
	defer healthyORB.Shutdown()
	chaos := orb.NewChaosTransport()
	slowORB := orb.New(orb.WithTransport(chaos), orb.WithCallTimeout(100*time.Millisecond))
	defer slowORB.Shutdown()
	chaos.Inject(orb.ChaosRule{Latency: 400 * time.Millisecond}) // every request crawls

	svc := activityservice.New(activityservice.WithRetryPolicy(
		activityservice.RetryPolicy{Attempts: 2, Backoff: time.Millisecond}))
	coord := twopc.NewCoordinator(svc)
	tx, err := coord.Begin("slow-participant")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.EnlistAction(orb.ImportAction(healthyORB, healthyRef)); err != nil {
		t.Fatal(err)
	}
	if err := tx.EnlistAction(orb.ImportAction(slowORB, slowRef)); err != nil {
		t.Fatal(err)
	}

	committed, err := tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("committed despite a participant slower than the call timeout")
	}
	if got := healthy.prepares.Load(); got != 1 {
		t.Fatalf("healthy participant prepared %d times, want 1", got)
	}
	if got := healthy.rollbacks.Load(); got != 1 {
		t.Fatalf("healthy participant rolled back %d times, want 1 (released after the doomed vote)", got)
	}
	if got := healthy.commits.Load(); got != 0 {
		t.Fatalf("healthy participant committed %d times, want 0", got)
	}
	// The slow node's requests may still land late, but the commit decision
	// never reaches it.
	time.Sleep(500 * time.Millisecond)
	if got := slow.commits.Load(); got != 0 {
		t.Fatalf("slow participant committed %d times, want 0", got)
	}
}

// TestChaosSaturationShedsFastAndConverges is the overload scenario the
// admission controller exists for: a slow servant behind a dispatch-bounded
// server takes fan-in far above its limit. Documented behaviour: the bound
// holds (in-flight dispatches never exceed it), excess callers are shed
// fast with TRANSIENT instead of queueing behind the slow work, the
// server's goroutine count stays bounded instead of growing with fan-in —
// and once the load drops, a 2PC on the same node still converges cleanly.
func TestChaosSaturationShedsFastAndConverges(t *testing.T) {
	const (
		maxInflight = 4
		fanIn       = 64
		// Three times the admission queue's 100ms shed deadline, so a
		// shed (from the queue or on arrival) always beats the servant.
		servantWork = 300 * time.Millisecond
	)
	node := orb.New(orb.WithMaxInflight(maxInflight))
	defer node.Shutdown()
	// The servant gauges its own dispatch concurrency: the ground truth
	// the admission bound must hold end to end.
	var cur, peakConcurrent atomic.Int32
	slowRef := node.RegisterServant("IDL:test/Slow:1.0", orb.ServantFunc(
		func(ctx context.Context, op string, _ *cdr.Decoder) ([]byte, error) {
			c := cur.Add(1)
			defer cur.Add(-1)
			for {
				p := peakConcurrent.Load()
				if c <= p || peakConcurrent.CompareAndSwap(p, c) {
					break
				}
			}
			select {
			case <-time.After(servantWork):
			case <-ctx.Done():
			}
			return []byte("done"), nil
		}))
	p1, p2 := &chaosResource{}, &chaosResource{}
	refs := make([]orb.IOR, 2)
	for i, p := range []*chaosResource{p1, p2} {
		ref := orb.ExportAction(node, twopc.NewResourceAction(p))
		refs[i] = ref
	}
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	slowRef, _ = node.IOR(slowRef.Key)
	for i := range refs {
		refs[i], _ = node.IOR(refs[i].Key)
	}

	client := orb.New(orb.WithPoolSize(8), orb.WithCallTimeout(5*time.Second))
	defer client.Shutdown()

	g0 := runtime.NumGoroutine()
	peakGoroutines, stopWatch := watchGoroutinePeak()

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
			_, err := client.Invoke(context.Background(), slowRef, "work", nil)
			results[i] = result{err: err, elapsed: time.Since(start)}
		}()
	}
	wg.Wait()
	stopWatch()

	succ, shed := 0, 0
	for i, r := range results {
		switch {
		case r.err == nil:
			succ++
		case iorb.IsSystem(r.err, iorb.CodeTransient):
			shed++
			if !strings.Contains(r.err.Error(), "overloaded") {
				t.Errorf("call %d: shed error %v, want admission shed detail", i, r.err)
			}
			if r.elapsed >= servantWork {
				t.Errorf("call %d: shed after %s, want rejection faster than the %s servant",
					i, r.elapsed, servantWork)
			}
		default:
			t.Errorf("call %d: unexpected error %v", i, r.err)
		}
	}
	if succ == 0 || shed == 0 {
		t.Fatalf("successes = %d, sheds = %d, want both > 0 at saturation", succ, shed)
	}
	if peak := peakConcurrent.Load(); peak > maxInflight {
		t.Fatalf("servant saw %d concurrent dispatches, want <= %d", peak, maxInflight)
	}
	// The goroutine guard: with admission the server adds at most
	// 3×maxInflight handlers (dispatches plus the 2×maxInflight queue) plus one shed writer per connection
	// on top of the fan-in's caller goroutines and the connection read
	// loops (~fanIn + 40 total); without admission, every one of the fanIn
	// requests would hold a dispatch goroutine for the full servant
	// latency (~2×fanIn + 25).
	if peak := peakGoroutines.Load(); peak >= int64(g0+2*fanIn) {
		t.Fatalf("goroutines peaked at %d (baseline %d): dispatch pile-up at saturation", peak, g0)
	}

	// Load has dropped: coordinator outcomes on the same node converge.
	svc := activityservice.New(activityservice.WithRetryPolicy(
		activityservice.RetryPolicy{Attempts: 3, Backoff: 5 * time.Millisecond}))
	coord := twopc.NewCoordinator(svc)
	tx, err := coord.Begin("after-saturation")
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs {
		if err := tx.EnlistAction(orb.ImportAction(client, ref)); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("2PC after saturation rolled back; admission must not poison the node")
	}
	for i, p := range []*chaosResource{p1, p2} {
		if got := p.commits.Load(); got != 1 {
			t.Errorf("participant %d committed %d times, want 1", i+1, got)
		}
	}
}

// TestChaosFlappingEndpointBreakerCapsProbes is the flap scenario the
// circuit breaker exists for: both participants of a 2PC
// vote commit, then the network eats every request (a one-way flap) while
// at-least-once delivery retries phase two. Documented behaviour: after
// the breaker's threshold the retries stop reaching the network — probe
// traffic is capped at one per half-open window (asserted via
// EndpointStats) instead of one per retry — and when the flap heals, the
// commit decision still redelivers: both participants commit exactly once.
func TestChaosFlappingEndpointBreakerCapsProbes(t *testing.T) {
	const (
		openFor   = 80 * time.Millisecond
		downFor   = 350 * time.Millisecond
		threshold = 2
	)
	ctx := context.Background()
	p1, p2 := &chaosResource{}, &chaosResource{}

	node := orb.New()
	defer node.Shutdown()
	refs := make([]orb.IOR, 2)
	for i, p := range []*chaosResource{p1, p2} {
		ref := orb.ExportAction(node, twopc.NewResourceAction(p))
		refs[i] = ref
	}
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		refs[i], _ = node.IOR(refs[i].Key)
	}

	chaos := orb.NewChaosTransport()
	clientORB := orb.New(
		orb.WithTransport(chaos),
		orb.WithCallTimeout(50*time.Millisecond),
		orb.WithCircuitBreaker(threshold, openFor),
		orb.WithReconnectBackoff(time.Millisecond, 5*time.Millisecond),
	)
	defer clientORB.Shutdown()
	// After the prepares, every commit request vanishes into the flap
	// until it heals: the batched commit and each member redelivery alike.
	fault := chaos.Inject(orb.ChaosRule{
		Signal: "commit", Stage: orb.StageRequest, Drop: true,
	})

	svc := activityservice.New(activityservice.WithRetryPolicy(
		activityservice.RetryPolicy{Attempts: 60, Backoff: 20 * time.Millisecond}))
	coord := twopc.NewCoordinator(svc)
	tx, err := coord.Begin("flapping-endpoint")
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs {
		if err := tx.EnlistAction(orb.ImportAction(clientORB, ref)); err != nil {
			t.Fatal(err)
		}
	}

	type outcome struct {
		committed bool
		err       error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		committed, err := tx.Commit(ctx)
		done <- outcome{committed, err}
	}()

	// Let phase two grind against the flap, then heal it.
	time.Sleep(downFor)
	fault.Remove()
	if fault.Hits() == 0 {
		t.Fatal("the drop rule never fired: phase two never met the flap")
	}

	var out outcome
	select {
	case out = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("2PC never converged after the flap healed")
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if !out.committed {
		t.Fatal("transaction rolled back; a flap during phase two must not change the decision")
	}
	elapsed := time.Since(start)

	for i, p := range []*chaosResource{p1, p2} {
		if got := p.prepares.Load(); got != 1 {
			t.Errorf("participant %d prepared %d times, want 1", i+1, got)
		}
		if got := p.commits.Load(); got != 1 {
			t.Errorf("participant %d committed %d times, want 1 (redelivered after the flap)", i+1, got)
		}
		if got := p.rollbacks.Load(); got != 0 {
			t.Errorf("participant %d rolled back %d times, want 0", i+1, got)
		}
	}

	st, ok := clientORB.EndpointStats(refs[0].Endpoint())
	if !ok {
		t.Fatal("no endpoint stats for the flapping endpoint")
	}
	if st.BreakerOpens == 0 {
		t.Fatalf("stats = %+v, want the breaker to have opened during the flap", st)
	}
	if st.Breaker != iorb.BreakerClosed {
		t.Fatalf("stats = %+v, want a closed breaker after recovery", st)
	}
	// The probe cap: at most one admitted probe per half-open window over
	// the whole run (plus slack for the closing probe), instead of one
	// network attempt per retry.
	maxProbes := uint64(elapsed/openFor) + 2
	if st.BreakerProbes == 0 || st.BreakerProbes > maxProbes {
		t.Fatalf("breaker admitted %d probes over %s, want 1..%d (<= 1 per %s window)",
			st.BreakerProbes, elapsed.Round(time.Millisecond), maxProbes, openFor)
	}
	// And the wire agrees: the flap ate the pre-breaker attempts and the
	// in-flap probes, not a retry storm.
	if hits := fault.Hits(); hits > threshold+int(maxProbes) {
		t.Fatalf("%d requests reached the flapping link, want <= threshold+probes = %d",
			hits, threshold+int(maxProbes))
	}
}

// replicatedAction is one participant exported on several nodes. It
// orders the deliveries it gets through any of them, which no single
// node's action servant can do.
type replicatedAction struct {
	mu     sync.Mutex
	action core.Action
}

func (a *replicatedAction) ProcessSignal(ctx context.Context, sig core.Signal) (core.Outcome, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.action.ProcessSignal(ctx, sig)
}

// TestChaosFailoverCommitConvergesViaBackupProfile is the multi-profile
// failover scenario the IOR redesign exists for: both 2PC participants are
// replicated behind two-profile references (a primary and a backup node
// serving the same servant keys), the primary endpoint is hard-reset
// between prepare and commit — every further frame toward it kills the
// connection — and the commit must converge through the backup profile
// within the same Invoke. Documented behaviour: the commit decision
// stands, each participant commits exactly once (the reset happened
// before any commit was delivered, so failover cannot duplicate), the
// client's breaker opens on the dead profile only, and the backup profile
// stays clean.
func TestChaosFailoverCommitConvergesViaBackupProfile(t *testing.T) {
	ctx := context.Background()
	r1, r2 := &chaosResource{}, &chaosResource{}

	// Two nodes serving the same participants under the same keys: the
	// replicated-participant deployment the ROADMAP points at. The action
	// state (including the recorded vote) is shared between the nodes, as
	// a real replicated participant's durable state would be — the wire
	// endpoints are what differ. Each node's action servant orders the
	// deliveries to its own export only, so the shared participant orders
	// its deliveries across the nodes itself, as a replicated store would.
	a1 := &replicatedAction{action: twopc.NewResourceAction(r1)}
	a2 := &replicatedAction{action: twopc.NewResourceAction(r2)}
	newNode := func() *orb.ORB {
		node := orb.New()
		t.Cleanup(node.Shutdown)
		remote.ExportActionWithKey(node, "part-1", a1)
		remote.ExportActionWithKey(node, "part-2", a2)
		return node
	}
	primary, backup := newNode(), newNode()
	ep1, err := primary.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := backup.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref1 := orb.NewIOR("IDL:ActivityService/Action:1.0", "part-1", ep1, ep2)
	ref2 := orb.NewIOR("IDL:ActivityService/Action:1.0", "part-2", ep1, ep2)

	chaos := orb.NewChaosTransport()
	clientORB := orb.New(
		orb.WithTransport(chaos),
		orb.WithCallTimeout(2*time.Second),
		// Both participants share the primary, so their commit is one
		// batched call: one failure is the dead profile's whole record.
		orb.WithCircuitBreaker(1, 5*time.Second),
	)
	defer clientORB.Shutdown()
	// After the prepares, the primary endpoint is hard-reset for commits:
	// every commit frame toward it kills its connection before leaving.
	fault := chaos.Inject(orb.ChaosRule{
		Signal: "commit", Addr: ep1, Stage: orb.StageRequest, Reset: true,
	})

	svc := activityservice.New(activityservice.WithRetryPolicy(
		activityservice.RetryPolicy{Attempts: 3, Backoff: 5 * time.Millisecond}))
	coord := twopc.NewCoordinator(svc)
	tx, err := coord.Begin("failover-between-phases")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.EnlistAction(orb.ImportAction(clientORB, ref1)); err != nil {
		t.Fatal(err)
	}
	if err := tx.EnlistAction(orb.ImportAction(clientORB, ref2)); err != nil {
		t.Fatal(err)
	}

	committed, err := tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("transaction rolled back; losing the primary endpoint between phases must not change the decision")
	}
	if fault.Hits() == 0 {
		t.Fatal("the reset rule never fired: the scenario did not exercise failover")
	}
	for i, r := range []*chaosResource{r1, r2} {
		if got := r.prepares.Load(); got != 1 {
			t.Errorf("participant %d prepared %d times, want 1", i+1, got)
		}
		if got := r.commits.Load(); got != 1 {
			t.Errorf("participant %d committed %d times, want exactly 1 (failover, not duplication)", i+1, got)
		}
		if got := r.rollbacks.Load(); got != 0 {
			t.Errorf("participant %d rolled back %d times, want 0", i+1, got)
		}
	}

	// The breaker verdict localizes the failure to the dead profile.
	pst, ok := clientORB.EndpointStats(ep1)
	if !ok || pst.BreakerOpens == 0 {
		t.Fatalf("primary endpoint stats = %+v, want the breaker to have opened on the dead profile", pst)
	}
	bst, ok := clientORB.EndpointStats(ep2)
	if !ok {
		t.Fatal("no stats for the backup endpoint")
	}
	if bst.BreakerOpens != 0 || bst.Breaker == iorb.BreakerOpen || bst.Down {
		t.Fatalf("backup endpoint stats = %+v, want a clean healthy profile", bst)
	}
	assertLanes(t, clientORB, true, ep2) // the failed-over calls rode a lane

	// And the failover is sticky: a fresh 2PC on the same references runs
	// entirely through the backup, without touching the dead primary. The
	// reset rule sees only commits, so a rule that injects nothing counts
	// every frame toward the primary, prepares included.
	toPrimary := chaos.Inject(orb.ChaosRule{Addr: ep1, Stage: orb.StageRequest})
	tx2, err := coord.Begin("after-failover")
	if err != nil {
		t.Fatal(err)
	}
	if err := tx2.EnlistAction(orb.ImportAction(clientORB, ref1)); err != nil {
		t.Fatal(err)
	}
	if err := tx2.EnlistAction(orb.ImportAction(clientORB, ref2)); err != nil {
		t.Fatal(err)
	}
	committed, err = tx2.Commit(ctx)
	if err != nil || !committed {
		t.Fatalf("post-failover 2PC: committed=%v err=%v", committed, err)
	}
	if got := toPrimary.Hits(); got != 0 {
		t.Fatalf("post-failover 2PC sent %d frames at the dead primary, want 0 (sticky affinity)", got)
	}
	if got := r1.commits.Load(); got != 2 {
		t.Fatalf("participant 1 committed %d times after second tx, want 2", got)
	}
}
