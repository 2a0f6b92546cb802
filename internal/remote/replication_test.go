package remote

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/wal"
)

// startPrimary serves replication for log — a group member on a listening
// ORB — and returns the ORB, the member's primary handle and the ORB's
// endpoints.
func startPrimary(t *testing.T, log *wal.Log) (*orb.ORB, *ReplicationPrimary, []string) {
	t.Helper()
	primaryORB, endpoints := listenORB(t)
	g := NewGroupMember(primaryORB, log, GroupConfig{MemberID: "primary"})
	return primaryORB, g.Primary(), endpoints
}

// testFollower streams the replication servant at endpoints into log.
func testFollower(o *orb.ORB, endpoints []string, log *wal.Log, poll time.Duration) *ReplicationFollower {
	return NewReplicationFollower(o, ReplicationAt(endpoints...), log, "f", poll, groupTestPolicy)
}

// waitLSN blocks until the log's last LSN reaches want or the deadline.
func waitLSN(t *testing.T, l *wal.Log, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for l.LastLSN() < want {
		if time.Now().After(deadline) {
			t.Fatalf("log stuck at LSN %d, want %d", l.LastLSN(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDecisionGateQuorumBlocksUntilAcks pins the gate's core safety
// property: a decision is NOT released until the requested number of
// distinct followers durably acked it — the gate blocks rather than
// degrading to asynchronous shipping on a slow standby.
func TestDecisionGateQuorumBlocksUntilAcks(t *testing.T) {
	log := wal.NewMemory()
	_, p, _ := startPrimary(t, log)
	lsn, err := log.Append(wal.Kind(7), []byte("decision"))
	if err != nil {
		t.Fatal(err)
	}
	gate := p.DecisionGateN(2, 20*time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- gate(lsn) }()

	select {
	case err := <-done:
		t.Fatalf("gate released with zero acks: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	p.noteAck("f1", lsn)
	select {
	case err := <-done:
		t.Fatalf("gate released with one of two required acks: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
	p.noteAck("f2", lsn)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gate with quorum acks = %v, want release", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gate never released after the quorum acked")
	}
}

// TestDecisionGateFenceVetoesWhileBlocked deposes the leader while its
// gate is parked waiting for acks that will never come: the gate must
// observe the fence on its next re-check and veto with FENCED instead of
// blocking forever (the vetoed decision is the orphan the rejoin
// truncation cuts).
func TestDecisionGateFenceVetoesWhileBlocked(t *testing.T) {
	log := wal.NewMemory()
	if _, err := log.AdoptTerm(1, "leader"); err != nil {
		t.Fatal(err)
	}
	_, p, _ := startPrimary(t, log)
	lsn, err := log.Append(wal.Kind(7), []byte("decision"))
	if err != nil {
		t.Fatal(err)
	}
	gate := p.DecisionGateN(1, 20*time.Millisecond)
	done := make(chan error, 1)
	go func() { done <- gate(lsn) }()

	time.Sleep(60 * time.Millisecond) // let the gate park on the missing ack
	log.Fence(2)
	select {
	case err := <-done:
		if !orb.IsSystem(err, orb.CodeFenced) {
			t.Fatalf("deposed gate = %v, want the FENCED system exception", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked gate never observed the fence")
	}
}

func TestReplicationStreamsAndResyncs(t *testing.T) {
	primaryLog := wal.NewMemory()
	_, p, endpoints := startPrimary(t, primaryLog)

	followerORB := orb.New()
	t.Cleanup(followerORB.Shutdown)
	followerLog := wal.NewMemory()
	f := testFollower(followerORB, endpoints, followerLog, 200*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- f.Run(ctx) }()

	// Incremental stream: appended records arrive with LSNs preserved.
	for i := 0; i < 3; i++ {
		if _, err := primaryLog.Append(wal.Kind(1), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitLSN(t, followerLog, 3)
	if !p.WaitForAckN(3, 1, 5*time.Second) {
		t.Fatalf("primary never saw ack for LSN 3 (acked %d)", p.Acked())
	}

	// A checkpoint compacts the primary (epoch bump): the follower must
	// resynchronise from a snapshot and adopt the new epoch.
	if err := primaryLog.Checkpoint(func(r wal.Record) bool { return r.LSN >= 3 }); err != nil {
		t.Fatal(err)
	}
	if _, err := primaryLog.Append(wal.Kind(2), []byte("post")); err != nil {
		t.Fatal(err)
	}
	waitLSN(t, followerLog, 4)
	deadline := time.Now().Add(5 * time.Second)
	for {
		fe, fn := followerLog.State()
		pe, pn := primaryLog.State()
		if fe == pe && fn == pn {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower state (%d,%d) never converged to primary (%d,%d)", fe, fn, pe, pn)
		}
		time.Sleep(time.Millisecond)
	}
	fRecs, err := followerLog.Records()
	if err != nil {
		t.Fatal(err)
	}
	pRecs, _ := primaryLog.Records()
	if len(fRecs) != len(pRecs) {
		t.Fatalf("follower has %d records, primary %d", len(fRecs), len(pRecs))
	}
	for i := range fRecs {
		if fRecs[i].LSN != pRecs[i].LSN || string(fRecs[i].Data) != string(pRecs[i].Data) {
			t.Fatalf("record %d diverged: follower %+v primary %+v", i, fRecs[i], pRecs[i])
		}
	}

	// Cancelling the context stops the follower cleanly.
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v after cancel, want nil", err)
	}
}

// TestReplicationDecisionGateHoldsPhaseTwo: a leader whose peer list names
// its standby commits through the group's decision gate, so Commit does
// not start phase two until the standby holds the decision record — a
// leader killed any time after the decision leaves a standby that already
// knows the outcome.
func TestReplicationDecisionGateHoldsPhaseTwo(t *testing.T) {
	leaderLog, followerLog := wal.NewMemory(), wal.NewMemory()
	followerORB, followerEps := listenORB(t)
	leader := newTestMember(t, "leader", leaderLog, followerEps, nil, nil)
	if err := leader.g.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	follower := &testMember{o: followerORB, log: followerLog, eps: followerEps}
	follower.g = NewGroupMember(followerORB, followerLog, GroupConfig{
		MemberID: "standby", Peers: leader.eps, LeaderHint: leader.eps,
		Poll: 100 * time.Millisecond, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
	})
	follower.start(t)

	var lagAtPhase2 []uint64 // follower's LSN observed as each commit is delivered
	var mu sync.Mutex
	svc := ots.NewService(
		ots.WithLog(leaderLog),
		ots.WithDecisionGate(leader.g.DecisionGate(time.Second)),
		ots.WithEventHook(func(ev ots.Event) {
			if ev.Stage == ots.StageCommitDelivered {
				mu.Lock()
				lagAtPhase2 = append(lagAtPhase2, followerLog.LastLSN())
				mu.Unlock()
			}
		}),
	)
	tx := svc.Begin()
	r1, r2 := &slotResource{vote: ots.VoteCommit}, &slotResource{vote: ots.VoteCommit}
	_ = tx.RegisterResource(r1)
	_ = tx.RegisterResource(r2)
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}

	decisionLSN := uint64(2) // the term record is 1; the decision is the first record the service logged
	mu.Lock()
	defer mu.Unlock()
	if len(lagAtPhase2) != 2 {
		t.Fatalf("saw %d phase-two deliveries, want 2", len(lagAtPhase2))
	}
	for i, lsn := range lagAtPhase2 {
		if lsn < decisionLSN {
			t.Fatalf("delivery %d ran with follower at LSN %d, before the decision (%d) — gate did not hold", i, lsn, decisionLSN)
		}
	}
	// The decision record itself must be on the standby, byte-identical.
	fRecs, err := followerLog.Records()
	if err != nil {
		t.Fatal(err)
	}
	lRecs, _ := leaderLog.Records()
	if len(fRecs) < 2 || fRecs[1].Kind != ots.RecordDecision || string(fRecs[1].Data) != string(lRecs[1].Data) {
		t.Fatalf("follower log = %+v, want the leader's decision record at LSN %d", fRecs, decisionLSN)
	}
}

// countingResource counts phase-two deliveries for exactly-once checks.
type countingResource struct {
	slotResource
	commits   atomic.Int32
	rollbacks atomic.Int32
}

func (c *countingResource) Commit() error {
	c.commits.Add(1)
	return c.slotResource.Commit()
}

func (c *countingResource) Rollback() error {
	c.rollbacks.Add(1)
	return c.slotResource.Rollback()
}

func TestReplicationStandbyTakeover(t *testing.T) {
	// The tentpole scenario, in-process, as a group of two: the leader
	// (peer list = the standby) logs a commit decision — replicated
	// synchronously by the gate — then dies before delivering phase two.
	// The standby (no peers: it takes over alone) detects the loss, elects
	// itself, hosts recovery over its replica of the log, and converges
	// every prepared branch to the logged decision exactly once — the
	// leader never comes back.
	leaderLog, standbyLog := wal.NewMemory(), wal.NewMemory()
	standbyORB, standbyEps := listenORB(t)
	leader := newTestMember(t, "leader", leaderLog, standbyEps, nil, nil)
	if err := leader.g.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	took := make(chan HostRecoveryResult, 1)
	standby := &testMember{o: standbyORB, log: standbyLog, eps: standbyEps}
	standby.g = NewGroupMember(standbyORB, standbyLog, GroupConfig{
		MemberID: "standby", LeaderHint: leader.eps,
		Takeover: func(context.Context) error {
			res, err := HostRecovery(standbyORB, standbyLog, ots.WithRetryPolicy(3, 10*time.Millisecond))
			if err == nil {
				took <- res
			}
			return err
		},
		Poll: 100 * time.Millisecond, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
	})
	standby.start(t)

	// Two participants on their own nodes, registered over the wire so
	// their recovery names are stringified IORs the standby can re-bind.
	a, b := &countingResource{}, &countingResource{}
	a.vote, b.vote = ots.VoteCommit, ots.VoteCommit
	refA, refB := startParticipant(t, a), startParticipant(t, b)

	// The leader dies at the decision boundary: the event hook shuts the
	// ORB down after the decision is durable (and replicated — the gate)
	// but before any phase-two delivery can succeed.
	svc := ots.NewService(
		ots.WithLog(leaderLog),
		ots.WithDecisionGate(leader.g.DecisionGate(time.Second)),
		ots.WithRetryPolicy(1, 0),
		ots.WithEventHook(func(ev ots.Event) {
			if ev.Stage == ots.StageDecisionLogged {
				leader.o.Shutdown()
			}
		}),
	)
	tx := svc.Begin()
	_ = tx.RegisterResource(ImportResource(leader.o, refA))
	_ = tx.RegisterResource(ImportResource(leader.o, refB))
	if err := tx.Commit(true); err == nil {
		t.Fatal("commit succeeded although the coordinator died before phase two")
	}
	// (The standby may already be converging the participants; that the
	// dead leader delivered nothing shows below as exactly one commit each.)

	// The standby notices the leader is gone, elects itself and takes over:
	// recovery hosted over the replicated log on the standby's ORB.
	var res HostRecoveryResult
	select {
	case res = <-took:
	case <-time.After(10 * time.Second):
		t.Fatal("standby never took over")
	}
	waitRole(t, standby, RoleLeader)
	if res.Stats.DecisionsReplayed != 1 || res.Stats.ResourcesCommitted != 2 {
		t.Fatalf("takeover recovery stats = %+v", res.Stats)
	}
	if a.State() != "committed" || b.State() != "committed" {
		t.Fatalf("participants = %s / %s, want committed", a.State(), b.State())
	}
	// Exactly once: one commit each, no rollbacks, even after another pass.
	if _, err := res.Service.Recover(); err != nil {
		t.Fatal(err)
	}
	if got := a.commits.Load(); got != 1 {
		t.Fatalf("participant a committed %d times", got)
	}
	if got := b.commits.Load(); got != 1 {
		t.Fatalf("participant b committed %d times", got)
	}
	if a.rollbacks.Load() != 0 || b.rollbacks.Load() != 0 {
		t.Fatal("participants saw rollbacks")
	}

	// A restarted participant converges through the standby via the same
	// multi-profile reference it held for the leader: the dead leader's
	// profile fails over to the standby's.
	clientORB := orb.New()
	t.Cleanup(clientORB.Shutdown)
	recoveryRef := RecoveryAt(append(append([]string{}, leader.eps...), standbyEps...)...)
	rc := NewRecoveryClient(clientORB, recoveryRef)
	status, err := rc.ReplayCompletion(context.Background(), refA.String())
	if err != nil {
		t.Fatal(err)
	}
	if status != ots.StatusCommitted {
		t.Fatalf("replay_completion via standby = %s, want committed", status)
	}
}

// Bare host:port flag values (activityd -standby primary:7411) must dial
// the same as the tcp:-prefixed endpoints ORB.Endpoints reports; an
// unprefixed profile is silently undialable, which read as an instant
// "primary lost" takeover.
func TestReplicationAtNormalizesBareEndpoints(t *testing.T) {
	for _, ref := range []orb.IOR{
		ReplicationAt("127.0.0.1:7411", "tcp:127.0.0.1:7412"),
		RecoveryAt("127.0.0.1:7411", "tcp:127.0.0.1:7412"),
	} {
		if got := ref.Profiles[0].Endpoint; got != "tcp:127.0.0.1:7411" {
			t.Errorf("%s profile 0 = %q, want bare address normalized to %q", ref.Key, got, "tcp:127.0.0.1:7411")
		}
		if got := ref.Profiles[1].Endpoint; got != "tcp:127.0.0.1:7412" {
			t.Errorf("%s profile 1 = %q, want prefixed address unchanged", ref.Key, got)
		}
	}
}

func TestReplicationVerbsArePriorityClass(t *testing.T) {
	for _, verb := range []string{"repl_state", "repl_fetch", "repl_snapshot"} {
		found := false
		for _, op := range orb.DefaultPriorityOps {
			if op == verb {
				found = true
			}
		}
		if !found {
			t.Errorf("%s missing from orb.DefaultPriorityOps — replication would be shed under overload", verb)
		}
	}
}
