package remote

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/wal"
)

// heuristicResource answers phase two with a heuristic sentinel.
type heuristicResource struct {
	slotResource
	outcome error
}

func (h *heuristicResource) Commit() error {
	h.set("rolledback")
	return fmt.Errorf("resolved unilaterally: %w", h.outcome)
}

// startParticipant exports a resource on its own listening ORB and returns
// the re-minted reference.
func startParticipant(t *testing.T, r ots.Resource) orb.IOR {
	t.Helper()
	node := orb.New()
	t.Cleanup(node.Shutdown)
	ref := ExportResource(node, r)
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = node.IOR(ref.Key)
	return ref
}

func TestWireReplayCompletion(t *testing.T) {
	// Coordinator: durable log, two remote participants, full commit.
	coordORB := orb.New()
	t.Cleanup(coordORB.Shutdown)
	log := wal.NewMemory()
	svc := ots.NewService(ots.WithLog(log), ots.WithRetryPolicy(2, 10*time.Millisecond))

	a, b := &slotResource{vote: ots.VoteCommit}, &slotResource{vote: ots.VoteCommit}
	refA, refB := startParticipant(t, a), startParticipant(t, b)
	tx := svc.Begin()
	_ = tx.RegisterResource(ImportResource(coordORB, refA))
	_ = tx.RegisterResource(ImportResource(coordORB, refB))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}

	// The coordinator serves recovery; a restarted participant asks for its
	// outcome over the wire using its own recovery name (its IOR string).
	recoveryRef := ServeRecovery(coordORB, svc)
	if _, err := coordORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	recoveryRef, _ = coordORB.IOR(recoveryRef.Key)

	participantORB := orb.New()
	t.Cleanup(participantORB.Shutdown)
	rc := NewRecoveryClient(participantORB, recoveryRef)
	ctx := context.Background()

	st, err := rc.ReplayCompletion(ctx, refA.String())
	if err != nil {
		t.Fatal(err)
	}
	if st != ots.StatusCommitted {
		t.Fatalf("replay_completion(%s) = %s, want committed", refA.Key, st)
	}
	// A name from a transaction whose decision never became durable is
	// presumed aborted.
	st, err = rc.ReplayCompletion(ctx, "IOR:tcp:203.0.113.9:1|T|never-prepared")
	if err != nil {
		t.Fatal(err)
	}
	if st != ots.StatusRolledBack {
		t.Fatalf("unknown name status = %s, want rolled-back", st)
	}

	// RecoveryAt rebuilds the same well-known reference from endpoints.
	rc2 := NewRecoveryClient(participantORB, RecoveryAt(coordORB.Endpoints()...))
	st, err = rc2.ReplayCompletion(ctx, refB.String())
	if err != nil {
		t.Fatal(err)
	}
	if st != ots.StatusCommitted {
		t.Fatalf("well-known ref status = %s, want committed", st)
	}
}

func TestRemoteRecoverVerbRedelivers(t *testing.T) {
	// A coordinator restart: the new service knows only the log. The wire
	// "recover" verb drives redelivery and reports the pass stats.
	log := wal.NewMemory()
	coordORB := orb.New()
	t.Cleanup(coordORB.Shutdown)
	svc := ots.NewService(ots.WithLog(log), ots.WithRetryPolicy(2, 10*time.Millisecond))

	a, b := &slotResource{vote: ots.VoteCommit}, &slotResource{vote: ots.VoteCommit}
	refA, refB := startParticipant(t, a), startParticipant(t, b)
	tx := svc.Begin()
	_ = tx.RegisterResource(ImportResource(coordORB, refA))
	_ = tx.RegisterResource(ImportResource(coordORB, refB))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}

	// Keep only the decision record: the crash happened before phase two.
	recs, _ := log.Records()
	crashLog := wal.NewMemory()
	if _, err := crashLog.Append(recs[0].Kind, recs[0].Data); err != nil {
		t.Fatal(err)
	}
	a.set("prepared")
	b.set("prepared")

	coordORB2 := orb.New()
	t.Cleanup(coordORB2.Shutdown)
	svc2 := ots.NewService(ots.WithLog(crashLog), ots.WithRetryPolicy(2, 10*time.Millisecond))
	names, err := svc2.InDoubtResources()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("in-doubt names = %v", names)
	}
	if err := BindRemoteResources(coordORB2, svc2.Directory(), names); err != nil {
		t.Fatal(err)
	}
	recoveryRef := ServeRecovery(coordORB2, svc2)
	orb.ServeAdmin(coordORB2)
	if _, err := coordORB2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	recoveryRef, _ = coordORB2.IOR(recoveryRef.Key)

	toolORB := orb.New()
	t.Cleanup(toolORB.Shutdown)
	rc := NewRecoveryClient(toolORB, recoveryRef)
	ctx := context.Background()
	stats, err := rc.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 || stats.ResourcesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if a.State() != "committed" || b.State() != "committed" {
		t.Fatalf("participants = %s / %s", a.State(), b.State())
	}
	ss, err := orb.NewAdminClient(toolORB, orb.AdminAt(coordORB2.Endpoints()...)).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	passes, _ := ss.Get("recovery.passes", "")
	committed, _ := ss.Get("recovery.resources_committed", "")
	pending, ok := ss.Get("recovery.pending_decisions", "")
	if passes != 1 || committed != 2 || !ok || pending != 0 {
		t.Fatalf("recovery metrics = %+v", ss)
	}
}

func TestRemoteHeuristicCrossesWire(t *testing.T) {
	// A remote participant's heuristic outcome must reach the coordinator
	// as the sentinel — not as a generic delivery failure — so it is
	// aggregated as damage and recorded durably under the participant's
	// recovery name.
	coordORB := orb.New()
	t.Cleanup(coordORB.Shutdown)
	log := wal.NewMemory()
	svc := ots.NewService(ots.WithLog(log), ots.WithRetryPolicy(1, 0))

	loyal := &slotResource{vote: ots.VoteCommit}
	rogue := &heuristicResource{slotResource: slotResource{vote: ots.VoteCommit}, outcome: ots.ErrHeuristicRollback}
	refLoyal, refRogue := startParticipant(t, loyal), startParticipant(t, rogue)
	tx := svc.Begin()
	_ = tx.RegisterResource(ImportResource(coordORB, refLoyal))
	_ = tx.RegisterResource(ImportResource(coordORB, refRogue))
	err := tx.Commit(true)
	if !errors.Is(err, ots.ErrHeuristicMixed) {
		t.Fatalf("commit err = %v, want ErrHeuristicMixed", err)
	}
	recs, err := svc.Heuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Resource != refRogue.String() || recs[0].Outcome != ots.StatusRolledBack {
		t.Fatalf("heuristics = %+v", recs)
	}
	// Heuristic participants are resolved: the decision sealed, no replay.
	stats, err := svc.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestAdminRecoveryStatsScrape reads a coordinator's recovery totals as
// the "recovery" samples of an orb-admin scrape.
func TestAdminRecoveryStatsScrape(t *testing.T) {
	coordORB := orb.New()
	t.Cleanup(coordORB.Shutdown)
	log := wal.NewMemory()
	svc := ots.NewService(ots.WithLog(log), ots.WithRetryPolicy(2, 10*time.Millisecond))
	orb.ServeAdmin(coordORB)
	ServeRecovery(coordORB, svc)
	if _, err := coordORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	a, b := &slotResource{vote: ots.VoteCommit}, &slotResource{vote: ots.VoteCommit}
	refA, refB := startParticipant(t, a), startParticipant(t, b)
	tx := svc.Begin()
	_ = tx.RegisterResource(ImportResource(coordORB, refA))
	_ = tx.RegisterResource(ImportResource(coordORB, refB))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Recover(); err != nil {
		t.Fatal(err)
	}

	clientORB := orb.New()
	t.Cleanup(clientORB.Shutdown)
	admin := orb.NewAdminClient(clientORB, orb.AdminAt(coordORB.Endpoints()...))
	ss, err := admin.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{
		"recovery.passes": 1, "recovery.decisions_replayed": 0,
		"recovery.pending_decisions": 0, "recovery.pending_heuristics": 0,
	} {
		if got, ok := ss.Get(name, ""); !ok || got != want {
			t.Fatalf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}

	// A second service hosted on the same ORB (a takeover re-hosting
	// recovery) replaces the source: one set of recovery samples, the new
	// service's.
	ServeRecovery(coordORB, ots.NewService(ots.WithLog(wal.NewMemory())))
	ss, err = admin.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range ss {
		if s.Name == "recovery.passes" {
			n++
		}
	}
	if passes, _ := ss.Get("recovery.passes", ""); n != 1 || passes != 0 {
		t.Fatalf("after re-hosting: %d recovery.passes samples, first %d; want one, 0", n, passes)
	}

	// An ORB hosting no recovery answers without recovery samples, not an
	// error.
	bareORB := orb.New()
	t.Cleanup(bareORB.Shutdown)
	orb.ServeAdmin(bareORB)
	if _, err := bareORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ss, err = orb.NewAdminClient(clientORB, orb.AdminAt(bareORB.Endpoints()...)).Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range ss {
		if strings.HasPrefix(s.Name, "recovery.") {
			t.Fatalf("bare ORB reports recovery sample %+v", s)
		}
	}
}

// TestRecoveryAndReplicationAtInproc reaches the well-known recovery and
// replication servants of an ORB that is not listening, through the
// references RecoveryAt and ReplicationAt build from its "inproc:"
// endpoint — the same way AdminAt already worked.
func TestRecoveryAndReplicationAtInproc(t *testing.T) {
	ctx := context.Background()
	host := orb.New()
	t.Cleanup(host.Shutdown)
	ServeRecovery(host, ots.NewService(ots.WithLog(wal.NewMemory())))
	NewGroupMember(host, seedLog(t, 2), GroupConfig{MemberID: "m"})
	client := orb.New()
	t.Cleanup(client.Shutdown)

	rc := NewRecoveryClient(client, RecoveryAt(host.Endpoints()...))
	if st, err := rc.ReplayCompletion(ctx, "never-prepared"); err != nil || st != ots.StatusRolledBack {
		t.Fatalf("in-process replay_completion = %s, %v; want rolled back (presumed abort)", st, err)
	}
	st, err := FetchReplState(ctx, client, host.Endpoints()[0])
	if err != nil {
		t.Fatalf("in-process repl_state: %v", err)
	}
	if st.MemberID != "m" || st.NextLSN != 3 {
		t.Fatalf("in-process repl_state = %+v, want member m at next LSN 3", st)
	}
}

// namedSlot is a slotResource with a recovery name, so a commit decision
// names it.
type namedSlot struct {
	slotResource
	name string
}

func (n *namedSlot) RecoveryName() string { return n.name }

// TestRecoveryDeposedMemberRefusesToAnswer: a transaction service answers
// for the term it was made in. a leads term 1 and hosts recovery; b claims
// term 2 and commits a transaction naming x; a rejoins and streams b's
// log. a's service, whose view predates term 2, must refuse
// replay_completion with FENCED — it used to answer rolled-back while b
// answered committed — and b's must answer committed.
func TestRecoveryDeposedMemberRefusesToAnswer(t *testing.T) {
	ctx := context.Background()
	aLog, bLog := wal.NewMemory(), wal.NewMemory()
	aORB, aEps := listenORB(t)
	bORB, bEps := listenORB(t)
	var aSvc, bSvc *ots.Service
	a := &testMember{o: aORB, log: aLog, eps: aEps}
	a.g = NewGroupMember(aORB, aLog, GroupConfig{
		MemberID: "a",
		Poll:     50 * time.Millisecond, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
		Takeover: func(context.Context) error {
			res, err := HostRecovery(aORB, aLog)
			aSvc = res.Service
			return err
		},
	})
	if err := a.g.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	b := &testMember{o: bORB, log: bLog, eps: bEps}
	b.g = NewGroupMember(bORB, bLog, GroupConfig{
		MemberID: "b", LeaderHint: aEps,
		Poll: 50 * time.Millisecond, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
		Takeover: func(context.Context) error {
			res, err := HostRecovery(bORB, bLog)
			bSvc = res.Service
			return err
		},
	})
	b.start(t)
	waitLSN(t, bLog, aLog.LastLSN())
	b.stop(t)

	// b claims term 2, which deposes a, and commits a transaction naming x.
	if !b.g.claimFrom(ctx, []peerState{{endpoint: aEps[0]}}, 2, bLog.LastLSN()) {
		t.Fatal("claim for term 2 rejected")
	}
	if err := b.g.becomeLeader(ctx, 2); err != nil {
		t.Fatal(err)
	}
	tx := bSvc.Begin()
	for _, name := range []string{"x", "y"} {
		if err := tx.RegisterResource(&namedSlot{slotResource: slotResource{vote: ots.VoteCommit}, name: name}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}

	// a rejoins as b's follower and streams the decision.
	a.start(t)
	waitLSN(t, aLog, bLog.LastLSN())

	client := orb.New()
	t.Cleanup(client.Shutdown)
	if st, err := NewRecoveryClient(client, RecoveryAt(bEps...)).ReplayCompletion(ctx, "x"); err != nil || st != ots.StatusCommitted {
		t.Fatalf("leader's replay_completion(x) = %s, %v; want committed", st, err)
	}
	if st, err := NewRecoveryClient(client, RecoveryAt(aEps...)).ReplayCompletion(ctx, "x"); !orb.IsSystem(err, orb.CodeFenced) {
		t.Fatalf("deposed member's replay_completion(x) = %s, %v; want FENCED", st, err)
	}
	if _, err := aSvc.Recover(); !errors.Is(err, wal.ErrFenced) {
		t.Fatalf("deposed member's Recover = %v, want ErrFenced", err)
	}
}
