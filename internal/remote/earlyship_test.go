package remote

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/wal"
)

// recoverable is a scripted participant with a recovery name, so a commit
// decision names it and a recovering leader finds it in a directory.
type recoverable struct{ *scriptedParticipant }

func (r recoverable) RecoveryName() string { return r.name }

// TestEarlyShipFailedFlushLeftToNextLeader: the leader's commit decision
// ships to its follower during the leader's own flush, and that flush then
// fails. The follower holds the decision; the leader may not give the
// LSN back, nor tell anyone the outcome. So the leader delivers no phase
// two, and its Commit reports the fence, not a rollback. Once the leader
// is gone, the follower elects itself, and its recovery commits each
// participant exactly once. No participant ever sees rollback.
func TestEarlyShipFailedFlushLeftToNextLeader(t *testing.T) {
	ctx := context.Background()
	aLog, bLog := wal.NewMemory(), wal.NewMemory()
	aORB, aEps := listenORB(t)
	bORB, bEps := listenORB(t)
	var calls callLog
	dir := ots.NewDirectory()
	ps := voting(&calls, ots.VoteCommit, ots.VoteCommit)
	for _, p := range ps {
		dir.Register(p.name, recoverable{p})
	}

	// a leads a group whose quorum needs b's ack; b, with no peers of its
	// own, elects itself once a is lost.
	a := &testMember{o: aORB, log: aLog, eps: aEps}
	a.g = NewGroupMember(aORB, aLog, GroupConfig{MemberID: "a", Peers: bEps})
	if err := a.g.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	recovered := make(chan ots.RecoveryStats, 1)
	b := &testMember{o: bORB, log: bLog, eps: bEps}
	b.g = NewGroupMember(bORB, bLog, GroupConfig{
		MemberID: "b", LeaderHint: aEps,
		Poll: 5 * time.Second, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
		Takeover: func(context.Context) error {
			stats, err := ots.NewService(ots.WithLog(bLog), ots.WithDirectory(dir)).Recover()
			recovered <- stats
			return err
		},
	})
	b.start(t)
	waitLSN(t, bLog, aLog.LastLSN())
	// b's fetch that acknowledged a's log parks for the next record.
	if !a.g.Primary().WaitForAckN(aLog.LastLSN(), 1, 5*time.Second) {
		t.Fatal("b never acknowledged a's log")
	}
	time.Sleep(20 * time.Millisecond)

	decision := aLog.LastLSN() + 1
	aLog.InjectSyncFault(func() error {
		deadline := time.Now().Add(5 * time.Second)
		for bLog.LastLSN() < decision {
			if time.Now().After(deadline) {
				return nil // never shipped: the check below fails the test
			}
			time.Sleep(time.Millisecond)
		}
		return errors.New("injected sync failure")
	})
	svc := ots.NewService(ots.WithLog(aLog), ots.WithDecisionGate(a.g.DecisionGate(20*time.Millisecond)))
	tx := svc.Begin()
	for _, p := range ps {
		if err := tx.RegisterResource(recoverable{p}); err != nil {
			t.Fatal(err)
		}
	}
	err := tx.Commit(true)
	if !errors.Is(err, wal.ErrFenced) || errors.Is(err, ots.ErrRolledBack) {
		t.Fatalf("commit whose shipped decision failed to sync = %v, want wal.ErrFenced and no rollback", err)
	}
	if tx.Status() != ots.StatusUnknown {
		t.Fatalf("status = %s, want unknown", tx.Status())
	}
	if got, want := calls.all(), []string{"p0:prepare", "p1:prepare"}; !slices.Equal(got, want) {
		t.Fatalf("calls from the leader = %v, want %v: no phase two", got, want)
	}
	if bLog.LastLSN() != decision || aLog.LastLSN() != decision-1 {
		t.Fatalf("LSNs: leader %d, follower %d; want the decision %d on the follower only",
			aLog.LastLSN(), bLog.LastLSN(), decision)
	}
	if _, err := aLog.Append(wal.Kind(7), []byte("late")); !errors.Is(err, wal.ErrFenced) {
		t.Fatalf("leader append after the failed shipped flush = %v, want ErrFenced", err)
	}

	// The leader is lost. Closing its log first ends b's parked fetch, so
	// the shutdown need not wait out the long poll.
	aLog.Close()
	aORB.Shutdown()
	select {
	case stats := <-recovered:
		if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 {
			t.Fatalf("b's recovery = %+v, want the decision replayed to both", stats)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("b never took over")
	}
	for _, p := range ps {
		if got := calls.of(p.name); !slices.Equal(got, []string{"prepare", "commit"}) {
			t.Fatalf("%s saw %v, want prepare then one commit", p.name, got)
		}
	}
}
