// Failure-injection tests: the behaviours §3.4 of the paper requires when
// machines crash or the network partitions mid-protocol.
package activityservice_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/twopc"
	iots "github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// TestRemoteParticipantCrashAbortsTransaction kills a participant's node
// before prepare; the coordinator's at-least-once delivery retries, then
// treats the participant as failed and rolls back the survivors.
func TestRemoteParticipantCrashAbortsTransaction(t *testing.T) {
	ctx := context.Background()
	clientORB := orb.New()
	defer clientORB.Shutdown()

	healthy := &bookable{name: "healthy", capacity: 5}
	healthyNode := orb.New()
	defer healthyNode.Shutdown()
	healthyRef := orb.ExportAction(healthyNode, twopc.NewResourceAction(healthy))
	if _, err := healthyNode.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	healthyRef, _ = healthyNode.IOR(healthyRef.Key)

	doomed := &bookable{name: "doomed", capacity: 5}
	doomedNode := orb.New()
	doomedRef := orb.ExportAction(doomedNode, twopc.NewResourceAction(doomed))
	if _, err := doomedNode.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	doomedRef, _ = doomedNode.IOR(doomedRef.Key)

	// Fast retries so the test completes quickly.
	svc := activityservice.New(activityservice.WithRetryPolicy(
		activityservice.RetryPolicy{Attempts: 2, Backoff: time.Millisecond}))
	coord := twopc.NewCoordinator(svc)
	tx, err := coord.Begin("crash-test")
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.EnlistAction(orb.ImportAction(clientORB, healthyRef))
	_ = tx.EnlistAction(orb.ImportAction(clientORB, doomedRef))

	// The doomed node crashes before the protocol starts.
	doomedNode.Shutdown()

	committed, err := tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("committed despite a crashed participant")
	}
	if healthy.Booked() != 0 {
		t.Fatalf("healthy.booked = %d after abort", healthy.Booked())
	}
}

// TestRemoteCrashAfterPrepare crashes the node between prepare and commit:
// the surviving participants still receive the phase-two signal; the
// crashed one is reported through the trace as a delivery error (the
// commit decision stands — phase-two is at-least-once and would be
// re-driven by recovery in a durable deployment).
func TestRemoteCrashAfterPrepare(t *testing.T) {
	ctx := context.Background()
	clientORB := orb.New()
	defer clientORB.Shutdown()

	survivor := &bookable{name: "survivor", capacity: 5}
	node1 := orb.New()
	defer node1.Shutdown()
	ref1 := orb.ExportAction(node1, twopc.NewResourceAction(survivor))
	if _, err := node1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref1, _ = node1.IOR(ref1.Key)

	var (
		mu        sync.Mutex
		crashed   bool
		node2     = orb.New()
		crashable = &bookable{name: "crashable", capacity: 5}
	)
	// Wrap the resource action so the node dies right after its prepare.
	inner := twopc.NewResourceAction(crashable)
	ref2 := orb.ExportAction(node2, activityservice.ActionFunc(
		func(cx context.Context, sig activityservice.Signal) (activityservice.Outcome, error) {
			out, err := inner.ProcessSignal(cx, sig)
			if sig.Name == twopc.SignalPrepare {
				mu.Lock()
				if !crashed {
					crashed = true
					go func() {
						// Let the prepare reply flush before the node dies;
						// the crash then lands between phases (or during
						// phase two — either way the decision stands).
						time.Sleep(50 * time.Millisecond)
						node2.Shutdown()
					}()
				}
				mu.Unlock()
			}
			return out, err
		}))
	if _, err := node2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref2, _ = node2.IOR(ref2.Key)

	svc := activityservice.New(activityservice.WithRetryPolicy(
		activityservice.RetryPolicy{Attempts: 2, Backoff: 5 * time.Millisecond}))
	coord := twopc.NewCoordinator(svc)
	tx, err := coord.Begin("post-prepare-crash")
	if err != nil {
		t.Fatal(err)
	}
	_ = tx.EnlistAction(orb.ImportAction(clientORB, ref1))
	_ = tx.EnlistAction(orb.ImportAction(clientORB, ref2))

	committed, err := tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("transaction did not commit: the decision was taken before the crash")
	}
	// The survivor must have committed.
	if survivor.Booked() != 1 {
		t.Fatalf("survivor.booked = %d", survivor.Booked())
	}
}

// TestOTSCrashBetweenDecisionAndPhaseTwo is the canonical recovery drill:
// the decision record is durable, phase two never ran, and a recovery pass
// on a fresh service re-delivers commit.
func TestOTSCrashBetweenDecisionAndPhaseTwo(t *testing.T) {
	log := ots.NewMemoryLog()
	svc := ots.NewService(ots.WithLog(log))
	disk := map[string]string{}
	tx := svc.Begin()
	_ = tx.RegisterResource(&recoverableRes{name: "x", disk: disk})
	_ = tx.RegisterResource(&recoverableRes{name: "y", disk: disk})
	if err := tx.Commit(false); err != nil {
		t.Fatal(err)
	}

	// Build the crash image: decision only, no done marker — as if the
	// process died a microsecond after forcing the decision.
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	crashLog := ots.NewMemoryLog()
	if _, err := crashLog.Append(recs[0].Kind, recs[0].Data); err != nil {
		t.Fatal(err)
	}
	disk["x"], disk["y"] = "prepared", "prepared"

	dir := iots.NewDirectory()
	dir.Register("x", &recoverableRes{name: "x", disk: disk})
	dir.Register("y", &recoverableRes{name: "y", disk: disk})
	svc2 := ots.NewService(ots.WithLog(crashLog), iots.WithDirectory(dir))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResourcesCommitted != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if disk["x"] != "committed" || disk["y"] != "committed" {
		t.Fatalf("disk = %v", disk)
	}
}

// recoverableRes is a named resource persisting state into a shared map.
type recoverableRes struct {
	name string
	disk map[string]string
}

func (r *recoverableRes) Prepare() (ots.Vote, error) {
	r.disk[r.name] = "prepared"
	return ots.VoteCommit, nil
}

func (r *recoverableRes) Commit() error {
	r.disk[r.name] = "committed"
	return nil
}

func (r *recoverableRes) Rollback() error {
	r.disk[r.name] = "rolledback"
	return nil
}

func (r *recoverableRes) CommitOnePhase() error { return r.Commit() }
func (r *recoverableRes) Forget() error         { return nil }
func (r *recoverableRes) RecoveryName() string  { return r.name }

// TestTimeoutAbortsHungRemoteParticipant bounds a hung participant with
// the ORB call timeout; the 2PC treats the timeout as a veto.
func TestTimeoutAbortsHungRemoteParticipant(t *testing.T) {
	ctx := context.Background()
	node := orb.New()
	defer node.Shutdown()
	hung := orb.ExportAction(node, activityservice.ActionFunc(
		func(cx context.Context, _ activityservice.Signal) (activityservice.Outcome, error) {
			time.Sleep(2 * time.Second)
			return activityservice.Outcome{Name: "too-late"}, nil
		}))
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	hung, _ = node.IOR(hung.Key)

	clientORB := orb.New(orb.WithCallTimeout(50 * time.Millisecond))
	defer clientORB.Shutdown()
	healthy := &bookable{name: "ok", capacity: 1}
	svc := activityservice.New(activityservice.WithRetryPolicy(
		activityservice.RetryPolicy{Attempts: 1}))
	coord := twopc.NewCoordinator(svc)
	tx, _ := coord.Begin("hung-participant")
	_ = tx.Enlist(healthy)
	_ = tx.EnlistAction(orb.ImportAction(clientORB, hung))
	committed, err := tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("committed with a hung participant")
	}
	if healthy.Booked() != 0 {
		t.Fatalf("healthy.booked = %d", healthy.Booked())
	}
}
