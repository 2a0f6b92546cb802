package ots

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/wal"
)

// failingDurable is a durableResource whose first n Commit deliveries fail
// with an unknown-outcome error (the participant's durable state does not
// change), simulating a participant that was unreachable during live
// phase two but answers during a later recovery pass.
type failingDurable struct {
	*durableResource
	mu         sync.Mutex
	failures   int
	forgetSeen bool
}

func (f *failingDurable) Commit() error {
	f.mu.Lock()
	if f.failures > 0 {
		f.failures--
		f.mu.Unlock()
		return errors.New("delivery failed: participant unreachable")
	}
	f.mu.Unlock()
	return f.durableResource.Commit()
}

func (f *failingDurable) Forget() error {
	f.mu.Lock()
	f.forgetSeen = true
	f.mu.Unlock()
	return nil
}

// TestPrematureDoneRegression is the headline regression: a commit whose
// delivery to one participant fails must keep its decision live (no done
// record, no Forget) so a later recovery pass re-drives the participant to
// committed. On the seed tree the done record was appended and the
// participant forgotten unconditionally, so the commit was durably lost.
func TestPrematureDoneRegression(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log), WithRetryPolicy(2, 0))
	disk := map[string]string{}
	good := newDurable("good", &disk)
	bad := &failingDurable{durableResource: newDurable("bad", &disk), failures: 2}

	tx := svc.Begin()
	_ = tx.RegisterResource(good)
	_ = tx.RegisterResource(bad)
	err := tx.Commit(true)
	if !errors.Is(err, ErrHeuristicMixed) {
		t.Fatalf("commit err = %v, want ErrHeuristicMixed", err)
	}
	if disk["good"] != "committed" || disk["bad"] != "prepared" {
		t.Fatalf("disk = %v", disk)
	}
	if bad.forgetSeen {
		t.Fatal("failed participant was told to forget; its recovery state is lost")
	}

	// The decision must still be in the log WITHOUT a done marker.
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != RecordDecision {
		kinds := make([]wal.Kind, len(recs))
		for i, r := range recs {
			kinds[i] = r.Kind
		}
		t.Fatalf("log kinds = %v, want exactly one decision record", kinds)
	}

	// A later pass (participant back) must commit it and seal the decision.
	svc.Directory().Register("good", good)
	svc.Directory().Register("bad", bad)
	stats, err := svc.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 || stats.ResourcesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if disk["bad"] != "committed" {
		t.Fatalf("bad = %q, want committed", disk["bad"])
	}
	stats2, err := svc.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.DecisionsReplayed != 0 {
		t.Fatalf("second pass stats = %+v, want no replays", stats2)
	}
}

// TestRecoveryStatsCountsFailures pins the ResourcesFailed counter: a
// delivery failure during recovery must be counted as failed — not folded
// into missing — and must keep the decision live.
func TestRecoveryStatsCountsFailures(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log), WithRetryPolicy(1, 0))
	disk := map[string]string{}
	tx := svc.Begin()
	_ = tx.RegisterResource(newDurable("ok", &disk))
	_ = tx.RegisterResource(newDurable("flaky", &disk))
	_ = tx.RegisterResource(newDurable("gone", &disk))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}

	// Restart with only the decision record (crash before phase two).
	recs, _ := log.Records()
	crashLog := wal.NewMemory()
	if _, err := crashLog.Append(recs[0].Kind, recs[0].Data); err != nil {
		t.Fatal(err)
	}
	disk = map[string]string{"ok": "prepared", "flaky": "prepared", "gone": "prepared"}
	svc2 := NewService(WithLog(crashLog), WithRetryPolicy(1, 0))
	svc2.Directory().Register("ok", newDurable("ok", &disk))
	svc2.Directory().Register("flaky", &failingDurable{durableResource: newDurable("flaky", &disk), failures: 1})
	// "gone" has no binding at all.

	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 1 ||
		stats.ResourcesFailed != 1 || stats.ResourcesMissing != 1 {
		t.Fatalf("stats = %+v, want 1 committed / 1 failed / 1 missing", stats)
	}
	totals := svc2.RecoveryTotals()
	if totals.Passes != 1 || totals.ResourcesFailed != 1 || totals.PendingDecisions != 1 {
		t.Fatalf("totals = %+v", totals)
	}

	// Second pass: flaky now answers, gone is bound — decision seals.
	svc2.Directory().Register("gone", newDurable("gone", &disk))
	stats2, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.ResourcesFailed != 0 || stats2.ResourcesMissing != 0 || stats2.ResourcesCommitted != 3 {
		t.Fatalf("second pass stats = %+v", stats2)
	}
	if totals := svc2.RecoveryTotals(); totals.PendingDecisions != 0 {
		t.Fatalf("totals after seal = %+v", totals)
	}
}

// TestReplayCompletionAfterCheckpoint pins the checkpoint-consistency rule:
// a name in a decision that already has a done marker still answers
// StatusCommitted — the records are durable until CheckpointLog compacts
// them — and only after the checkpoint drops the pair does the name fall
// back to presumed abort.
func TestReplayCompletionAfterCheckpoint(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log))
	disk := map[string]string{}
	tx := svc.Begin()
	// Two resources: a single participant takes the one-phase path, which
	// never logs a decision at all.
	_ = tx.RegisterResource(newDurable("settled", &disk))
	_ = tx.RegisterResource(newDurable("peer", &disk))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}

	// Decision + done are both in the log: still committed.
	st, err := svc.ReplayCompletion("settled")
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusCommitted {
		t.Fatalf("pre-checkpoint status = %s, want committed", st)
	}

	if err := svc.CheckpointLog(); err != nil {
		t.Fatal(err)
	}
	st, err = svc.ReplayCompletion("settled")
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusRolledBack {
		t.Fatalf("post-checkpoint status = %s, want rolled-back (presumed abort)", st)
	}
}

// TestCrashBeforeDecisionRecoveryPresumedAbort drives the crash boundary
// before logDecision with wal crash injection: the decision append tears,
// the transaction rolls back, and after a simulated restart the replayed
// log yields presumed abort for the prepared participant.
func TestCrashBeforeDecisionRecoveryPresumedAbort(t *testing.T) {
	log := wal.NewMemory()
	log.InjectCrashAfter(0) // the decision append itself crashes (torn write)
	svc := NewService(WithLog(log), WithRetryPolicy(1, 0))
	disk := map[string]string{}
	tx := svc.Begin()
	_ = tx.RegisterResource(newDurable("p1", &disk))
	_ = tx.RegisterResource(newDurable("p2", &disk))
	if err := tx.Commit(true); !errors.Is(err, ErrRolledBack) {
		t.Fatalf("commit err = %v, want ErrRolledBack", err)
	}

	// Restart: replay whatever survived the torn write into a new service.
	snap, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	log2, err := wal.OpenMemory(snap)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := NewService(WithLog(log2))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 0 {
		t.Fatalf("stats = %+v, want no decisions (none became durable)", stats)
	}
	for _, name := range []string{"p1", "p2"} {
		st, err := svc2.ReplayCompletion(name)
		if err != nil {
			t.Fatal(err)
		}
		if st != StatusRolledBack {
			t.Fatalf("%s status = %s, want rolled-back (presumed abort)", name, st)
		}
	}
}

// TestCrashAfterDecisionRecoveryReplaysCommit drives the crash boundary
// between logDecision and phase two: the decision is durable, the crash
// (simulated via the event hook snapshotting the log at StageDecisionLogged)
// stops delivery, and a restarted service replays commit to every named
// participant.
func TestCrashAfterDecisionRecoveryReplaysCommit(t *testing.T) {
	log := wal.NewMemory()
	var snapAtDecision []byte
	svc := NewService(WithLog(log), WithEventHook(func(e Event) {
		if e.Stage == StageDecisionLogged {
			// The log state at the exact crash boundary: decision durable,
			// phase two not yet begun.
			if b, err := log.Snapshot(); err == nil {
				snapAtDecision = b
			}
		}
	}))
	disk := map[string]string{}
	tx := svc.Begin()
	_ = tx.RegisterResource(newDurable("p1", &disk))
	_ = tx.RegisterResource(newDurable("p2", &disk))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if snapAtDecision == nil {
		t.Fatal("decision-logged hook never fired")
	}

	// Restart from the boundary snapshot; participants are still prepared.
	disk = map[string]string{"p1": "prepared", "p2": "prepared"}
	log2, err := wal.OpenMemory(snapAtDecision)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := NewService(WithLog(log2))
	svc2.Directory().Register("p1", newDurable("p1", &disk))
	svc2.Directory().Register("p2", newDurable("p2", &disk))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if disk["p1"] != "committed" || disk["p2"] != "committed" {
		t.Fatalf("disk = %v", disk)
	}
	// The replayed decision now answers committed to stragglers.
	if st, _ := svc2.ReplayCompletion("p1"); st != StatusCommitted {
		t.Fatalf("replay status = %s, want committed", st)
	}
}

// TestCrashOnDoneRecordRedeliversIdempotently drives the boundary after
// the done record: the decision committed fully, but its done record is
// lazy and the coordinator crashed before the log's next sync wrote it. A
// restarted service must re-deliver commit once (at-least-once) and the
// participants must tolerate the duplicate. The recovery pass seals with a
// lazy done record too: a second crash re-drives once more, and only a
// clean close makes the seal hold.
func TestCrashOnDoneRecordRedeliversIdempotently(t *testing.T) {
	path := filepath.Join(t.TempDir(), "done.wal")
	disk := map[string]string{}
	// restart opens the log as the last process left it — a crash when that
	// process's handle was never closed and still buffers its done records.
	restart := func() (*wal.Log, *Service) {
		t.Helper()
		log, err := wal.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(WithLog(log), WithRetryPolicy(1, 0))
		svc.Directory().Register("p1", newDurable("p1", &disk))
		svc.Directory().Register("p2", newDurable("p2", &disk))
		return log, svc
	}
	recoverPass := func(svc *Service, want int) {
		t.Helper()
		stats, err := svc.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if stats.DecisionsReplayed != want || stats.ResourcesCommitted != 2*want {
			t.Fatalf("recovery pass = %+v, want %d decisions replayed", stats, want)
		}
		if disk["p1"] != "committed" || disk["p2"] != "committed" {
			t.Fatalf("disk = %v", disk)
		}
	}

	_, svc := restart()
	tx := svc.Begin()
	_ = tx.RegisterResource(newDurable("p1", &disk))
	_ = tx.RegisterResource(newDurable("p2", &disk))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if disk["p1"] != "committed" || disk["p2"] != "committed" {
		t.Fatalf("disk = %v", disk)
	}

	log2, svc2 := restart()
	recs, err := log2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != RecordDecision {
		t.Fatalf("log after the crash holds %d records, want just the decision", len(recs))
	}
	// The lost done marker makes the pass re-drive the decision once; the
	// pass's own seal keeps a second pass in this process from re-driving.
	recoverPass(svc2, 1)
	recoverPass(svc2, 0)

	_, svc3 := restart()
	recoverPass(svc3, 1)

	log4, svc4 := restart()
	recoverPass(svc4, 1)
	if err := log4.Close(); err != nil {
		t.Fatal(err)
	}
	log5, svc5 := restart()
	defer log5.Close()
	recoverPass(svc5, 0)
}
