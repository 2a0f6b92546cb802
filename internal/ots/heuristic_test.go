package ots

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/wal"
)

// heuristicDurable is a durableResource that unilaterally resolved after
// voting: phase-two delivery answers with the configured heuristic
// sentinel instead of obeying the coordinator.
type heuristicDurable struct {
	*durableResource
	outcome    error // ErrHeuristicCommit or ErrHeuristicRollback
	mu         sync.Mutex
	forgetSeen int
}

func (h *heuristicDurable) Commit() error {
	if errors.Is(h.outcome, ErrHeuristicCommit) {
		h.set("committed")
	} else {
		h.set("rolledback")
	}
	return fmt.Errorf("resource resolved unilaterally: %w", h.outcome)
}

func (h *heuristicDurable) Rollback() error {
	if errors.Is(h.outcome, ErrHeuristicCommit) {
		h.set("committed")
		return fmt.Errorf("resource resolved unilaterally: %w", h.outcome)
	}
	return h.durableResource.Rollback()
}

func (h *heuristicDurable) Forget() error {
	h.mu.Lock()
	h.forgetSeen++
	h.mu.Unlock()
	return nil
}

func (h *heuristicDurable) forgets() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.forgetSeen
}

// TestHeuristicRollbackRecordedDurably: a participant that heuristically
// rolled back on the commit path is heuristic damage — the terminator sees
// ErrHeuristicMixed, the outcome is recorded in the WAL, and the decision
// still seals (the participant is resolved, just divergently).
func TestHeuristicRollbackRecordedDurably(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log), WithRetryPolicy(1, 0))
	disk := map[string]string{}
	rogue := &heuristicDurable{durableResource: newDurable("rogue", &disk), outcome: ErrHeuristicRollback}
	tx := svc.Begin()
	_ = tx.RegisterResource(newDurable("loyal", &disk))
	_ = tx.RegisterResource(rogue)
	err := tx.Commit(true)
	if !errors.Is(err, ErrHeuristicMixed) {
		t.Fatalf("commit err = %v, want ErrHeuristicMixed", err)
	}

	recs, err := svc.Heuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Resource != "rogue" || recs[0].Outcome != StatusRolledBack || recs[0].Tx != tx.ID() {
		t.Fatalf("heuristics = %+v", recs)
	}
	// The heuristic participant is resolved, so the decision seals: no
	// replay on recovery.
	stats, err := svc.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 0 {
		t.Fatalf("stats = %+v, want no replays", stats)
	}
}

// TestHeuristicCommitOnRollbackPathRecorded: a participant that
// heuristically committed while being told to roll back is recorded too
// (the classic heuristic-commit damage case).
func TestHeuristicCommitOnRollbackPathRecorded(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log), WithRetryPolicy(1, 0))
	disk := map[string]string{}
	rogue := &heuristicDurable{durableResource: newDurable("rogue", &disk), outcome: ErrHeuristicCommit}
	tx := svc.Begin()
	_ = tx.RegisterResource(newDurable("loyal", &disk))
	_ = tx.RegisterResource(rogue)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	recs, err := svc.Heuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Resource != "rogue" || recs[0].Outcome != StatusCommitted {
		t.Fatalf("heuristics = %+v", recs)
	}
}

// TestHeuristicSurvivesRestartUntilForget: the recorded heuristic must be
// visible after a restart, disappear on ForgetHeuristics (which also
// delivers Forget to the bound participant), and be compacted away by the
// next checkpoint.
func TestHeuristicSurvivesRestartUntilForget(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log), WithRetryPolicy(1, 0))
	disk := map[string]string{}
	rogue := &heuristicDurable{durableResource: newDurable("rogue", &disk), outcome: ErrHeuristicRollback}
	tx := svc.Begin()
	_ = tx.RegisterResource(newDurable("loyal", &disk))
	_ = tx.RegisterResource(rogue)
	if err := tx.Commit(true); !errors.Is(err, ErrHeuristicMixed) {
		t.Fatalf("commit err = %v", err)
	}

	// Restart.
	snap, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	log2, err := wal.OpenMemory(snap)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := NewService(WithLog(log2))
	rogue2 := &heuristicDurable{durableResource: newDurable("rogue", &disk), outcome: ErrHeuristicRollback}
	svc2.Directory().Register("rogue", rogue2)
	recs, err := svc2.Heuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Resource != "rogue" {
		t.Fatalf("post-restart heuristics = %+v", recs)
	}
	if tot := svc2.RecoveryTotals(); tot.PendingHeuristics != 1 {
		t.Fatalf("totals = %+v, want 1 pending heuristic", tot)
	}

	// Forget: record acknowledged, participant told, reporting stops.
	if err := svc2.ForgetHeuristics(recs[0].Tx); err != nil {
		t.Fatal(err)
	}
	if rogue2.forgets() != 1 {
		t.Fatalf("forget delivered %d times, want 1", rogue2.forgets())
	}
	recs, err = svc2.Heuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("post-forget heuristics = %+v", recs)
	}
	// Forgetting again is a no-op (no second Forget delivery).
	if err := svc2.ForgetHeuristics(tx.ID()); err != nil {
		t.Fatal(err)
	}
	if rogue2.forgets() != 1 {
		t.Fatalf("forget delivered %d times after no-op, want 1", rogue2.forgets())
	}

	// Checkpoint compacts the heuristic and forget records away.
	if err := svc2.CheckpointLog(); err != nil {
		t.Fatal(err)
	}
	raw, err := log2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 0 {
		kinds := make([]wal.Kind, len(raw))
		for i, r := range raw {
			kinds[i] = r.Kind
		}
		t.Fatalf("post-checkpoint kinds = %v, want empty", kinds)
	}
}

// TestCheckpointKeepsUnforgottenHeuristics: a checkpoint must NOT drop
// heuristic records that have not been acknowledged, even when their
// transaction's decision/done pair is compacted.
func TestCheckpointKeepsUnforgottenHeuristics(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log), WithRetryPolicy(1, 0))
	disk := map[string]string{}
	rogue := &heuristicDurable{durableResource: newDurable("rogue", &disk), outcome: ErrHeuristicRollback}
	tx := svc.Begin()
	_ = tx.RegisterResource(newDurable("loyal", &disk))
	_ = tx.RegisterResource(rogue)
	if err := tx.Commit(true); !errors.Is(err, ErrHeuristicMixed) {
		t.Fatalf("commit err = %v", err)
	}
	if err := svc.CheckpointLog(); err != nil {
		t.Fatal(err)
	}
	raw, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 1 || raw[0].Kind != RecordHeuristic {
		kinds := make([]wal.Kind, len(raw))
		for i, r := range raw {
			kinds[i] = r.Kind
		}
		t.Fatalf("post-checkpoint kinds = %v, want one heuristic record", kinds)
	}
	// And it is still reported from the rebuilt view.
	recs, err := svc.Heuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Resource != "rogue" {
		t.Fatalf("heuristics = %+v", recs)
	}
}

// TestHeuristicCommitOnCommitPathConverges: a participant that
// heuristically committed when told to commit agrees with the decision —
// no damage, no error, but the unilateral act is still recorded.
func TestHeuristicCommitOnCommitPathConverges(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log), WithRetryPolicy(1, 0))
	disk := map[string]string{}
	eager := &heuristicDurable{durableResource: newDurable("eager", &disk), outcome: ErrHeuristicCommit}
	tx := svc.Begin()
	_ = tx.RegisterResource(newDurable("loyal", &disk))
	_ = tx.RegisterResource(eager)
	if err := tx.Commit(true); err != nil {
		t.Fatalf("commit err = %v, want nil (outcome matches decision)", err)
	}
	if tx.Status() != StatusCommitted {
		t.Fatalf("status = %s", tx.Status())
	}
	recs, err := svc.Heuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Outcome != StatusCommitted {
		t.Fatalf("heuristics = %+v", recs)
	}
	// Resolved participants: the decision seals normally.
	stats, err := svc.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestHeuristicRecordRoundTrip pins the WAL encoding of heuristic records.
func TestHeuristicRecordRoundTrip(t *testing.T) {
	svcGen := NewService()
	tx := svcGen.Begin()
	in := HeuristicRecord{Tx: tx.ID(), Resource: "IOR:tcp:1.2.3.4:5|T|k", Outcome: StatusRolledBack}
	out, err := decodeHeuristic(encodeHeuristic(in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
	if _, err := decodeHeuristic(encodeHeuristic(in)[:8]); err == nil {
		t.Fatal("short heuristic record accepted")
	}
}

// TestHeuristicForgottenThenRecordedAgainSurvivesCheckpoint: a recovery
// pass that re-drives a still-pending decision after ForgetHeuristics
// records the participant's heuristic again. A checkpoint must bring back
// that one record, not the forgotten one beside it, so it keeps the
// forget marker while its transaction still has heuristics.
func TestHeuristicForgottenThenRecordedAgainSurvivesCheckpoint(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log), WithRetryPolicy(1, 0))
	disk := map[string]string{}
	rogue := &heuristicDurable{durableResource: newDurable("rogue", &disk), outcome: ErrHeuristicRollback}
	flaky := &failingDurable{durableResource: newDurable("flaky", &disk), failures: 1}
	svc.Directory().Register("rogue", rogue)
	svc.Directory().Register("flaky", flaky)
	tx := svc.Begin()
	enlist(t, tx, rogue, flaky)
	if err := tx.Commit(true); !errors.Is(err, ErrHeuristicMixed) {
		t.Fatalf("commit err = %v", err)
	}
	if err := svc.ForgetHeuristics(tx.ID()); err != nil {
		t.Fatal(err)
	}
	if stats, err := svc.Recover(); err != nil || stats.ResourcesHeuristic != 1 {
		t.Fatalf("Recover = %+v, %v; want the heuristic met again", stats, err)
	}
	before, err := svc.Heuristics()
	if err != nil || len(before) != 1 {
		t.Fatalf("heuristics before checkpoint = %+v, %v; want one", before, err)
	}
	if err := svc.CheckpointLog(); err != nil {
		t.Fatal(err)
	}
	after, err := svc.Heuristics()
	if err != nil || len(after) != 1 || after[0] != before[0] {
		t.Fatalf("heuristics after checkpoint = %+v, %v; want %+v", after, err, before)
	}
}
