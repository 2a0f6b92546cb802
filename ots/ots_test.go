package ots_test

import (
	"context"
	"errors"
	"testing"
	"time"

	iots "github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/ots"
)

// ledgerResource is a public-API participant with durable-ish state.
type ledgerResource struct {
	name     string
	disk     map[string]string
	vote     ots.Vote
	failures int
}

func (l *ledgerResource) Prepare() (ots.Vote, error) {
	l.disk[l.name] = "prepared"
	return l.vote, nil
}

func (l *ledgerResource) Commit() error {
	if l.failures > 0 {
		l.failures--
		return errors.New("transient")
	}
	l.disk[l.name] = "committed"
	return nil
}

func (l *ledgerResource) Rollback() error {
	l.disk[l.name] = "rolledback"
	return nil
}

func (l *ledgerResource) CommitOnePhase() error { return l.Commit() }
func (l *ledgerResource) Forget() error         { return nil }
func (l *ledgerResource) RecoveryName() string  { return l.name }

func TestPublicTwoPhaseCommit(t *testing.T) {
	svc := ots.NewService()
	disk := map[string]string{}
	tx := svc.Begin()
	a := &ledgerResource{name: "a", disk: disk, vote: ots.VoteCommit}
	b := &ledgerResource{name: "b", disk: disk, vote: ots.VoteCommit}
	if err := tx.RegisterResource(a); err != nil {
		t.Fatal(err)
	}
	if err := tx.RegisterResource(b); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if disk["a"] != "committed" || disk["b"] != "committed" {
		t.Fatalf("disk = %v", disk)
	}
	if tx.Status() != iots.StatusCommitted {
		t.Fatalf("status = %s", tx.Status())
	}
}

func TestPublicDurableRecovery(t *testing.T) {
	log := ots.NewMemoryLog()
	svc := ots.NewService(ots.WithLog(log))
	disk := map[string]string{}
	tx := svc.Begin()
	_ = tx.RegisterResource(&ledgerResource{name: "r1", disk: disk, vote: ots.VoteCommit})
	_ = tx.RegisterResource(&ledgerResource{name: "r2", disk: disk, vote: ots.VoteCommit})
	if err := tx.Commit(false); err != nil {
		t.Fatal(err)
	}

	// "Restart": a new service over the same log; recovery must be a no-op
	// because the done marker is durable.
	svc2 := ots.NewService(ots.WithLog(log), iots.WithDirectory(iots.NewDirectory()))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPublicCurrentDemarcation(t *testing.T) {
	svc := ots.NewService()
	cur := iots.NewCurrent(svc)
	ctx, top, err := cur.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, sub, err := cur.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Parent() != top || sub.Depth() != 1 {
		t.Fatal("nesting broken through facade")
	}
	if got, ok := iots.FromContext(ctx); !ok || got != sub {
		t.Fatal("context wiring broken")
	}
	if ctx, err = cur.Commit(ctx, false); err != nil {
		t.Fatal(err)
	}
	if _, err = cur.Commit(ctx, false); err != nil {
		t.Fatal(err)
	}
}

func TestPublicVar(t *testing.T) {
	svc := ots.NewService()
	locks := ots.NewLockManager()
	v := ots.NewVar("v", []byte("initial"), locks, 50*time.Millisecond)
	tx := svc.Begin()
	if err := v.Set(tx, []byte("updated")); err != nil {
		t.Fatal(err)
	}
	other := svc.Begin()
	if err := v.Set(other, []byte("conflict")); !errors.Is(err, iots.ErrWriteConflict) {
		t.Fatalf("err = %v", err)
	}
	_ = other.Rollback()
	if err := tx.Commit(false); err != nil {
		t.Fatal(err)
	}
	if got := string(v.Committed()); got != "updated" {
		t.Fatalf("committed = %q", got)
	}
}

func TestPublicTimeout(t *testing.T) {
	svc := ots.NewService()
	tx := svc.Begin(iots.WithTimeout(10 * time.Millisecond))
	deadline := time.After(2 * time.Second)
	for tx.Status() != iots.StatusMarkedRollback {
		select {
		case <-deadline:
			t.Fatalf("status = %s", tx.Status())
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
	if err := tx.Commit(false); !errors.Is(err, iots.ErrRolledBack) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicHeuristics(t *testing.T) {
	svc := ots.NewService(iots.WithRetryPolicy(2, 0))
	disk := map[string]string{}
	tx := svc.Begin()
	good := &ledgerResource{name: "good", disk: disk, vote: ots.VoteCommit}
	bad := &ledgerResource{name: "bad", disk: disk, vote: ots.VoteCommit, failures: 99}
	_ = tx.RegisterResource(good)
	_ = tx.RegisterResource(bad)
	err := tx.Commit(true)
	if !errors.Is(err, iots.ErrHeuristicMixed) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicFileLog(t *testing.T) {
	path := t.TempDir() + "/ots.wal"
	log, err := ots.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	svc := ots.NewService(ots.WithLog(log))
	disk := map[string]string{}
	tx := svc.Begin()
	_ = tx.RegisterResource(&ledgerResource{name: "f1", disk: disk, vote: ots.VoteCommit})
	_ = tx.RegisterResource(&ledgerResource{name: "f2", disk: disk, vote: ots.VoteCommit})
	if err := tx.Commit(false); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen and verify the decision is replayable.
	log2, err := ots.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	recs, err := log2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 { // decision + done
		t.Fatalf("records = %d", len(recs))
	}
}
