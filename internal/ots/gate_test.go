package ots

import (
	"errors"
	"fmt"
	"testing"

	"github.com/extendedtx/activityservice/internal/wal"
)

// TestDecisionGateVetoRollsBack: a gate veto (the coordinator was fenced
// between appending the decision and releasing phase two) must unwind
// like a failed decision append — every prepared participant rolled
// back, no commit delivered, ErrRolledBack to the terminator.
func TestDecisionGateVetoRollsBack(t *testing.T) {
	fenced := errors.New("deposed mid-commit")
	var gateLSN uint64
	svc := NewService(
		WithLog(wal.NewMemory()),
		WithDecisionGate(func(lsn uint64) error {
			gateLSN = lsn
			return fenced
		}))
	tx := svc.Begin()
	a, b := newFake("a"), newFake("b")
	if err := tx.RegisterResource(a); err != nil {
		t.Fatal(err)
	}
	if err := tx.RegisterResource(b); err != nil {
		t.Fatal(err)
	}
	err := tx.Commit(true)
	if !errors.Is(err, ErrRolledBack) || !errors.Is(err, fenced) {
		t.Fatalf("vetoed commit = %v, want ErrRolledBack wrapping the veto", err)
	}
	if gateLSN == 0 {
		t.Fatal("gate never saw the decision LSN")
	}
	for _, r := range []*fakeResource{a, b} {
		calls := r.Calls()
		if len(calls) != 2 || calls[0] != "prepare" || calls[1] != "rollback" {
			t.Fatalf("%s calls = %v, want prepare then rollback", r.name, calls)
		}
	}
	if tx.Status() != StatusRolledBack {
		t.Fatalf("status = %s, want rolled back", tx.Status())
	}
}

// TestDecisionGateFencedLeavesInDoubt: a gate that fails with
// wal.ErrFenced (the coordinator was deposed, and a follower may already
// hold the decision) delivers no phase two: each participant saw prepare
// only, no void record retracts the decision, and the terminator gets the
// fence, not ErrRolledBack, with the outcome unknown. A decision append
// that fails with wal.ErrFenced does the same.
func TestDecisionGateFencedLeavesInDoubt(t *testing.T) {
	for _, where := range []string{"gate", "append"} {
		t.Run(where, func(t *testing.T) {
			log := wal.NewMemory()
			gate := func(uint64) error { return fmt.Errorf("deposed mid-commit: %w", wal.ErrFenced) }
			if where == "append" {
				gate = nil
				log.Follow() // local appends now fail with wal.ErrFenced
			}
			svc := NewService(WithLog(log), WithDecisionGate(gate))
			tx := svc.Begin()
			a, b := newFake("a"), newFake("b")
			if err := tx.RegisterResource(a); err != nil {
				t.Fatal(err)
			}
			if err := tx.RegisterResource(b); err != nil {
				t.Fatal(err)
			}
			err := tx.Commit(true)
			if !errors.Is(err, wal.ErrFenced) || errors.Is(err, ErrRolledBack) {
				t.Fatalf("fenced commit = %v, want wal.ErrFenced and not ErrRolledBack", err)
			}
			for _, r := range []*fakeResource{a, b} {
				if calls := r.Calls(); len(calls) != 1 || calls[0] != "prepare" {
					t.Fatalf("%s calls = %v, want prepare only", r.name, calls)
				}
			}
			if tx.Status() != StatusUnknown {
				t.Fatalf("status = %s, want unknown", tx.Status())
			}
			recs, err := log.Records()
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range recs {
				if r.Kind == RecordVoid {
					t.Fatal("a fenced decision was voided")
				}
			}
		})
	}
}

// TestDecisionGateOrderAndPassThrough: an accepting gate runs after the
// decision is durable in the log and before any phase-two delivery, and
// the commit proceeds normally.
func TestDecisionGateOrderAndPassThrough(t *testing.T) {
	log := wal.NewMemory()
	a, b := newFake("a"), newFake("b")
	gateRuns := 0
	svc := NewService(
		WithLog(log),
		WithDecisionGate(func(lsn uint64) error {
			gateRuns++
			if lsn == 0 || log.LastLSN() < lsn {
				t.Errorf("gate saw LSN %d with the log at %d, want the durable decision", lsn, log.LastLSN())
			}
			for _, r := range []*fakeResource{a, b} {
				if calls := r.Calls(); len(calls) != 1 || calls[0] != "prepare" {
					t.Errorf("%s calls at the gate = %v, want prepare only", r.name, calls)
				}
			}
			return nil
		}))
	tx := svc.Begin()
	_ = tx.RegisterResource(a)
	_ = tx.RegisterResource(b)
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if gateRuns != 1 {
		t.Fatalf("gate ran %d times, want once", gateRuns)
	}
	for _, r := range []*fakeResource{a, b} {
		calls := r.Calls()
		if len(calls) != 2 || calls[1] != "commit" {
			t.Fatalf("%s calls = %v, want prepare then commit", r.name, calls)
		}
	}
}
