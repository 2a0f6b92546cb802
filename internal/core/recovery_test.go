package core

import (
	"context"
	"testing"

	"github.com/extendedtx/activityservice/internal/wal"
)

// registerTestFactories installs the factories recovery tests rely on.
func registerTestFactories(s *Service) {
	s.RegisterSignalSetFactory("seq", func(params []byte) (SignalSet, error) {
		return NewSequenceSet(DefaultCompletionSet, string(params)), nil
	})
	s.RegisterActionFactory("ok", func(params []byte) (Action, error) {
		return ActionFunc(func(context.Context, Signal) (Outcome, error) {
			return Outcome{Name: "ok:" + string(params)}, nil
		}), nil
	})
}

func TestRecoverRebuildsInFlightTree(t *testing.T) {
	log := wal.NewMemory()
	svc := New(WithJournal(log))
	registerTestFactories(svc)

	root := svc.Begin("root")
	child, err := root.BeginChild("child")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := child.RegisterRecoverableSignalSet("seq", []byte("wrap-up")); err != nil {
		t.Fatal(err)
	}
	if err := child.AddRecoverableAction(DefaultCompletionSet, "ok", []byte("p1")); err != nil {
		t.Fatal(err)
	}
	if err := child.SetCompletionStatus(CompletionFail); err != nil {
		t.Fatal(err)
	}
	done, err := root.BeginChild("done-child")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := done.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}

	// "Crash": rebuild a fresh service over the same durable log.
	snap, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	log2, err := wal.OpenMemory(snap)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New()
	registerTestFactories(svc2)
	roots, err := svc2.Recover(log2)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0].Name() != "root" {
		t.Fatalf("roots = %v", roots)
	}
	r := roots[0]
	if r.ID() != root.ID() {
		t.Fatal("root id not preserved")
	}
	kids := r.Children()
	if len(kids) != 1 || kids[0].Name() != "child" {
		t.Fatalf("children = %v (completed child must not be rebuilt)", kids)
	}
	rc := kids[0]
	if rc.CompletionStatus() != CompletionFail {
		t.Fatalf("child status = %s", rc.CompletionStatus())
	}
	// The recovered child can be driven to completion: its recoverable
	// SignalSet and Action are live again.
	out, err := rc.Complete(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "completed" {
		t.Fatalf("outcome = %+v", out)
	}
	set, ok := rc.SignalSet(DefaultCompletionSet)
	if !ok {
		t.Fatal("recovered set missing")
	}
	if rs := set.(*SequenceSet).Responses(); len(rs) != 1 || rs[0].Name != "ok:p1" {
		t.Fatalf("responses = %v", rs)
	}
	if _, err := r.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverSkipsFullyCompletedTrees(t *testing.T) {
	log := wal.NewMemory()
	svc := New(WithJournal(log))
	a := svc.Begin("A")
	if _, err := a.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}
	svc2 := New()
	roots, err := svc2.Recover(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 0 {
		t.Fatalf("roots = %v, want none", roots)
	}
}

func TestRecoverOrphanBecomesRoot(t *testing.T) {
	// A child whose parent completed before the crash is recovered as a
	// root of the forest.
	log := wal.NewMemory()
	svc := New(WithJournal(log))
	parent := svc.Begin("parent")
	child, _ := parent.BeginChild("child")
	_ = child // child stays in flight
	// Parent cannot complete with an active child, so simulate the
	// parent-completed journal state directly.
	svc.journal.completed(parent.ID(), CompletionSuccess, "success")

	svc2 := New()
	roots, err := svc2.Recover(log)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 || roots[0].Name() != "child" {
		t.Fatalf("roots = %v", roots)
	}
}

func TestRecoverMissingFactoryFails(t *testing.T) {
	log := wal.NewMemory()
	svc := New(WithJournal(log))
	registerTestFactories(svc)
	a := svc.Begin("A")
	if _, err := a.RegisterRecoverableSignalSet("seq", []byte("x")); err != nil {
		t.Fatal(err)
	}
	svc2 := New() // no factories registered
	if _, err := svc2.Recover(log); err == nil {
		t.Fatal("recovery without factories succeeded")
	}
}

func TestRecoverableRegistrationRequiresFactory(t *testing.T) {
	svc := New(WithJournal(wal.NewMemory()))
	a := svc.Begin("A")
	if _, err := a.RegisterRecoverableSignalSet("ghost", nil); err == nil {
		t.Fatal("unknown set factory accepted")
	}
	if err := a.AddRecoverableAction("s", "ghost", nil); err == nil {
		t.Fatal("unknown action factory accepted")
	}
}

func TestJournalDisabledIsNoop(t *testing.T) {
	svc := New() // no journal
	a := svc.Begin("A")
	child, _ := a.BeginChild("c")
	_ = child.SetCompletionStatus(CompletionFail)
	if _, err := child.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}
}
