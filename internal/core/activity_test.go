package core

import (
	"context"
	"errors"
	"testing"
	"time"
)

func okAction() Action {
	return ActionFunc(func(context.Context, Signal) (Outcome, error) {
		return Outcome{Name: "ok"}, nil
	})
}

func TestActivityLifecycle(t *testing.T) {
	svc := New()
	a := svc.Begin("A1")
	if a.State() != ActivityActive || a.CompletionStatus() != CompletionSuccess {
		t.Fatalf("initial state=%s cs=%s", a.State(), a.CompletionStatus())
	}
	out, err := a.Complete(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "success" {
		t.Fatalf("outcome = %+v", out)
	}
	if a.State() != ActivityCompleted {
		t.Fatalf("state = %s", a.State())
	}
	if svc.Live() != 0 {
		t.Fatalf("live = %d", svc.Live())
	}
}

func TestActivityCompleteDrivesCompletionSet(t *testing.T) {
	svc := New()
	a := svc.Begin("A1")
	set := NewSequenceSet(DefaultCompletionSet, "finish").Collate(func(rs []Outcome) Outcome {
		return Outcome{Name: "custom", Data: int64(len(rs))}
	})
	if err := a.RegisterSignalSet(set); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddAction(DefaultCompletionSet, okAction()); err != nil {
		t.Fatal(err)
	}
	out, err := a.Complete(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "custom" || out.Data != int64(1) {
		t.Fatalf("outcome = %+v", out)
	}
	// Completion status was pushed into the set before driving.
	if set.CompletionStatus() != CompletionSuccess {
		t.Fatalf("set status = %s", set.CompletionStatus())
	}
	if stored, ok := a.Outcome(); !ok || stored.Name != "custom" {
		t.Fatalf("stored outcome = %+v ok=%v", stored, ok)
	}
}

func TestActivityFailureStatusReachesSet(t *testing.T) {
	svc := New()
	a := svc.Begin("A1")
	set := NewSequenceSet(DefaultCompletionSet, "finish")
	_ = a.RegisterSignalSet(set)
	if err := a.SetCompletionStatus(CompletionFail); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}
	if set.CompletionStatus() != CompletionFail {
		t.Fatalf("set status = %s", set.CompletionStatus())
	}
}

func TestCompletionStatusFailOnlyIsSticky(t *testing.T) {
	svc := New()
	a := svc.Begin("A1")
	if err := a.SetCompletionStatus(CompletionFailOnly); err != nil {
		t.Fatal(err)
	}
	if err := a.SetCompletionStatus(CompletionSuccess); !errors.Is(err, ErrCompletionStatusFixed) {
		t.Fatalf("err = %v", err)
	}
	// Fail → Success → Fail transitions are allowed before FailOnly.
	b := svc.Begin("A2")
	for _, cs := range []CompletionStatus{CompletionFail, CompletionSuccess, CompletionFail} {
		if err := b.SetCompletionStatus(cs); err != nil {
			t.Fatalf("set %s: %v", cs, err)
		}
	}
}

// TestFailOnlyCompletesWithFail: Fail on a FailOnly activity is a no-op,
// so the activity can still complete — it fails, as §3.2.1 requires.
func TestFailOnlyCompletesWithFail(t *testing.T) {
	svc := New()
	a := svc.Begin("A")
	if err := a.SetCompletionStatus(CompletionFailOnly); err != nil {
		t.Fatal(err)
	}
	if err := a.SetCompletionStatus(CompletionFail); err != nil {
		t.Fatalf("set Fail on FailOnly: %v", err)
	}
	if cs := a.CompletionStatus(); cs != CompletionFailOnly {
		t.Fatalf("status = %s, want FailOnly", cs)
	}
	out, err := a.CompleteWithStatus(context.Background(), CompletionFail)
	if err != nil {
		t.Fatalf("complete: %v", err)
	}
	if out.Name != "failure" || a.State() != ActivityCompleted || svc.Live() != 0 {
		t.Fatalf("outcome %s, state %s, live %d", out.Name, a.State(), svc.Live())
	}
}

// TestFailOnlyCompleteWithSuccessFails: Success cannot be set on a
// FailOnly activity, yet completing with it still completes the activity,
// through the failure sequence, and records the failure outcome; the
// error tells the caller its status was not taken.
func TestFailOnlyCompleteWithSuccessFails(t *testing.T) {
	svc := New()
	a := svc.Begin("A")
	set := NewSequenceSet(DefaultCompletionSet).
		Signals(Signal{Name: "commit"}).
		OnFailure(Signal{Name: "undo"}).
		Outcomes("done", "undone")
	if err := a.RegisterSignalSet(set); err != nil {
		t.Fatal(err)
	}
	var heard []string
	if _, err := a.AddAction(DefaultCompletionSet, ActionFunc(func(_ context.Context, sig Signal) (Outcome, error) {
		heard = append(heard, sig.Name)
		return Outcome{Name: "ok"}, nil
	})); err != nil {
		t.Fatal(err)
	}
	if err := a.SetCompletionStatus(CompletionFailOnly); err != nil {
		t.Fatal(err)
	}
	out, err := a.CompleteWithStatus(context.Background(), CompletionSuccess)
	if !errors.Is(err, ErrCompletionStatusFixed) {
		t.Fatalf("err = %v, want ErrCompletionStatusFixed", err)
	}
	if out.Name != "undone" || len(heard) != 1 || heard[0] != "undo" || !set.Failed() {
		t.Fatalf("outcome %q, heard %v, failed %v: want the failure sequence", out.Name, heard, set.Failed())
	}
	if a.State() != ActivityCompleted || svc.Live() != 0 {
		t.Fatalf("state %s, live %d: want completed and forgotten", a.State(), svc.Live())
	}
	if stored, ok := a.Outcome(); !ok || stored.Name != "undone" {
		t.Fatalf("stored outcome %+v ok=%v", stored, ok)
	}
	if cs := a.CompletionStatus(); cs != CompletionFailOnly {
		t.Fatalf("status = %s, want FailOnly", cs)
	}
}

func TestCompleteRejectsActiveChildren(t *testing.T) {
	svc := New()
	a := svc.Begin("parent")
	child, err := a.BeginChild("child")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Complete(context.Background()); !errors.Is(err, ErrChildrenActive) {
		t.Fatalf("err = %v", err)
	}
	if _, err := child.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestNestedActivityHierarchy(t *testing.T) {
	svc := New()
	root := svc.Begin("root")
	c1, _ := root.BeginChild("c1")
	c2, _ := root.BeginChild("c2")
	g1, _ := c1.BeginChild("g1")
	if g1.Parent() != c1 || c1.Parent() != root || root.Parent() != nil {
		t.Fatal("parent links wrong")
	}
	kids := root.Children()
	if len(kids) != 2 {
		t.Fatalf("root has %d children", len(kids))
	}
	_ = c2
	if svc.Live() != 4 {
		t.Fatalf("live = %d", svc.Live())
	}
}

func TestSuspendResume(t *testing.T) {
	svc := New()
	a := svc.Begin("A")
	set := NewSequenceSet("s", "x")
	_ = a.RegisterSignalSet(set)

	if err := a.Suspend(); err != nil {
		t.Fatal(err)
	}
	if a.State() != ActivitySuspended {
		t.Fatalf("state = %s", a.State())
	}
	if _, err := a.Signal(context.Background(), "s"); !errors.Is(err, ErrActivitySuspended) {
		t.Fatalf("signal err = %v", err)
	}
	if _, err := a.Complete(context.Background()); !errors.Is(err, ErrActivitySuspended) {
		t.Fatalf("complete err = %v", err)
	}
	if _, err := a.BeginChild("c"); !errors.Is(err, ErrActivityInactive) {
		t.Fatalf("child err = %v", err)
	}
	if err := a.Suspend(); err == nil {
		t.Fatal("double suspend succeeded")
	}
	if err := a.Resume(); err != nil {
		t.Fatal(err)
	}
	if err := a.Resume(); err == nil {
		t.Fatal("double resume succeeded")
	}
	if _, err := a.Signal(context.Background(), "s"); err != nil {
		t.Fatalf("signal after resume: %v", err)
	}
}

func TestSignalAtArbitraryPoint(t *testing.T) {
	// §3.1: signals may be communicated at arbitrary points, not just
	// termination.
	svc := New()
	a := svc.Begin("A")
	mid := NewSequenceSet("midpoint", "checkpoint")
	_ = a.RegisterSignalSet(mid)
	act := &collectingAction{name: "observer"}
	if _, err := a.AddAction("midpoint", act); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Signal(context.Background(), "midpoint"); err != nil {
		t.Fatal(err)
	}
	if a.State() != ActivityActive {
		t.Fatalf("state = %s after mid-lifetime signal", a.State())
	}
	if len(act.Signals()) != 1 {
		t.Fatal("observer missed the checkpoint signal")
	}
	if _, err := a.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestSignalUnknownSet(t *testing.T) {
	svc := New()
	a := svc.Begin("A")
	if _, err := a.Signal(context.Background(), "ghost"); !errors.Is(err, ErrUnknownSignalSet) {
		t.Fatalf("err = %v", err)
	}
}

func TestDuplicateSignalSetRejected(t *testing.T) {
	svc := New()
	a := svc.Begin("A")
	if err := a.RegisterSignalSet(NewSequenceSet("s", "x")); err != nil {
		t.Fatal(err)
	}
	if err := a.RegisterSignalSet(NewSequenceSet("s", "y")); !errors.Is(err, ErrDuplicateSignalSet) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompletedActivityRejectsEverything(t *testing.T) {
	svc := New()
	a := svc.Begin("A")
	if _, err := a.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Complete(context.Background()); !errors.Is(err, ErrActivityInactive) {
		t.Fatalf("second complete err = %v", err)
	}
	if err := a.SetCompletionStatus(CompletionFail); !errors.Is(err, ErrActivityInactive) {
		t.Fatalf("set status err = %v", err)
	}
	if _, err := a.BeginChild("c"); !errors.Is(err, ErrActivityInactive) {
		t.Fatalf("child err = %v", err)
	}
	if err := a.RegisterSignalSet(NewSequenceSet("s")); !errors.Is(err, ErrActivityInactive) {
		t.Fatalf("register err = %v", err)
	}
	if _, err := a.AddAction("s", okAction()); !errors.Is(err, ErrActivityInactive) {
		t.Fatalf("add action err = %v", err)
	}
}

func TestActivityTimeoutForcesFailOnly(t *testing.T) {
	svc := New()
	a := svc.Begin("slow", WithTimeout(20*time.Millisecond))
	deadline := time.After(2 * time.Second)
	for a.CompletionStatus() != CompletionFailOnly {
		select {
		case <-deadline:
			t.Fatalf("completion status = %s, timeout never fired", a.CompletionStatus())
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	out, err := a.Complete(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "failure" {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestCustomCompletionSet(t *testing.T) {
	svc := New()
	a := svc.Begin("A")
	alt := NewSequenceSet("alternative", "wrap-up").Collate(func([]Outcome) Outcome {
		return Outcome{Name: "alt-done"}
	})
	_ = a.RegisterSignalSet(alt)
	a.SetCompletionSet("alternative")
	out, err := a.Complete(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "alt-done" {
		t.Fatalf("outcome = %+v", out)
	}
}

// TestFig4ActivityTransactionRelationship reproduces fig. 4's structure:
// activities with transactional and non-transactional periods, including a
// nested transactional activity A3' inside A3 (the transactions themselves
// are exercised in the integration tests; here we assert the activity
// shapes compose).
func TestFig4ActivityTransactionRelationship(t *testing.T) {
	svc := New()
	ctx := context.Background()
	a1 := svc.Begin("A1")
	a2 := svc.Begin("A2")
	a3 := svc.Begin("A3")
	a3p, err := a3.BeginChild("A3'")
	if err != nil {
		t.Fatal(err)
	}
	a4 := svc.Begin("A4")
	a5 := svc.Begin("A5")

	for _, a := range []*Activity{a1, a2, a3p, a3, a4, a5} {
		if _, err := a.Complete(ctx); err != nil {
			t.Fatalf("complete %s: %v", a.Name(), err)
		}
	}
	if svc.Live() != 0 {
		t.Fatalf("live = %d", svc.Live())
	}
}

func TestFindLiveActivity(t *testing.T) {
	svc := New()
	a := svc.Begin("A")
	got, ok := svc.Find(a.ID())
	if !ok || got != a {
		t.Fatal("Find failed for live activity")
	}
	_, _ = a.Complete(context.Background())
	if _, ok := svc.Find(a.ID()); ok {
		t.Fatal("Find succeeded for completed activity")
	}
}
