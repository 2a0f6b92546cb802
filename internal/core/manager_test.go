package core

import (
	"context"
	"errors"
	"testing"
)

func TestUserActivityBeginComplete(t *testing.T) {
	svc := New()
	ua := NewUserActivity(svc)
	ctx := context.Background()

	ctx, a, err := ua.Begin(ctx, "job")
	if err != nil {
		t.Fatal(err)
	}
	if cur, ok := ua.Current(ctx); !ok || cur != a {
		t.Fatal("context lost the activity")
	}
	out, ctx, err := ua.Complete(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "success" {
		t.Fatalf("outcome = %+v", out)
	}
	if _, ok := ua.Current(ctx); ok {
		t.Fatal("context still carries activity after root completion")
	}
}

func TestUserActivityNestsAndPops(t *testing.T) {
	svc := New()
	ua := NewUserActivity(svc)
	ctx := context.Background()

	ctx, top, _ := ua.Begin(ctx, "top")
	ctx, sub, _ := ua.Begin(ctx, "sub")
	if sub.Parent() != top {
		t.Fatal("second Begin did not nest")
	}
	_, ctx, err := ua.Complete(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cur, ok := ua.Current(ctx); !ok || cur != top {
		t.Fatal("did not pop to parent")
	}
	if _, _, err := ua.Complete(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestUserActivityCompleteWithStatus(t *testing.T) {
	svc := New()
	ua := NewUserActivity(svc)
	ctx, _, _ := ua.Begin(context.Background(), "failing")
	out, _, err := ua.CompleteWithStatus(ctx, CompletionFail)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "failure" {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestUserActivitySuspendResume(t *testing.T) {
	svc := New()
	ua := NewUserActivity(svc)
	ctx, a, _ := ua.Begin(context.Background(), "pausable")
	if err := ua.Suspend(ctx); err != nil {
		t.Fatal(err)
	}
	if a.State() != ActivitySuspended {
		t.Fatalf("state = %s", a.State())
	}
	if err := ua.Resume(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ua.Complete(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestUserActivityNoContext(t *testing.T) {
	svc := New()
	ua := NewUserActivity(svc)
	ctx := context.Background()
	if _, _, err := ua.Complete(ctx); !errors.Is(err, ErrNoCurrentActivity) {
		t.Fatalf("complete err = %v", err)
	}
	if err := ua.SetCompletionStatus(ctx, CompletionFail); !errors.Is(err, ErrNoCurrentActivity) {
		t.Fatalf("set status err = %v", err)
	}
	if _, err := ua.CompletionStatus(ctx); !errors.Is(err, ErrNoCurrentActivity) {
		t.Fatalf("status err = %v", err)
	}
	if err := ua.Suspend(ctx); !errors.Is(err, ErrNoCurrentActivity) {
		t.Fatalf("suspend err = %v", err)
	}
}

func TestActivityManagerPlugsHLSIn(t *testing.T) {
	// Fig. 13: the HLS provides SignalSets and Actions and plugs them into
	// the current activity through the ActivityManager.
	svc := New()
	ua := NewUserActivity(svc)
	am := NewActivityManager(svc)
	ctx, _, _ := ua.Begin(context.Background(), "hls-managed")

	set := NewSequenceSet("hls-proto", "phase-1")
	if err := am.RegisterSignalSet(ctx, set); err != nil {
		t.Fatal(err)
	}
	act := &collectingAction{name: "hls-action"}
	if err := am.AddAction(ctx, "hls-proto", act); err != nil {
		t.Fatal(err)
	}
	out, err := am.Broadcast(ctx, "hls-proto")
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "completed" {
		t.Fatalf("outcome = %+v", out)
	}
	if len(act.Signals()) != 1 {
		t.Fatal("action missed the broadcast")
	}
	if name, err := am.CurrentName(ctx); err != nil || name != "hls-managed" {
		t.Fatalf("current name = %q err=%v", name, err)
	}
}

func TestActivityManagerCompletionSetSelection(t *testing.T) {
	svc := New()
	ua := NewUserActivity(svc)
	am := NewActivityManager(svc)
	ctx, _, _ := ua.Begin(context.Background(), "custom-completion")
	set := NewSequenceSet("special", "bye").Collate(func([]Outcome) Outcome {
		return Outcome{Name: "special-done"}
	})
	_ = am.RegisterSignalSet(ctx, set)
	if err := am.SetCompletionSet(ctx, "special"); err != nil {
		t.Fatal(err)
	}
	out, _, err := ua.Complete(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "special-done" {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestActivityManagerNoContext(t *testing.T) {
	am := NewActivityManager(New())
	ctx := context.Background()
	if err := am.RegisterSignalSet(ctx, NewSequenceSet("s")); !errors.Is(err, ErrNoCurrentActivity) {
		t.Fatalf("err = %v", err)
	}
	if err := am.AddAction(ctx, "s", okAction()); !errors.Is(err, ErrNoCurrentActivity) {
		t.Fatalf("err = %v", err)
	}
	if _, err := am.Broadcast(ctx, "s"); !errors.Is(err, ErrNoCurrentActivity) {
		t.Fatalf("err = %v", err)
	}
	if _, err := am.MustCurrent(ctx); !errors.Is(err, ErrNoCurrentActivity) {
		t.Fatalf("err = %v", err)
	}
}
