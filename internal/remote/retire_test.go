package remote

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
)

// newRetireFixture is newFixture with the client node listening, so the
// actions it enrols can be signalled back.
func newRetireFixture(t *testing.T) *fixture {
	t.Helper()
	fx := newFixture(t)
	if _, err := fx.clientORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return fx
}

// hostedActivity begins an activity on the fixture's server with a
// completion set that counts its responses, exports its coordinator and
// returns a proxy to it from the client node.
func hostedActivity(t *testing.T, fx *fixture, name string) (*core.Activity, *ActivityProxy) {
	t.Helper()
	a := fx.svc.Begin(name)
	set := core.NewSequenceSet(core.DefaultCompletionSet, "finish").Collate(func(rs []core.Outcome) core.Outcome {
		return core.Outcome{Name: "completed", Data: int64(len(rs))}
	})
	if err := a.RegisterSignalSet(set); err != nil {
		t.Fatal(err)
	}
	return a, NewActivityProxy(fx.clientORB, ExportActivity(fx.serverORB, a))
}

// countingAction acknowledges every signal and counts them.
func countingAction(n *atomic.Int32) core.Action {
	return core.ActionFunc(func(context.Context, core.Signal) (core.Outcome, error) {
		n.Add(1)
		return core.Outcome{Name: "ok"}, nil
	})
}

// wantObjectNotExist fails the test unless err is OBJECT_NOT_EXIST.
func wantObjectNotExist(t *testing.T, what string, err error) {
	t.Helper()
	if !orb.IsSystem(err, orb.CodeObjectNotExist) {
		t.Fatalf("%s on a completed activity: err = %v, want OBJECT_NOT_EXIST", what, err)
	}
}

// TestActivityCompleteRefusesInvalidStatus sends complete with status
// octets that name no completion status. Each is refused with MARSHAL
// before the activity is touched: no signal is delivered, the activity
// stays active with its status unchanged, and the servant stays, so a
// retry with a valid status completes it.
func TestActivityCompleteRefusesInvalidStatus(t *testing.T) {
	fx := newRetireFixture(t)
	ctx := context.Background()
	a, proxy := hostedActivity(t, fx, "invalid-status")
	var signals atomic.Int32
	if _, err := proxy.AddAction(ctx, core.DefaultCompletionSet, countingAction(&signals)); err != nil {
		t.Fatal(err)
	}
	for _, octet := range []byte{0, 9} {
		if _, err := proxy.Complete(ctx, core.CompletionStatus(octet)); !orb.IsSystem(err, orb.CodeMarshal) {
			t.Fatalf("complete(%d): err = %v, want MARSHAL", octet, err)
		}
		if st, cs := a.State(), a.CompletionStatus(); st != core.ActivityActive || cs != core.CompletionSuccess {
			t.Fatalf("after complete(%d): state %s, status %s; want active, success", octet, st, cs)
		}
		if _, ok := fx.serverORB.IOR(proxy.Ref().Key); !ok {
			t.Fatalf("servant retired by complete(%d)", octet)
		}
	}
	if n := signals.Load(); n != 0 {
		t.Fatalf("refused completes delivered %d signals", n)
	}
	out, err := proxy.Complete(ctx, core.CompletionSuccess)
	if err != nil || out.Name != "completed" {
		t.Fatalf("retry: outcome %+v, err %v", out, err)
	}
}

// TestActivityRetireAfterComplete pins the coordinator's lifetime: a
// successful complete retires the servant before its reply, so every
// later operation on the reference raises OBJECT_NOT_EXIST and none of
// them runs — in particular the action sees no second completion.
func TestActivityRetireAfterComplete(t *testing.T) {
	fx := newRetireFixture(t)
	ctx := context.Background()
	_, proxy := hostedActivity(t, fx, "retire")
	var signals atomic.Int32
	if _, err := proxy.AddAction(ctx, core.DefaultCompletionSet, countingAction(&signals)); err != nil {
		t.Fatal(err)
	}
	out, err := proxy.Complete(ctx, core.CompletionSuccess)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "completed" || out.Data != int64(1) {
		t.Fatalf("outcome = %+v", out)
	}
	if _, ok := fx.serverORB.IOR(proxy.Ref().Key); ok {
		t.Fatalf("servant %q still active after complete", proxy.Ref().Key)
	}

	_, _, err = proxy.Status(ctx)
	wantObjectNotExist(t, "status", err)
	_, err = proxy.AddAction(ctx, core.DefaultCompletionSet, countingAction(&signals))
	wantObjectNotExist(t, "add_action", err)
	_, err = proxy.Signal(ctx, core.DefaultCompletionSet)
	wantObjectNotExist(t, "signal", err)
	_, err = proxy.Complete(ctx, core.CompletionSuccess)
	wantObjectNotExist(t, "a second complete", err)
	if n := signals.Load(); n != 1 {
		t.Fatalf("action saw %d completion signals, want 1", n)
	}
}

// TestActivityRetireInProcessCompletion covers an activity completed
// in-process rather than through its reference: the next call finds it
// completed, retires the servant and raises OBJECT_NOT_EXIST.
func TestActivityRetireInProcessCompletion(t *testing.T) {
	fx := newRetireFixture(t)
	ctx := context.Background()
	a, proxy := hostedActivity(t, fx, "local-complete")
	if _, err := a.Complete(ctx); err != nil {
		t.Fatal(err)
	}
	_, _, err := proxy.Status(ctx)
	wantObjectNotExist(t, "status", err)
	if _, ok := fx.serverORB.IOR(proxy.Ref().Key); ok {
		t.Fatalf("servant %q still active after the call found its activity completed", proxy.Ref().Key)
	}
}

// TestActivityRetireFailOnlyComplete: a complete with Success on a
// FailOnly activity cannot take its status, but completes it all the same
// with the failure status. The caller gets the error, the completion set
// runs once, and the servant is retired like any completed activity's.
func TestActivityRetireFailOnlyComplete(t *testing.T) {
	fx := newRetireFixture(t)
	ctx := context.Background()
	a, proxy := hostedActivity(t, fx, "fail-only")
	var signals atomic.Int32
	if _, err := proxy.AddAction(ctx, core.DefaultCompletionSet, countingAction(&signals)); err != nil {
		t.Fatal(err)
	}
	if err := a.SetCompletionStatus(core.CompletionFailOnly); err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.Complete(ctx, core.CompletionSuccess); err == nil || orb.IsSystem(err, orb.CodeObjectNotExist) {
		t.Fatalf("complete(Success) on FailOnly: err = %v, want the activity's refusal of the status", err)
	}
	if a.State() != core.ActivityCompleted || fx.svc.Live() != 0 {
		t.Fatalf("state %s, live %d: want completed and forgotten", a.State(), fx.svc.Live())
	}
	if n := signals.Load(); n != 1 {
		t.Fatalf("action saw %d completion signals, want 1", n)
	}
	if _, ok := fx.serverORB.IOR(proxy.Ref().Key); ok {
		t.Fatalf("servant %q still active after a completing complete", proxy.Ref().Key)
	}
	_, _, err := proxy.Status(ctx)
	wantObjectNotExist(t, "status", err)
}

// TestActivityRetireRefusedCompleteKeepsServant pins that a complete
// refused before the activity's state changed — children still active,
// or the activity suspended — leaves the coordinator callable, so the
// caller can fix the cause and retry.
func TestActivityRetireRefusedCompleteKeepsServant(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name           string
		refuse, permit func(*core.Activity) error
	}{
		{
			name: "children-active",
			refuse: func(a *core.Activity) error {
				_, err := a.BeginChild("child")
				return err
			},
			permit: func(a *core.Activity) error {
				_, err := a.Children()[0].Complete(ctx)
				return err
			},
		},
		{
			name:   "suspended",
			refuse: (*core.Activity).Suspend,
			permit: (*core.Activity).Resume,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := newRetireFixture(t)
			a, proxy := hostedActivity(t, fx, tc.name)
			if err := tc.refuse(a); err != nil {
				t.Fatal(err)
			}
			_, err := proxy.Complete(ctx, core.CompletionSuccess)
			if err == nil || orb.IsSystem(err, orb.CodeObjectNotExist) {
				t.Fatalf("refused complete: err = %v, want the activity's own refusal", err)
			}
			if _, _, err := proxy.Status(ctx); err != nil {
				t.Fatalf("status after a refused complete: %v", err)
			}
			if err := tc.permit(a); err != nil {
				t.Fatal(err)
			}
			if _, err := proxy.Complete(ctx, core.CompletionSuccess); err != nil {
				t.Fatalf("retried complete: %v", err)
			}
			_, _, err = proxy.Status(ctx)
			wantObjectNotExist(t, "status", err)
		})
	}
}

// TestActivityRetireRacingCompletes sends two completes at once. The
// winner's broadcast is held inside its action until the loser has
// answered, so the loser always meets a completing activity: it must get
// an error, never a second broadcast, and the winner the one outcome.
func TestActivityRetireRacingCompletes(t *testing.T) {
	fx := newRetireFixture(t)
	ctx := context.Background()
	for round := 0; round < 10; round++ {
		_, proxy := hostedActivity(t, fx, "race")
		var signals atomic.Int32
		release := make(chan struct{})
		if _, err := proxy.AddAction(ctx, core.DefaultCompletionSet, core.ActionFunc(
			func(context.Context, core.Signal) (core.Outcome, error) {
				signals.Add(1)
				<-release
				return core.Outcome{Name: "ok"}, nil
			})); err != nil {
			t.Fatal(err)
		}
		type result struct {
			out core.Outcome
			err error
		}
		results := make(chan result, 2)
		for range 2 {
			go func() {
				out, err := proxy.Complete(ctx, core.CompletionSuccess)
				results <- result{out, err}
			}()
		}
		first := <-results
		close(release)
		second := <-results
		if first.err == nil {
			t.Fatalf("round %d: the first reply succeeded (%+v) while the broadcast was held", round, first.out)
		}
		if second.err != nil || second.out.Name != "completed" || second.out.Data != int64(1) {
			t.Fatalf("round %d: winner = %+v, %v; loser err = %v", round, second.out, second.err, first.err)
		}
		if n := signals.Load(); n != 1 {
			t.Fatalf("round %d: action saw %d completion signals, want 1", round, n)
		}
		_, _, err := proxy.Status(ctx)
		wantObjectNotExist(t, "status", err)
	}
}
