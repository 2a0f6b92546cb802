package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/extendedtx/activityservice/internal/ots"
)

func TestIdempotentDeduplicates(t *testing.T) {
	var invocations atomic.Int32
	inner := ActionFunc(func(_ context.Context, sig Signal) (Outcome, error) {
		invocations.Add(1)
		return Outcome{Name: "done"}, nil
	})
	a := Idempotent(inner)
	sig := Signal{Name: "prepare", SetName: "2pc", Data: int64(1)}
	for i := 0; i < 5; i++ {
		out, err := a.ProcessSignal(context.Background(), sig)
		if err != nil {
			t.Fatal(err)
		}
		if out.Name != "done" {
			t.Fatalf("outcome = %+v", out)
		}
	}
	if invocations.Load() != 1 {
		t.Fatalf("inner invoked %d times, want 1", invocations.Load())
	}
}

func TestIdempotentDistinguishesSignals(t *testing.T) {
	var invocations atomic.Int32
	a := Idempotent(ActionFunc(func(_ context.Context, sig Signal) (Outcome, error) {
		invocations.Add(1)
		return Outcome{Name: sig.Name}, nil
	}))
	ctx := context.Background()
	_, _ = a.ProcessSignal(ctx, Signal{Name: "prepare", SetName: "s"})
	_, _ = a.ProcessSignal(ctx, Signal{Name: "commit", SetName: "s"})
	_, _ = a.ProcessSignal(ctx, Signal{Name: "prepare", SetName: "other"})
	_, _ = a.ProcessSignal(ctx, Signal{Name: "prepare", SetName: "s", Data: "different"})
	if invocations.Load() != 4 {
		t.Fatalf("inner invoked %d times, want 4 distinct", invocations.Load())
	}
}

func TestIdempotentRetriesFailures(t *testing.T) {
	var invocations atomic.Int32
	a := Idempotent(ActionFunc(func(context.Context, Signal) (Outcome, error) {
		if invocations.Add(1) == 1 {
			return Outcome{}, errors.New("transient")
		}
		return Outcome{Name: "ok"}, nil
	}))
	ctx := context.Background()
	sig := Signal{Name: "x", SetName: "s"}
	if _, err := a.ProcessSignal(ctx, sig); err == nil {
		t.Fatal("first delivery should fail")
	}
	// Failure was not memoized: the retry reaches the inner action.
	out, err := a.ProcessSignal(ctx, sig)
	if err != nil || out.Name != "ok" {
		t.Fatalf("retry: out=%+v err=%v", out, err)
	}
}

func TestIdempotentUnderAtLeastOnceCoordinator(t *testing.T) {
	// End to end: a coordinator with retries delivering to a flaky action
	// wrapped in Idempotent applies the effect exactly once per signal.
	var effects atomic.Int32
	flakyFirst := true
	inner := ActionFunc(func(_ context.Context, sig Signal) (Outcome, error) {
		if flakyFirst {
			flakyFirst = false
			return Outcome{}, errors.New("dropped")
		}
		effects.Add(1)
		return Outcome{Name: "applied"}, nil
	})
	coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 3})
	coord.AddAction("s", Idempotent(inner))
	set := NewSequenceSet("s", "one", "two")
	if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	if effects.Load() != 2 {
		t.Fatalf("effects = %d, want 2 (one per distinct signal)", effects.Load())
	}
}

func TestExactlyOnceCommitsEffect(t *testing.T) {
	txsvc := ots.NewService()
	var effects atomic.Int32
	a := ExactlyOnce(txsvc, ActionFunc(func(ctx context.Context, sig Signal) (Outcome, error) {
		if _, ok := ots.FromContext(ctx); !ok {
			t.Error("inner action did not run inside a transaction")
		}
		effects.Add(1)
		return Outcome{Name: "applied"}, nil
	}))
	ctx := context.Background()
	sig := Signal{Name: "do", SetName: "s"}
	for i := 0; i < 3; i++ {
		out, err := a.ProcessSignal(ctx, sig)
		if err != nil {
			t.Fatal(err)
		}
		if out.Name != "applied" {
			t.Fatalf("outcome = %+v", out)
		}
	}
	if effects.Load() != 1 {
		t.Fatalf("effects = %d, want 1", effects.Load())
	}
	if txsvc.Inflight() != 0 {
		t.Fatalf("inflight transactions = %d", txsvc.Inflight())
	}
}

func TestExactlyOnceRollsBackOnFailure(t *testing.T) {
	txsvc := ots.NewService()
	calls := 0
	a := ExactlyOnce(txsvc, ActionFunc(func(context.Context, Signal) (Outcome, error) {
		calls++
		if calls == 1 {
			return Outcome{}, errors.New("boom")
		}
		return Outcome{Name: "second-try"}, nil
	}))
	ctx := context.Background()
	sig := Signal{Name: "do", SetName: "s"}
	if _, err := a.ProcessSignal(ctx, sig); err == nil {
		t.Fatal("failure swallowed")
	}
	// Nothing memoized: a redelivery re-runs the action.
	out, err := a.ProcessSignal(ctx, sig)
	if err != nil || out.Name != "second-try" {
		t.Fatalf("out=%+v err=%v", out, err)
	}
	if txsvc.Inflight() != 0 {
		t.Fatalf("inflight transactions = %d", txsvc.Inflight())
	}
}
