package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
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
	act := beginTraced("A", nil, RetryPolicy{Attempts: 3})
	act.AddAction("s", Idempotent(inner))
	set := NewSequenceSet("s", "one", "two")
	if _, err := act.transmit(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	if effects.Load() != 2 {
		t.Fatalf("effects = %d, want 2 (one per distinct signal)", effects.Load())
	}
}
