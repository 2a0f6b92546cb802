package opennested

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/extendedtx/activityservice/internal/core"
)

// fig9 builds the fig. 9 structure: top-level B nested (logically) inside
// top-level A, with !B compensating B if A fails after B committed.
func fig9(t *testing.T, svc *core.Service) (a, b *Enclosing, comp *CompensationAction, undone *atomic.Bool) {
	t.Helper()
	undone = &atomic.Bool{}
	var err error
	a, err = Begin(svc, "A", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err = Begin(svc, "B", a)
	if err != nil {
		t.Fatal(err)
	}
	comp, err = b.AddCompensation(svc, "!B", func(context.Context) error {
		undone.Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return a, b, comp, undone
}

func TestBCommitsACommits_NoCompensation(t *testing.T) {
	svc := core.New()
	ctx := context.Background()
	a, b, comp, undone := fig9(t, svc)

	// B commits: its completion propagates the compensation action to A.
	if _, err := b.Complete(ctx, true); err != nil {
		t.Fatal(err)
	}
	if comp.Done() || comp.Ran() {
		t.Fatal("compensation finished prematurely")
	}
	if a.Activity().ActionCount(SetName) != 1 {
		t.Fatal("compensation did not propagate to A")
	}
	// A commits: Success signal, no compensation.
	if _, err := a.Complete(ctx, true); err != nil {
		t.Fatal(err)
	}
	if undone.Load() {
		t.Fatal("compensation ran although both committed")
	}
	if !comp.Done() {
		t.Fatal("compensation action not retired")
	}
}

func TestBCommitsARollsBack_CompensationRuns(t *testing.T) {
	svc := core.New()
	ctx := context.Background()
	a, b, comp, undone := fig9(t, svc)

	if _, err := b.Complete(ctx, true); err != nil {
		t.Fatal(err)
	}
	// A rolls back: the propagated action receives Failure and runs !B.
	out, err := a.Complete(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != SignalFailure {
		t.Fatalf("A outcome = %+v", out)
	}
	if !undone.Load() || !comp.Ran() {
		t.Fatal("compensation did not run")
	}
}

func TestBRollsBack_NoCompensationEver(t *testing.T) {
	svc := core.New()
	ctx := context.Background()
	a, b, comp, undone := fig9(t, svc)

	// B rolls back: Failure before propagation → the action retires.
	if _, err := b.Complete(ctx, false); err != nil {
		t.Fatal(err)
	}
	if !comp.Done() {
		t.Fatal("action not retired after B's failure")
	}
	if undone.Load() {
		t.Fatal("compensation ran for a transaction that never committed")
	}
	// A's outcome is then irrelevant to B.
	if _, err := a.Complete(ctx, false); err != nil {
		t.Fatal(err)
	}
	if undone.Load() {
		t.Fatal("compensation ran after retirement")
	}
}

func TestBRollsBackACommits(t *testing.T) {
	svc := core.New()
	ctx := context.Background()
	a, b, _, undone := fig9(t, svc)
	if _, err := b.Complete(ctx, false); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Complete(ctx, true); err != nil {
		t.Fatal(err)
	}
	if undone.Load() {
		t.Fatal("compensation ran")
	}
}

// TestFig9Matrix runs the full commit/rollback matrix the paper's §4.2
// walks through; compensation must run in exactly one quadrant.
func TestFig9Matrix(t *testing.T) {
	tests := []struct {
		name           string
		bCommits       bool
		aCommits       bool
		wantCompensate bool
	}{
		{name: "B commits, A commits", bCommits: true, aCommits: true, wantCompensate: false},
		{name: "B commits, A aborts", bCommits: true, aCommits: false, wantCompensate: true},
		{name: "B aborts, A commits", bCommits: false, aCommits: true, wantCompensate: false},
		{name: "B aborts, A aborts", bCommits: false, aCommits: false, wantCompensate: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			svc := core.New()
			ctx := context.Background()
			a, b, _, undone := fig9(t, svc)
			if _, err := b.Complete(ctx, tt.bCommits); err != nil {
				t.Fatal(err)
			}
			if _, err := a.Complete(ctx, tt.aCommits); err != nil {
				t.Fatal(err)
			}
			if undone.Load() != tt.wantCompensate {
				t.Fatalf("compensated = %v, want %v", undone.Load(), tt.wantCompensate)
			}
		})
	}
}

func TestChainedPropagation(t *testing.T) {
	// Three levels: C inside B inside A. C commits (propagates to B), B
	// commits (propagates to A), A fails → C's compensation runs.
	svc := core.New()
	ctx := context.Background()
	a, err := Begin(svc, "A", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Begin(svc, "B", a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Begin(svc, "C", b)
	if err != nil {
		t.Fatal(err)
	}
	var compensated atomic.Bool
	if _, err := c.AddCompensation(svc, "!C", func(context.Context) error {
		compensated.Store(true)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Complete(ctx, true); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Complete(ctx, true); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Complete(ctx, false); err != nil {
		t.Fatal(err)
	}
	if !compensated.Load() {
		t.Fatal("deep compensation did not run")
	}
}

func TestCompensationFailureSurfaces(t *testing.T) {
	svc := core.New()
	ctx := context.Background()
	a, _ := Begin(svc, "A", nil)
	b, _ := Begin(svc, "B", a)
	if _, err := b.AddCompensation(svc, "!B", func(context.Context) error {
		return errors.New("cannot undo")
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Complete(ctx, true); err != nil {
		t.Fatal(err)
	}
	// The compensation fails; the completion set records the delivery
	// error but the activity still completes (fail outcome).
	out, err := a.Complete(ctx, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != SignalFailure {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestPropagateToDeadActivityFails(t *testing.T) {
	svc := core.New()
	ctx := context.Background()
	a, _ := Begin(svc, "A", nil)
	b, _ := Begin(svc, "B", a)
	comp, _ := b.AddCompensation(svc, "!B", func(context.Context) error { return nil })
	// A completes first; B's propagation then has no live target.
	if _, err := a.Complete(ctx, true); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Complete(ctx, true); err != nil {
		t.Fatal(err)
	}
	if comp.Ran() {
		t.Fatal("compensation ran")
	}
}

func TestMultipleCompensationsPropagate(t *testing.T) {
	// Several open-nested transactions inside A, all commit, A fails: all
	// compensations run (fig. 2's tc1 generalised).
	svc := core.New()
	ctx := context.Background()
	a, _ := Begin(svc, "A", nil)
	var ran [3]atomic.Bool
	for i := 0; i < 3; i++ {
		i := i
		b, err := Begin(svc, "B", a)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := b.AddCompensation(svc, "!B", func(context.Context) error {
			ran[i].Store(true)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Complete(ctx, true); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Complete(ctx, false); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("compensation %d did not run", i)
		}
	}
}
