//go:build !race

package core

import (
	"context"
	"fmt"
	"testing"
)

// TestAllocsMultiSetActivity gates an untraced activity's allocations per
// number of registered sets, each with two actions: the first sets are
// driven by Signal and the last is the completion set. One set costs 4
// allocs/op: the activity, which holds its first name's entry (1); the
// SequenceSet and its signals (2); and the registrations (1). Each further
// set costs the same, plus its entry on the heap (1), so two cost 8.
func TestAllocsMultiSetActivity(t *testing.T) {
	for _, c := range []struct{ sets, budget int }{{1, 4}, {2, 8}} {
		t.Run(fmt.Sprintf("sets=%d", c.sets), func(t *testing.T) {
			got := testing.AllocsPerRun(200, multiSetActivity(t, c.sets))
			if got > float64(c.budget) {
				t.Errorf("%.0f allocs/op, budget %d", got, c.budget)
			}
		})
	}
}

// multiSetActivity returns one run of an activity with sets registered
// sets named s0, s1, ..., two actions each, the last its completion set.
func multiSetActivity(t *testing.T, sets int) func() {
	ctx := context.Background()
	svc := New()
	names := make([]string, sets)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	return func() {
		a := svc.Begin("A")
		for _, name := range names {
			if err := a.RegisterSignalSet(NewSequenceSet(name, "go").Outcomes("done", "failed")); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				if _, err := a.AddAction(name, noopTestAction{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		a.SetCompletionSet(names[sets-1])
		for _, name := range names[:sets-1] {
			if _, err := a.Signal(ctx, name); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := a.Complete(ctx); err != nil {
			t.Fatal(err)
		}
	}
}
