package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/extendedtx/activityservice/internal/trace"
)

// TestAddActionRacingComplete races enrolments against Complete. An
// enrolment that Complete wins must be refused with ErrActivityInactive;
// one that wins must hear every signal of the completion set, never a
// later signal without the first (a twopc participant committed without
// being prepared).
func TestAddActionRacingComplete(t *testing.T) {
	const trials, enrolments = 3000, 4
	ctx := context.Background()
	for trial := 0; trial < trials; trial++ {
		a := New().Begin("A")
		if err := a.RegisterSignalSet(NewSequenceSet(DefaultCompletionSet, "prepare", "commit")); err != nil {
			t.Fatal(err)
		}
		actions := make([]collectingAction, enrolments)
		errs := make([]error, enrolments)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range actions {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				_, errs[i] = a.AddAction(DefaultCompletionSet, &actions[i])
			}()
		}
		close(start)
		if _, err := a.Complete(ctx); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		for i := range actions {
			got := actions[i].Signals()
			switch {
			case errors.Is(errs[i], ErrActivityInactive):
				if len(got) != 0 {
					t.Fatalf("trial %d: refused enrolment %d heard %v", trial, i, got)
				}
			case errs[i] != nil:
				t.Fatalf("trial %d: enrolment %d: %v", trial, i, errs[i])
			case len(got) != 2 || got[0].Name != "prepare" || got[1].Name != "commit":
				t.Fatalf("trial %d: accepted enrolment %d heard %v, want prepare then commit", trial, i, got)
			}
		}
	}
}

// TestSignalSetDrivenByOneCallerAtATime holds a Signal's first delivery
// while a second Signal, and a Complete whose completion set is the same
// set, try to drive that set: both are refused with ErrSignalSetActive
// before anything is delivered, and the activity stays active. The first
// drive then delivers every signal, one at a time, and once it has ended
// the set, a later drive is refused as ended, not as active.
func TestSignalSetDrivenByOneCallerAtATime(t *testing.T) {
	ctx := context.Background()
	a := New().Begin("A")
	if err := a.RegisterSignalSet(NewSequenceSet("s", "one", "two", "three")); err != nil {
		t.Fatal(err)
	}
	a.SetCompletionSet("s")
	entered, release := make(chan struct{}), make(chan struct{})
	var (
		mu                   sync.Mutex
		heard                []string
		inFlight, overlapped atomic.Int32
	)
	if _, err := a.AddAction("s", ActionFunc(func(_ context.Context, sig Signal) (Outcome, error) {
		if inFlight.Add(1) > 1 {
			overlapped.Add(1)
		}
		defer inFlight.Add(-1)
		mu.Lock()
		heard = append(heard, sig.Name)
		first := len(heard) == 1
		mu.Unlock()
		if first {
			close(entered)
			<-release
		}
		return Outcome{Name: "ok"}, nil
	})); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := a.Signal(ctx, "s")
		done <- err
	}()
	<-entered
	if _, err := a.Signal(ctx, "s"); !errors.Is(err, ErrSignalSetActive) {
		t.Errorf("second Signal: err = %v, want ErrSignalSetActive", err)
	}
	if _, err := a.Complete(ctx); !errors.Is(err, ErrSignalSetActive) {
		t.Errorf("Complete: err = %v, want ErrSignalSetActive", err)
	}
	if st := a.State(); st != ActivityActive {
		t.Errorf("state after refused Complete = %s, want %s", st, ActivityActive)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("first Signal: %v", err)
	}
	mu.Lock()
	got := slices.Clone(heard)
	mu.Unlock()
	if !slices.Equal(got, []string{"one", "two", "three"}) || overlapped.Load() != 0 {
		t.Fatalf("action heard %v with %d overlapping deliveries, want one, two, three one at a time", got, overlapped.Load())
	}
	for i := 0; i < 2; i++ { // the failed drive releases the set too
		if _, err := a.Signal(ctx, "s"); !errors.Is(err, ErrSignalSetInactive) {
			t.Fatalf("Signal after End: err = %v, want ErrSignalSetInactive", err)
		}
	}
}

// TestBroadcastSnapshotSurvivesRemoval has an Action enrol a new
// registration from inside ProcessSignal. The running broadcast delivers
// over the snapshot it took, so every action in it hears that signal
// exactly once and the newcomer does not hear it; the next signal reaches
// the newcomer too.
func TestBroadcastSnapshotSurvivesRemoval(t *testing.T) {
	for _, policy := range []DeliveryPolicy{{}, Parallel(), Tree(2)} {
		t.Run(policy.Mode.String(), func(t *testing.T) {
			act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
			const n, enroller = 6, 1
			var heard [n + 1]map[string]*atomic.Int32
			listen := func(i int) Action {
				heard[i] = map[string]*atomic.Int32{"sig-a": {}, "sig-b": {}}
				return ActionFunc(func(_ context.Context, sig Signal) (Outcome, error) {
					heard[i][sig.Name].Add(1)
					return Outcome{Name: "ok"}, nil
				})
			}
			var once sync.Once
			for i := 0; i < n; i++ {
				inner := listen(i)
				act.AddAction("s", ActionFunc(func(ctx context.Context, sig Signal) (Outcome, error) {
					if i == enroller {
						once.Do(func() { act.AddAction("s", listen(n)) })
					}
					return inner.ProcessSignal(ctx, sig)
				}))
			}
			set := NewSequenceSet("s", "sig-a", "sig-b")
			set.SetDelivery(policy)
			if _, err := act.transmit(context.Background(), set); err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= n; i++ {
				wantA := int32(1)
				if i == n {
					wantA = 0
				}
				if a, b := heard[i]["sig-a"].Load(), heard[i]["sig-b"].Load(); a != wantA || b != 1 {
					t.Errorf("action %d heard sig-a %d times and sig-b %d times, want %d and 1", i, a, b, wantA)
				}
			}
		})
	}
}

// TestDefaultTraceLabelsPinned pins the trace labels of mixed AddAction
// and AddNamedAction calls: default labels count "action-N" per
// coordinator, across sets, skipping explicitly named registrations (an
// empty name included), in every delivery mode.
func TestDefaultTraceLabelsPinned(t *testing.T) {
	for _, policy := range []DeliveryPolicy{{}, Parallel(), Tree(2)} {
		t.Run(policy.Mode.String(), func(t *testing.T) {
			rec := trace.New()
			a := New(WithTrace(rec), WithRetryPolicy(RetryPolicy{Attempts: 2})).Begin("A")
			set := NewSequenceSet("s", "go")
			set.SetDelivery(policy)
			if err := a.RegisterSignalSet(set); err != nil {
				t.Fatal(err)
			}
			ok := ActionFunc(func(context.Context, Signal) (Outcome, error) { return Outcome{Name: "ok"}, nil })
			failing := ActionFunc(func(context.Context, Signal) (Outcome, error) { return Outcome{}, errors.New("no") })
			enrol := []func() (ActionID, error){
				func() (ActionID, error) { return a.AddAction("s", ok) },
				func() (ActionID, error) { return a.AddNamedAction("s", "named", ok) },
				func() (ActionID, error) { return a.AddAction("other", ok) },
				func() (ActionID, error) { return a.AddNamedAction("s", "", ok) },
				func() (ActionID, error) { return a.AddAction("s", failing) },
			}
			for _, e := range enrol {
				if _, err := e(); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := a.Signal(context.Background(), "s"); err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range rec.Events() {
				got = append(got, fmt.Sprintf("%s|%s", trace.CompactEvent(e), e.Detail))
			}
			want := []string{
				"begin:A|root activity",
				"get_signal:A->s:go|",
				"transmit:A->action-1:go|",
				"set_response:action-1->s:ok|",
				"transmit:A->named:go|",
				"set_response:named->s:ok|",
				"transmit:A:go|",
				"set_response:->s:ok|",
				"transmit:A->action-3:go|",
				"transmit:A->action-3:go|retry 1",
				"set_response:action-3->s|error: no",
				"get_outcome:A->s:completed|",
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trace:\n%q\nwant:\n%q", got, want)
			}
		})
	}
}
