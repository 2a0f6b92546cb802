package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/trace"
)

// beginTraced begins an activity named owner on a service of its own that
// traces into rec and retries per retry. The trace of the begin itself is
// dropped, so rec holds only what the activity's drives record.
func beginTraced(owner string, rec *trace.Recorder, retry RetryPolicy) *Activity {
	a := New(WithTrace(rec), WithRetryPolicy(retry)).Begin(owner)
	rec.Reset()
	return a
}

// transmit registers set with a, unless it is the set registered under its
// name already, and drives it with Signal.
func (a *Activity) transmit(ctx context.Context, set SignalSet) (Outcome, error) {
	if got, ok := a.SignalSet(set.Name()); !ok || got != set {
		if err := a.RegisterSignalSet(set); err != nil {
			return Outcome{}, err
		}
	}
	return a.Signal(ctx, set.Name())
}

// entryOf returns name's entry, nil if it has none.
func (a *Activity) entryOf(name string) *setEntry {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.entry(name)
}

// tagAction is an Action a registry test can tell apart from every other
// tag: registrations carry no identity of their own.
type tagAction int

// ProcessSignal implements Action.
func (tagAction) ProcessSignal(context.Context, Signal) (Outcome, error) {
	return Outcome{Name: "ok"}, nil
}

// regActions lists a snapshot's actions, in order.
func regActions(regs []registration) []Action {
	out := make([]Action, len(regs))
	for i := range regs {
		out[i] = regs[i].action
	}
	return out
}

// collectingAction records the signals it receives.
type collectingAction struct {
	mu      sync.Mutex
	name    string
	signals []Signal
	outcome Outcome
	fail    int // fail this many deliveries before succeeding
}

func (c *collectingAction) ProcessSignal(_ context.Context, sig Signal) (Outcome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail > 0 {
		c.fail--
		return Outcome{}, fmt.Errorf("%s: transient failure", c.name)
	}
	c.signals = append(c.signals, sig)
	out := c.outcome
	if out.Name == "" {
		out = Outcome{Name: "ok"}
	}
	return out, nil
}

func (c *collectingAction) Signals() []Signal {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Signal(nil), c.signals...)
}

func TestCoordinatorBroadcastsToAllActionsInOrder(t *testing.T) {
	rec := trace.New()
	act := beginTraced("A", rec, RetryPolicy{Attempts: 1})
	var order []string
	var mu sync.Mutex
	for _, name := range []string{"a1", "a2", "a3"} {
		name := name
		act.AddNamedAction("set", name, ActionFunc(func(_ context.Context, sig Signal) (Outcome, error) {
			mu.Lock()
			order = append(order, name+":"+sig.Name)
			mu.Unlock()
			return Outcome{Name: "done"}, nil
		}))
	}
	set := NewSequenceSet("set", "s1", "s2")
	if _, err := act.transmit(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1:s1", "a2:s1", "a3:s1", "a1:s2", "a2:s2", "a3:s2"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCoordinatorFeedsEveryResponse(t *testing.T) {
	act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
	for i := 0; i < 4; i++ {
		act.AddAction("set", &collectingAction{name: fmt.Sprintf("a%d", i)})
	}
	set := NewSequenceSet("set", "only")
	if _, err := act.transmit(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	if got := len(set.Responses()); got != 4 {
		t.Fatalf("set received %d responses, want 4", got)
	}
}

// advanceSet asks the coordinator to cut the broadcast short after the
// first response to "probe", then sends "final".
type advanceSet struct {
	BaseSet

	mu    sync.Mutex
	stage int
	resps []Outcome
}

func (s *advanceSet) GetSignal() (Signal, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.stage {
	case 0:
		s.stage = 1
		return Signal{Name: "probe", SetName: s.Name()}, false, nil
	case 1:
		s.stage = 2
		return Signal{Name: "final", SetName: s.Name()}, true, nil
	default:
		return Signal{}, false, ErrExhausted
	}
}

func (s *advanceSet) SetResponse(resp Outcome, _ error) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resps = append(s.resps, resp)
	// Advance as soon as the first probe response arrives.
	return s.stage == 1, nil
}

func (s *advanceSet) GetOutcome() (Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Outcome{Name: "advanced", Data: int64(len(s.resps))}, nil
}

func TestCoordinatorHonoursEarlyAdvance(t *testing.T) {
	act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
	a1 := &collectingAction{name: "a1"}
	a2 := &collectingAction{name: "a2"}
	act.AddNamedAction("adv", "a1", a1)
	act.AddNamedAction("adv", "a2", a2)
	set := &advanceSet{BaseSet: NewBaseSet("adv")}
	out, err := act.transmit(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	// probe went only to a1 (advance cut the broadcast); final to both.
	if sigs := a1.Signals(); len(sigs) != 2 || sigs[0].Name != "probe" || sigs[1].Name != "final" {
		t.Fatalf("a1 signals = %v", sigs)
	}
	if sigs := a2.Signals(); len(sigs) != 1 || sigs[0].Name != "final" {
		t.Fatalf("a2 signals = %v", sigs)
	}
	if out.Name != "advanced" || out.Data != int64(3) {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestCoordinatorAtLeastOnceRetry(t *testing.T) {
	act := beginTraced("A", nil, RetryPolicy{Attempts: 3})
	flaky := &collectingAction{name: "flaky", fail: 2}
	act.AddAction("set", flaky)
	set := NewSequenceSet("set", "ping")
	if _, err := act.transmit(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	if sigs := flaky.Signals(); len(sigs) != 1 {
		t.Fatalf("flaky processed %d signals, want 1 (after retries)", len(sigs))
	}
	rs := set.Responses()
	if len(rs) != 1 || rs[0].Name != "ok" {
		t.Fatalf("responses = %v", rs)
	}
}

func TestCoordinatorDeliveryFailureReachesSet(t *testing.T) {
	act := beginTraced("A", nil, RetryPolicy{Attempts: 2})
	dead := &collectingAction{name: "dead", fail: 99}
	act.AddAction("set", dead)
	set := NewSequenceSet("set", "ping")
	if _, err := act.transmit(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	rs := set.Responses()
	if len(rs) != 1 || rs[0].Name != "delivery-error" {
		t.Fatalf("responses = %v", rs)
	}
}

func TestActionsRegisterWithSetsNotSignals(t *testing.T) {
	// Fig. 6 multiplicity: one action may register with several sets, and
	// an activity may use several sets over its lifetime.
	act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
	shared := &collectingAction{name: "shared"}
	act.AddAction("setA", shared)
	act.AddAction("setB", shared)
	for _, set := range []*SequenceSet{NewSequenceSet("setA", "x"), NewSequenceSet("setB", "y", "z")} {
		if _, err := act.transmit(context.Background(), set); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(shared.Signals()); got != 3 {
		t.Fatalf("shared action received %d signals, want 3", got)
	}
}

// TestFig8TwoPhaseCommitTrace reproduces the exact exchange of fig. 8:
// get_signal / prepare→A1 / set_response / prepare→A2 / set_response /
// get_signal / commit→A1 / set_response / commit→A2 / set_response /
// get_outcome.
func TestFig8TwoPhaseCommitTrace(t *testing.T) {
	rec := trace.New()
	act := beginTraced("coordinator", rec, RetryPolicy{Attempts: 1})
	for _, n := range []string{"action1", "action2"} {
		act.AddNamedAction("2pc", n, ActionFunc(func(context.Context, Signal) (Outcome, error) {
			return Outcome{Name: "done"}, nil
		}))
	}
	set := NewSequenceSet("2pc", "prepare", "commit")
	if _, err := act.transmit(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"get_signal:coordinator->2pc:prepare",
		"transmit:coordinator->action1:prepare",
		"set_response:action1->2pc:done",
		"transmit:coordinator->action2:prepare",
		"set_response:action2->2pc:done",
		"get_signal:coordinator->2pc:commit",
		"transmit:coordinator->action1:commit",
		"set_response:action1->2pc:done",
		"transmit:coordinator->action2:commit",
		"set_response:action2->2pc:done",
		"get_outcome:coordinator->2pc:completed",
	}
	got := rec.Sequence()
	if len(got) != len(want) {
		t.Fatalf("trace length %d, want %d:\n%v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q\nfull: %v", i, got[i], want[i], got)
		}
	}
}

func TestCoordinatorErrorOnBrokenSet(t *testing.T) {
	act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
	set := &brokenSet{BaseSet: NewBaseSet("broken")}
	if _, err := act.transmit(context.Background(), set); err == nil {
		t.Fatal("broken set did not error")
	}
}

type brokenSet struct {
	BaseSet
}

func (b *brokenSet) GetSignal() (Signal, bool, error) {
	return Signal{}, false, errors.New("internal fault")
}

func (b *brokenSet) SetResponse(Outcome, error) (bool, error) { return false, nil }

func (b *brokenSet) GetOutcome() (Outcome, error) { return Outcome{}, nil }

// TestCoordinatorConcurrentRegistrationStress hammers the registration
// map from many goroutines — concurrent enrolment and ActionCount across
// many sets — and then verifies no registration was lost: the exact count
// per set, each in one worker's enrolment order. Run under -race this also
// pins the map's locking.
func TestCoordinatorConcurrentRegistrationStress(t *testing.T) {
	act := beginTraced("stress", nil, RetryPolicy{Attempts: 1})
	const (
		sets      = 48
		workers   = 8
		perWorker = 30 // adds per worker per set
	)
	setName := func(i int) string { return fmt.Sprintf("set-%d", i) }

	var wg sync.WaitGroup
	added := make([][]Action, workers) // per worker, all sets in order
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := 0; s < sets; s++ {
				name := setName(s)
				for i := 0; i < perWorker; i++ {
					tag := tagAction(len(added[w]) + w*sets*perWorker)
					act.AddAction(name, tag)
					added[w] = append(added[w], tag)
					act.ActionCount(name) // reader mixed into the storm
				}
			}
		}(w)
	}
	wg.Wait()

	owner := make(map[Action]int, workers*sets*perWorker)
	for w, tags := range added {
		for _, tag := range tags {
			owner[tag] = w
		}
	}
	for s := 0; s < sets; s++ {
		regs := act.actions(setName(s))
		if got, want := len(regs), workers*perWorker; got != want || act.ActionCount(setName(s)) != want {
			t.Fatalf("set %s: %d registrations, want %d", setName(s), got, want)
		}
		// Each worker's enrolments keep their order within the set.
		seen := make([][]Action, workers)
		for _, tag := range regActions(regs) {
			seen[owner[tag]] = append(seen[owner[tag]], tag)
		}
		for w := range seen {
			if mine := added[w][s*perWorker : (s+1)*perWorker]; !slices.Equal(seen[w], mine) {
				t.Fatalf("set %s: worker %d's registrations %v, want %v", setName(s), w, seen[w], mine)
			}
		}
	}
}

// noopTestAction is a minimal Action for registration-only tests.
type noopTestAction struct{}

// ProcessSignal implements Action.
func (noopTestAction) ProcessSignal(context.Context, Signal) (Outcome, error) {
	return Outcome{Name: "ok"}, nil
}
