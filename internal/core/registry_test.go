package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"github.com/extendedtx/activityservice/internal/trace"
)

// enrolled is one registration a registry test expects to find.
type enrolled struct {
	label string // what its action records when signalled
	named bool   // registered with AddNamedAction under label
}

// TestRegistryManySetNames spreads registrations over more set names than
// any reserved room, interleaving default-labelled and named enrolments
// across the names, and checks that each set keeps its own registration
// order, count and labels, and delivers in that order.
func TestRegistryManySetNames(t *testing.T) {
	act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
	const names = 11
	setName := func(i int) string { return fmt.Sprintf("set-%d", i) }
	var mu sync.Mutex
	heard := map[string][]string{}
	recorder := func(set, label string) Action {
		return ActionFunc(func(context.Context, Signal) (Outcome, error) {
			mu.Lock()
			heard[set] = append(heard[set], label)
			mu.Unlock()
			return Outcome{Name: "ok"}, nil
		})
	}
	want := map[string][]enrolled{}
	for round := 0; round < 7; round++ {
		for n := 0; n < names; n++ {
			name := setName(n)
			e := enrolled{label: fmt.Sprintf("%s/r%d", name, round), named: (round+n)%2 == 1}
			if e.named {
				act.AddNamedAction(name, e.label, recorder(name, e.label))
			} else {
				act.AddAction(name, recorder(name, e.label))
			}
			want[name] = append(want[name], e)
		}
	}

	for n := 0; n < names; n++ {
		name := setName(n)
		regs := act.actions(name)
		if len(regs) != len(want[name]) || act.ActionCount(name) != len(want[name]) {
			t.Fatalf("%s: %d registrations, ActionCount %d, want %d", name, len(regs), act.ActionCount(name), len(want[name]))
		}
		for i, e := range want[name] {
			if !e.named && regs[i].seq == 0 {
				t.Fatalf("%s: registration %d has no default label", name, i)
			}
			if e.named && regs[i].name() != e.label {
				t.Fatalf("%s: registration %d labelled %q, want %q", name, i, regs[i].name(), e.label)
			}
		}
	}
	if act.ActionCount("no-such-set") != 0 || act.actions("no-such-set") != nil {
		t.Fatal("an unknown set name has registrations")
	}

	for n := 0; n < names; n++ {
		name := setName(n)
		if _, err := act.transmit(context.Background(), NewSequenceSet(name, "ping")); err != nil {
			t.Fatal(err)
		}
		var labels []string
		for _, e := range want[name] {
			labels = append(labels, e.label)
		}
		if !slices.Equal(heard[name], labels) {
			t.Fatalf("%s delivered to %v, want %v", name, heard[name], labels)
		}
	}
}

// TestRegistrySnapshotOutlivesMutation takes the snapshot a broadcast
// delivers over, then appends within the set's reserved room and grows the
// table of set names: the snapshot is unchanged by each.
func TestRegistrySnapshotOutlivesMutation(t *testing.T) {
	act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
	act.AddAction("s", tagAction(1))
	act.AddAction("s", tagAction(2))
	snap := act.actions("s")
	want := []Action{tagAction(1), tagAction(2)}

	act.AddAction("s", tagAction(3)) // fits the reserved room
	if got := regActions(snap); !slices.Equal(got, want) {
		t.Fatalf("after an append: snapshot %v, want %v", got, want)
	}
	for i := 0; i < 9; i++ {
		act.AddAction(fmt.Sprintf("other-%d", i), noopTestAction{})
	}
	act.AddAction("s", tagAction(4))
	if got := regActions(snap); !slices.Equal(got, want) {
		t.Fatalf("after new set names: snapshot %v, want %v", got, want)
	}
	if got, now := regActions(act.actions("s")), []Action{tagAction(1), tagAction(2), tagAction(3), tagAction(4)}; !slices.Equal(got, now) {
		t.Fatalf("current registrations %v, want %v", got, now)
	}
}

// TestRegistryDriverReusedForSetDrivenTwice drives one set, grows the
// table of set names, and drives it again: the second run finds the same
// ended entry and is refused, while a fresh instance of the same name is
// refused registration and never driven.
func TestRegistryDriverReusedForSetDrivenTwice(t *testing.T) {
	ctx := context.Background()
	act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
	act.AddAction("s", noopTestAction{})
	set := NewSequenceSet("s", "ping")
	if act.SetState(set) != StateWaiting {
		t.Fatalf("undriven set in state %s", act.SetState(set))
	}
	if _, err := act.transmit(ctx, set); err != nil {
		t.Fatal(err)
	}
	d := act.entryOf("s")
	for i := 0; i < 9; i++ {
		act.AddAction(fmt.Sprintf("other-%d", i), noopTestAction{})
		if err := act.RegisterSignalSet(NewSequenceSet(fmt.Sprintf("other-%d", i), "x")); err != nil {
			t.Fatal(err)
		}
	}
	if act.entryOf("s") != d {
		t.Fatal("a set driven twice got a second driver")
	}
	if act.SetState(set) != StateEnd {
		t.Fatalf("driven set in state %s, want %s", act.SetState(set), StateEnd)
	}
	if _, err := act.transmit(ctx, set); !errors.Is(err, ErrSignalSetInactive) {
		t.Fatalf("second drive: err = %v, want ErrSignalSetInactive", err)
	}
	fresh := NewSequenceSet("s", "ping")
	if act.SetState(fresh) != StateWaiting {
		t.Fatalf("fresh instance in state %s", act.SetState(fresh))
	}
	if _, err := act.transmit(ctx, fresh); !errors.Is(err, ErrDuplicateSignalSet) {
		t.Fatalf("fresh instance: err = %v, want ErrDuplicateSignalSet", err)
	}
	if act.entryOf("s") != d || d.set != SignalSet(set) || act.SetState(fresh) != StateWaiting {
		t.Fatal("two instances of one set name share a driver")
	}
}

// TestRegistryDuplicateSignalSetAmongMany registers sets under many names
// and refuses a second set under any of them, oldest, middle or newest; the
// registered instance stays the one found.
func TestRegistryDuplicateSignalSetAmongMany(t *testing.T) {
	a := New().Begin("A")
	sets := make([]*SequenceSet, 10)
	for i := range sets {
		sets[i] = NewSequenceSet(fmt.Sprintf("s%d", i), "x")
		if err := a.RegisterSignalSet(sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{0, 5, 9} {
		name := sets[i].Name()
		if err := a.RegisterSignalSet(NewSequenceSet(name, "y")); !errors.Is(err, ErrDuplicateSignalSet) {
			t.Fatalf("duplicate %s: err = %v, want ErrDuplicateSignalSet", name, err)
		}
		if got, ok := a.SignalSet(name); !ok || got != SignalSet(sets[i]) {
			t.Fatalf("SignalSet(%s) = %v, %v; want the first registered", name, got, ok)
		}
	}
	if _, ok := a.SignalSet("s10"); ok {
		t.Fatal("an unregistered name was found")
	}
}

// TestConcurrentRegistrationAcrossSetNames races enrolment, one by one and
// in runs, and set registration against snapshots and state lookups over
// overlapping set names, more of them than any reserved room, so the table of entries
// grows while others read it. Each snapshot must stay as it was taken, and
// every set ends with the exact count. Run under -race it pins the
// registry's locking.
func TestConcurrentRegistrationAcrossSetNames(t *testing.T) {
	act := beginTraced("race", nil, RetryPolicy{Attempts: 1})
	const (
		names   = 12
		workers = 4
		adds    = 20 // one by one, per worker per name
		run     = 3  // then in one run
	)
	setName := func(i int) string { return fmt.Sprintf("set-%d", i) }
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // a reader: snapshots never change under it
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := setName(i % names)
			snap := act.actions(name)
			before := regActions(snap)
			act.SetState(NewSequenceSet(name, "x"))
			act.ActionCount(name)
			if after := regActions(snap); !slices.Equal(before, after) {
				t.Errorf("%s: snapshot changed from %v to %v", name, before, after)
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for k := 0; k < names; k++ {
				name := setName((k + w*3) % names)
				tag := func(i int) tagAction { return tagAction((w*names+k)*(adds+run) + i) }
				for i := 0; i < adds; i++ {
					if i%2 == 0 {
						act.AddAction(name, tag(i))
					} else {
						act.AddNamedAction(name, "n", tag(i))
					}
				}
				act.AddActions(name, tag(adds), tag(adds+1), tag(adds+2))
				// Only the first registration under a name succeeds.
				_ = act.RegisterSignalSet(NewSequenceSet(name, "x"))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	for n := 0; n < names; n++ {
		if got, want := act.ActionCount(setName(n)), workers*(adds+run); got != want {
			t.Fatalf("%s: %d registrations, want %d", setName(n), got, want)
		}
	}
}

// TestDifferentialEnrolRunMatchesOneByOne enrols the same generated
// actions by one AddActions call and by one AddAction per action, after a
// default-labelled enrolment in another set that offsets the numbering,
// and completes the activity. Under serial, Parallel() and Tree(4)
// delivery both must leave byte-identical traces (default labels
// included), responses, collated outcomes and failure choices.
func TestDifferentialEnrolRunMatchesOneByOne(t *testing.T) {
	complete := func(policy DeliveryPolicy, sh declShape, asRun bool) broadcastResult {
		rec := trace.New()
		a := New(WithTrace(rec)).Begin("A")
		set := shapeSet(sh, policy)
		if err := a.RegisterSignalSet(set); err != nil {
			t.Fatal(err)
		}
		a.SetCompletionSet("s")
		if _, err := a.AddAction("other", noopTestAction{}); err != nil {
			t.Fatal(err)
		}
		actions := make([]Action, len(sh.script))
		for i := range actions {
			actions[i] = shapeAction(sh, i, nil)
		}
		if asRun {
			if err := a.AddActions("s", actions...); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, action := range actions {
				if _, err := a.AddAction("s", action); err != nil {
					t.Fatal(err)
				}
			}
		}
		if n := a.ActionCount("s"); n != len(actions) {
			t.Fatalf("%d registrations, want %d", n, len(actions))
		}
		out, err := a.Complete(context.Background())
		if err != nil {
			t.Fatalf("Complete(%s): %v", policy.Mode, err)
		}
		return shapeResult(t, out, set, rec)
	}
	f := func(nSignals, nActions, decl uint8, scriptSeed int64) bool {
		sh := genShape(int(nSignals%4)+1, int(nActions%16)+1, decl, scriptSeed)
		for _, policy := range []DeliveryPolicy{{}, Parallel(), Tree(4)} {
			run, one := complete(policy, sh, true), complete(policy, sh, false)
			if !bytes.Equal(run.outcome, one.outcome) || !bytes.Equal(run.responses, one.responses) || run.failed != one.failed {
				t.Logf("shape %+v, %s: run outcome=%x responses=%x failed=%v, one by one outcome=%x responses=%x failed=%v",
					sh, policy.Mode, run.outcome, run.responses, run.failed, one.outcome, one.responses, one.failed)
				return false
			}
			if !slices.Equal(run.trace, one.trace) {
				t.Logf("shape %+v, %s: trace mismatch:\nrun:\n%s\none by one:\n%s", sh, policy.Mode,
					strings.Join(run.trace, "\n"), strings.Join(one.trace, "\n"))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEnrolRunRefusedOnceCompleting checks the completion gate holds for a
// run as a whole: a run enrolled before Complete hears the completion set,
// one after it is refused with none of its actions enrolled.
func TestEnrolRunRefusedOnceCompleting(t *testing.T) {
	a := New().Begin("A")
	var heard atomic.Int32
	hear := ActionFunc(func(context.Context, Signal) (Outcome, error) {
		heard.Add(1)
		return Outcome{Name: "ok"}, nil
	})
	if err := a.RegisterSignalSet(NewSequenceSet(DefaultCompletionSet, "go")); err != nil {
		t.Fatal(err)
	}
	if err := a.AddActions(DefaultCompletionSet, hear, hear, hear); err != nil {
		t.Fatal(err)
	}
	if err := a.AddActions(DefaultCompletionSet); err != nil {
		t.Fatalf("empty run: %v", err)
	}
	if _, err := a.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := a.AddActions(DefaultCompletionSet, hear, hear); !errors.Is(err, ErrActivityInactive) {
		t.Fatalf("run after Complete: err = %v, want ErrActivityInactive", err)
	}
	if n, c := heard.Load(), a.ActionCount(DefaultCompletionSet); n != 3 || c != 3 {
		t.Fatalf("%d deliveries over %d registrations, want 3 and 3", n, c)
	}
}

// TestInlineRoomSpillMatchesAcrossPolicies drives an activity past its
// inline room: two registered sets, enrolments under three set names, a
// set driven by Signal before Complete, and the completion set. The first
// name's entry must stay in the activity's room and every later one on
// the heap, each set ending in its own entry; serial, Parallel() and
// Tree(4) delivery must leave byte-identical traces, responses, outcomes
// and set states.
func TestInlineRoomSpillMatchesAcrossPolicies(t *testing.T) {
	// drive returns what each set was left with, in the order pre, the
	// completion set, and the two sets' states.
	drive := func(policy DeliveryPolicy, sh declShape) ([]broadcastResult, []SetState) {
		ctx := context.Background()
		rec := trace.New()
		a := New(WithTrace(rec)).Begin("A")
		pre := NewSequenceSet("pre", "p1", "p2")
		pre.SetDelivery(policy)
		set := shapeSet(sh, policy)
		for _, s := range []SignalSet{pre, set} {
			if err := a.RegisterSignalSet(s); err != nil {
				t.Fatal(err)
			}
		}
		a.SetCompletionSet("s")
		if _, err := a.AddNamedAction("pre", "early", okAction()); err != nil {
			t.Fatal(err)
		}
		for i := range sh.script {
			if _, err := a.AddAction("s", shapeAction(sh, i, nil)); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.AddActions("other", noopTestAction{}, noopTestAction{}); err != nil {
			t.Fatal(err)
		}
		preOut, err := a.Signal(ctx, "pre")
		if err != nil {
			t.Fatal(err)
		}
		out, err := a.Complete(ctx)
		if err != nil {
			t.Fatalf("Complete(%s): %v", policy.Mode, err)
		}
		entries := 0
		for e := a.entries; e != nil; e = e.next {
			entries++
		}
		if first, s := a.entryOf("pre"), a.entryOf("s"); entries != 3 || first != &a.firstEntry || s == &a.firstEntry || a.entryOf("other") == &a.firstEntry {
			t.Fatalf("%s: %d entries, want 3, the first in the activity's room and the rest spilled past it", policy.Mode, entries)
		}
		results := []broadcastResult{shapeResult(t, preOut, pre, rec), shapeResult(t, out, set, rec)}
		states := []SetState{a.SetState(pre), a.SetState(set)}
		return results, states
	}
	f := func(nSignals, nActions, decl uint8, scriptSeed int64) bool {
		sh := genShape(int(nSignals%4)+1, int(nActions%16)+1, decl, scriptSeed)
		serial, serialStates := drive(DeliveryPolicy{}, sh)
		if !slices.Equal(serialStates, []SetState{StateEnd, StateEnd}) {
			t.Fatalf("serial: set states %v, want every set ended in its own entry", serialStates)
		}
		for _, policy := range concurrentPolicies {
			got, states := drive(policy, sh)
			if !slices.Equal(serialStates, states) {
				t.Logf("shape %+v, %s: set states %v, serial %v", sh, policy.Mode, states, serialStates)
				return false
			}
			for i := range serial {
				s, g := serial[i], got[i]
				if !bytes.Equal(s.outcome, g.outcome) || !bytes.Equal(s.responses, g.responses) || s.failed != g.failed {
					t.Logf("shape %+v, %s, set %d: serial outcome=%x responses=%x failed=%v, got outcome=%x responses=%x failed=%v",
						sh, policy.Mode, i, s.outcome, s.responses, s.failed, g.outcome, g.responses, g.failed)
					return false
				}
			}
			if !slices.Equal(serial[1].trace, got[1].trace) {
				t.Logf("shape %+v, %s: trace mismatch:\nserial:\n%s\n%s:\n%s", sh, policy.Mode,
					strings.Join(serial[1].trace, "\n"), policy.Mode, strings.Join(got[1].trace, "\n"))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
