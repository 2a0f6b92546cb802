package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

// regIDs lists a snapshot's registration ids, in order.
func regIDs(regs []registration) []ActionID {
	out := make([]ActionID, len(regs))
	for i := range regs {
		out[i] = regs[i].id
	}
	return out
}

// enrolled is one registration a registry test expects to find.
type enrolled struct {
	id    ActionID
	label string // what its action records when signalled
	named bool   // registered with AddNamedAction under label
}

// TestRegistryManySetNames spreads registrations over more set names than
// any reserved room, interleaving default-labelled and named enrolments
// across the names, and checks that each set keeps its own registration
// order, count and labels, and delivers in that order.
func TestRegistryManySetNames(t *testing.T) {
	coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1})
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
				e.id = coord.addNamedAction(name, e.label, recorder(name, e.label))
			} else {
				e.id = coord.addAction(name, recorder(name, e.label))
			}
			want[name] = append(want[name], e)
		}
	}

	for n := 0; n < names; n++ {
		name := setName(n)
		regs := coord.actions(name)
		if len(regs) != len(want[name]) || coord.ActionCount(name) != len(want[name]) {
			t.Fatalf("%s: %d registrations, ActionCount %d, want %d", name, len(regs), coord.ActionCount(name), len(want[name]))
		}
		for i, e := range want[name] {
			if regs[i].id != e.id {
				t.Fatalf("%s: registration %d is %v, want %v", name, i, regs[i].id, e.id)
			}
			if e.named && regs[i].name() != e.label {
				t.Fatalf("%s: registration %d labelled %q, want %q", name, i, regs[i].name(), e.label)
			}
		}
	}
	if coord.ActionCount("no-such-set") != 0 || coord.actions("no-such-set") != nil {
		t.Fatal("an unknown set name has registrations")
	}

	for n := 0; n < names; n++ {
		name := setName(n)
		if _, err := coord.processSignalSet(context.Background(), NewSequenceSet(name, "ping")); err != nil {
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
	coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1})
	a := coord.addAction("s", noopTestAction{})
	b := coord.addAction("s", noopTestAction{})
	snap := coord.actions("s")
	want := []ActionID{a, b}

	c := coord.addAction("s", noopTestAction{}) // fits the reserved room
	if got := regIDs(snap); !slices.Equal(got, want) {
		t.Fatalf("after an append: snapshot %v, want %v", got, want)
	}
	for i := 0; i < 9; i++ {
		coord.addAction(fmt.Sprintf("other-%d", i), noopTestAction{})
	}
	d := coord.addAction("s", noopTestAction{})
	if got := regIDs(snap); !slices.Equal(got, want) {
		t.Fatalf("after new set names: snapshot %v, want %v", got, want)
	}
	if got, now := regIDs(coord.actions("s")), []ActionID{a, b, c, d}; !slices.Equal(got, now) {
		t.Fatalf("current registrations %v, want %v", got, now)
	}
}

// TestRegistryDriverReusedForSetDrivenTwice drives one set instance, grows
// the table of set names, and drives it again: the second run finds the
// same ended driver and is refused, while a fresh instance of the same name
// gets its own.
func TestRegistryDriverReusedForSetDrivenTwice(t *testing.T) {
	ctx := context.Background()
	coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1})
	coord.addAction("s", noopTestAction{})
	set := NewSequenceSet("s", "ping")
	if coord.SetState(set) != StateWaiting {
		t.Fatalf("undriven set in state %s", coord.SetState(set))
	}
	d := coord.driverFor(set)
	if _, err := coord.processSignalSet(ctx, set); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		coord.addAction(fmt.Sprintf("other-%d", i), noopTestAction{})
		coord.driverFor(NewSequenceSet(fmt.Sprintf("other-%d", i), "x"))
	}
	if coord.driverFor(set) != d {
		t.Fatal("a set driven twice got a second driver")
	}
	if coord.SetState(set) != StateEnd {
		t.Fatalf("driven set in state %s, want %s", coord.SetState(set), StateEnd)
	}
	if _, err := coord.processSignalSet(ctx, set); !errors.Is(err, ErrSignalSetInactive) {
		t.Fatalf("second drive: err = %v, want ErrSignalSetInactive", err)
	}
	fresh := NewSequenceSet("s", "ping")
	if coord.SetState(fresh) != StateWaiting {
		t.Fatalf("fresh instance in state %s", coord.SetState(fresh))
	}
	if _, err := coord.processSignalSet(ctx, fresh); err != nil {
		t.Fatal(err)
	}
	if coord.driverFor(set) != d || coord.driverFor(fresh) == d {
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

// TestConcurrentRegistrationAcrossSetNames races enrolment, snapshots and
// driver lookups over overlapping set names, more of them than any
// reserved room, so the table of entries grows while others read it. Each
// snapshot must stay as it was taken, and every set ends with the exact
// count. Run under -race it pins the registry's locking.
func TestConcurrentRegistrationAcrossSetNames(t *testing.T) {
	coord := newCoordinator("race", testGen(), nil, RetryPolicy{Attempts: 1})
	const (
		names   = 12
		workers = 4
		adds    = 20 // per worker per name
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
			snap := coord.actions(name)
			before := regIDs(snap)
			coord.SetState(NewSequenceSet(name, "x"))
			coord.ActionCount(name)
			if after := regIDs(snap); !slices.Equal(before, after) {
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
				for i := 0; i < adds; i++ {
					if i%2 == 0 {
						coord.addAction(name, noopTestAction{})
					} else {
						coord.addNamedAction(name, "n", noopTestAction{})
					}
				}
				coord.driverFor(NewSequenceSet(name, "x"))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	for n := 0; n < names; n++ {
		if got, want := coord.ActionCount(setName(n)), workers*adds; got != want {
			t.Fatalf("%s: %d registrations, want %d", setName(n), got, want)
		}
	}
}
