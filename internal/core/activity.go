package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/trace"
)

// Activity lifecycle errors.
var (
	// ErrActivityInactive reports an operation on a completed (or
	// completing) activity.
	ErrActivityInactive = errors.New("core: activity is not active")
	// ErrActivitySuspended reports signalling or completing a suspended
	// activity.
	ErrActivitySuspended = errors.New("core: activity is suspended")
	// ErrInvalidCompletionStatus reports a completion status other than
	// Success, Fail and FailOnly.
	ErrInvalidCompletionStatus = errors.New("core: invalid completion status")
	// ErrChildrenActive reports completing an activity whose child
	// activities have not completed.
	ErrChildrenActive = errors.New("core: child activities still active")
	// ErrDuplicateSignalSet reports registering a second set with the same
	// name on one activity.
	ErrDuplicateSignalSet = errors.New("core: signal set already registered")
)

// ActivityState is an activity's lifecycle state.
type ActivityState int

// Activity lifecycle states: an activity is created, made to run, possibly
// suspended and resumed, and then completed (§3.1).
const (
	ActivityActive ActivityState = iota + 1
	ActivitySuspended
	ActivityCompleting
	ActivityCompleted
)

// String returns the state name.
func (s ActivityState) String() string {
	switch s {
	case ActivityActive:
		return "active"
	case ActivitySuspended:
		return "suspended"
	case ActivityCompleting:
		return "completing"
	case ActivityCompleted:
		return "completed"
	default:
		return fmt.Sprintf("ActivityState(%d)", int(s))
	}
}

// DefaultCompletionSet is the signal-set name driven by Complete when the
// activity has not chosen another with SetCompletionSet. It matches the
// paper's CompletionSignalSet convention (§4.2).
const DefaultCompletionSet = "completion"

// Activity is a unit of (distributed) work that may or may not be
// transactional (§3.1). An activity is its own coordinator (fig. 5):
// Actions register interest in SignalSets by name through it, and it
// drives each registered set through fig. 7 when the set is transmitted,
// at arbitrary points in its lifetime, not just completion.
type Activity struct {
	svc    *Service
	id     ids.UID
	name   string
	parent *Activity
	timer  *time.Timer

	// mu guards the fields below. The maps are made on first write (put):
	// most activities never nest, and few carry property groups.
	mu            sync.Mutex
	state         ActivityState
	cs            CompletionStatus
	children      map[ids.UID]*Activity
	pgroups       map[string]PropertyGroup
	completionSet string
	outcome       Outcome
	hasOutcome    bool
	entries       *setEntry // one per set name, newest first
	firstEntry    setEntry  // the first entry's room
	seq           uint32    // the last default label number handed out
}

// ID returns the globally unique activity identifier.
func (a *Activity) ID() ids.UID { return a.id }

// Name returns the human-readable name used in traces ("t1", "A", ...).
func (a *Activity) Name() string { return a.name }

// Parent returns the enclosing activity, nil for a root.
func (a *Activity) Parent() *Activity { return a.parent }

// State returns the lifecycle state.
func (a *Activity) State() ActivityState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// CompletionStatus returns the status the activity would complete with now.
func (a *Activity) CompletionStatus() CompletionStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cs
}

// SetCompletionStatus changes the prospective completion status. Once
// FailOnly, the status cannot change (§3.2.1): Success is refused, and
// Fail is accepted as a no-op, since failure is the only possible outcome.
// A value that is none of the three is refused with
// ErrInvalidCompletionStatus.
func (a *Activity) SetCompletionStatus(cs CompletionStatus) error {
	if !cs.Valid() {
		return fmt.Errorf("%w: %d", ErrInvalidCompletionStatus, int(cs))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == ActivityCompleted || a.state == ActivityCompleting {
		return fmt.Errorf("%w: %s", ErrActivityInactive, a.name)
	}
	if a.cs == CompletionFailOnly && cs == CompletionFail {
		return nil
	}
	if a.cs == CompletionFailOnly && cs != CompletionFailOnly {
		return fmt.Errorf("%w: %s", ErrCompletionStatusFixed, a.name)
	}
	a.cs = cs
	a.svc.journal.statusSet(a.id, cs)
	return nil
}

// RegisterSignalSet associates a SignalSet with the activity. Each activity
// may use any number of sets over its lifetime, each registered once.
func (a *Activity) RegisterSignalSet(set SignalSet) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == ActivityCompleted {
		return fmt.Errorf("%w: %s", ErrActivityInactive, a.name)
	}
	e := a.entryFor(set.Name())
	if e.set != nil {
		return fmt.Errorf("%w: %q on %s", ErrDuplicateSignalSet, set.Name(), a.name)
	}
	e.init(set)
	return nil
}

// SignalSet returns the registered set with the given name.
func (a *Activity) SignalSet(name string) (SignalSet, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e := a.entry(name); e != nil && e.set != nil {
		return e.set, true
	}
	return nil, false
}

// SetCompletionSet chooses which registered SignalSet Complete drives.
func (a *Activity) SetCompletionSet(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.completionSet = name
}

// AddAction registers action with the named SignalSet. The set does not
// need to be registered yet: per §3.2.3 the set of Signals cannot be
// known beforehand, so Actions register interest in a SignalSet by name.
//
// Enrolment is ordered against completion: once Complete has started, it
// fails with ErrActivityInactive; an enrolment that succeeds is in every
// snapshot the completion set's broadcasts take, so it hears every signal.
//
// The ActionID is always zero. AddAction and AddNamedAction keep it only
// because bench/probes.go, which is frozen with the benchmark, calls them
// with two results.
func (a *Activity) AddAction(setName string, action Action) (ActionID, error) {
	return ActionID{}, a.register(setName, "", true, []Action{action})
}

// AddNamedAction is AddAction with an explicit trace label.
func (a *Activity) AddNamedAction(setName, label string, action Action) (ActionID, error) {
	return ActionID{}, a.register(setName, label, false, []Action{action})
}

// AddActions registers a run of actions with the named SignalSet in one
// step, as AddAction would one by one: in order, under default labels,
// behind the same completion gate. The run takes the activity's lock
// once and grows the set's registrations at most once. Either every
// action is enrolled or, once Complete has started, none is.
func (a *Activity) AddActions(setName string, actions ...Action) error {
	return a.register(setName, "", true, actions)
}

// Suspend pauses the activity; a suspended activity rejects signalling,
// completion and child creation until resumed (§3.1: activities can run
// over long periods and be suspended and resumed).
func (a *Activity) Suspend() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state != ActivityActive {
		return fmt.Errorf("%w: cannot suspend %s in state %s", ErrActivityInactive, a.name, a.state)
	}
	a.state = ActivitySuspended
	return nil
}

// Resume reactivates a suspended activity.
func (a *Activity) Resume() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state != ActivitySuspended {
		return fmt.Errorf("%w: cannot resume %s in state %s", ErrActivityInactive, a.name, a.state)
	}
	a.state = ActivityActive
	return nil
}

// BeginChild starts a nested activity. Property groups are derived
// according to each group's nesting behaviour.
func (a *Activity) BeginChild(name string, opts ...BeginOption) (*Activity, error) {
	a.mu.Lock()
	if a.state != ActivityActive {
		st := a.state
		a.mu.Unlock()
		return nil, fmt.Errorf("%w: cannot nest under %s in state %s", ErrActivityInactive, a.name, st)
	}
	a.mu.Unlock()

	child := a.svc.newActivity(name, a, opts...)

	a.mu.Lock()
	if a.state != ActivityActive {
		st := a.state
		a.mu.Unlock()
		// The parent changed state while the child was being built (e.g. a
		// concurrent Suspend or Complete): unwind the stillborn child so it
		// does not leak in the live registry.
		if child.timer != nil {
			child.timer.Stop()
		}
		a.svc.forget(child)
		return nil, fmt.Errorf("%w: cannot nest under %s in state %s", ErrActivityInactive, a.name, st)
	}
	put(&a.children, child.id, child)
	// Derive property groups into the child.
	for name, pg := range a.pgroups {
		put(&child.pgroups, name, deriveChild(pg))
	}
	a.mu.Unlock()

	a.svc.journal.begun(child.id, a.id, name)
	if a.svc.rec != nil {
		a.svc.rec.Record(trace.KindBegin, name, "", "", "child of "+a.name)
	}
	return child, nil
}

// Children returns a snapshot of the child activities.
func (a *Activity) Children() []*Activity {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]*Activity, 0, len(a.children))
	for _, c := range a.children {
		out = append(out, c)
	}
	return out
}

// activeChildNames names the children not yet completed. The caller holds
// a.mu; locks are taken parent before child.
func (a *Activity) activeChildNames() []string {
	var names []string
	for _, c := range a.children {
		if c.State() != ActivityCompleted {
			names = append(names, c.name)
		}
	}
	return names
}

// Signal drives the named registered SignalSet immediately — the paper's
// "Signals may be communicated at arbitrary points during the lifetime of
// an activity and not just when it terminates" (§3.1). The set is told the
// activity's current completion status before the protocol runs. A set
// is driven by one caller at a time: while it is being driven, by Signal
// or by Complete, Signal is refused with an error wrapping
// ErrSignalSetActive before anything is delivered.
func (a *Activity) Signal(ctx context.Context, setName string) (Outcome, error) {
	a.mu.Lock()
	switch a.state {
	case ActivityActive:
	case ActivitySuspended:
		a.mu.Unlock()
		return Outcome{}, fmt.Errorf("%w: %s", ErrActivitySuspended, a.name)
	default:
		st := a.state
		a.mu.Unlock()
		return Outcome{}, fmt.Errorf("%w: %s in state %s", ErrActivityInactive, a.name, st)
	}
	e, err := a.claim(setName)
	cs := a.cs
	a.mu.Unlock()
	if err != nil {
		return Outcome{}, err
	}
	if e == nil {
		return Outcome{}, fmt.Errorf("%w: %q on %s", ErrUnknownSignalSet, setName, a.name)
	}
	defer a.release(e)
	e.set.SetCompletionStatus(cs)
	return a.drive(ctx, e, nil, false)
}

// Complete finishes the activity with its current completion status,
// driving the completion SignalSet (if one is registered) and recording
// the collated outcome. All child activities must have completed. While
// Signal drives the completion set, Complete is refused with an error
// wrapping ErrSignalSetActive, changing nothing.
func (a *Activity) Complete(ctx context.Context) (Outcome, error) {
	return a.complete(ctx, 0)
}

// CompleteWithStatus sets the completion status and completes, under one
// lock. A FailOnly activity cannot take Success (§3.2.1): it completes
// with its failure outcome, returned with an error wrapping
// ErrCompletionStatusFixed, as a rollback-only OTS commit rolls back and
// raises. A value that is no status is refused, completing nothing.
func (a *Activity) CompleteWithStatus(ctx context.Context, cs CompletionStatus) (Outcome, error) {
	if !cs.Valid() {
		return Outcome{}, fmt.Errorf("%w: %d", ErrInvalidCompletionStatus, int(cs))
	}
	return a.complete(ctx, cs)
}

// complete is Complete, first setting the status to cs unless it is zero.
func (a *Activity) complete(ctx context.Context, cs CompletionStatus) (Outcome, error) {
	a.mu.Lock()
	// Checked under a.mu, together with the state change below, so a
	// BeginChild cannot slip a child in between.
	if names := a.activeChildNames(); len(names) > 0 {
		a.mu.Unlock()
		return Outcome{}, fmt.Errorf("%w: %s has %v", ErrChildrenActive, a.name, names)
	}
	switch a.state {
	case ActivityActive:
	case ActivitySuspended:
		a.mu.Unlock()
		return Outcome{}, fmt.Errorf("%w: %s", ErrActivitySuspended, a.name)
	default:
		st := a.state
		a.mu.Unlock()
		return Outcome{}, fmt.Errorf("%w: %s in state %s", ErrActivityInactive, a.name, st)
	}
	setName := a.completionSet
	if setName == "" {
		setName = DefaultCompletionSet
	}
	e, err := a.claim(setName)
	if err != nil {
		a.mu.Unlock()
		return Outcome{}, err
	}
	fixed := a.cs == CompletionFailOnly && cs == CompletionSuccess
	if cs != 0 && a.cs != CompletionFailOnly {
		a.cs = cs
		a.svc.journal.statusSet(a.id, cs)
	}
	// Completing refuses every later enrolment, so the registry cannot
	// change and every round delivers over this one snapshot.
	a.state = ActivityCompleting
	cs = a.cs
	var regs []registration
	if e != nil {
		regs = e.regs[:len(e.regs):len(e.regs)]
	}
	a.mu.Unlock()

	if a.timer != nil {
		a.timer.Stop()
	}

	outcome := Outcome{Name: defaultOutcomeName(cs)}
	if e != nil {
		e.set.SetCompletionStatus(cs)
		outcome, err = a.drive(ctx, e, regs, true)
	}

	a.mu.Lock()
	if e != nil {
		e.driving = false
	}
	a.state = ActivityCompleted
	a.outcome = outcome
	a.hasOutcome = err == nil
	a.mu.Unlock()

	a.svc.journal.completed(a.id, cs, outcome.Name)
	a.svc.rec.Record(trace.KindComplete, a.name, "", outcome.Name, cs.String())
	a.svc.forget(a)
	if err != nil {
		return Outcome{}, fmt.Errorf("core: complete %s: %w", a.name, err)
	}
	if fixed {
		return outcome, fmt.Errorf("%w: %s completed with %q", ErrCompletionStatusFixed, a.name, outcome.Name)
	}
	return outcome, nil
}

// Outcome returns the recorded completion outcome once completed.
func (a *Activity) Outcome() (Outcome, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.outcome, a.hasOutcome
}

// put sets (*m)[k] = v, making the map on its first write.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

func defaultOutcomeName(cs CompletionStatus) string {
	if cs == CompletionSuccess {
		return "success"
	}
	return "failure"
}
