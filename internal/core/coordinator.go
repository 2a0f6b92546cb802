package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/trace"
)

// ActionID is the first result of Activity.AddAction and AddNamedAction.
// Registrations carry no identity (the registry is append-only, so nothing
// takes one back), and every ActionID handed out is zero.
type ActionID = ids.UID

// ErrUnknownSignalSet reports driving or registering with a set name the
// activity does not know.
var ErrUnknownSignalSet = errors.New("core: unknown signal set")

// RetryPolicy controls at-least-once signal delivery (§3.4): a failed
// ProcessSignal is retried up to Attempts times with Backoff between tries.
// Actions must therefore be idempotent (or wrapped with Idempotent); the
// service offers no exactly-once delivery.
type RetryPolicy struct {
	// Attempts bounds deliveries of one signal to one action.
	Attempts int
	// Backoff is the pause between attempts.
	Backoff time.Duration
}

// registration pairs an Action with its trace label. It is 40 bytes: an
// activity enrols every participant into one of these.
type registration struct {
	action Action
	// seq numbers a default-labelled registration, "action-<seq>"; zero
	// marks an explicitly labelled one, whose label is label.
	seq uint32
	// batches records, once at enrolment, whether action is an
	// EndpointBatcher, so a broadcast asks no other registration.
	batches bool
	label   string
}

// name returns the registration's trace label. A default label is
// formatted here, on demand, so an untraced broadcast never pays for it.
func (r registration) name() string {
	if r.seq == 0 {
		return r.label
	}
	return "action-" + strconv.FormatUint(uint64(r.seq), 10)
}

// batchEndpoint returns the registration's batch endpoint, "" when it
// cannot batch.
func (r *registration) batchEndpoint() string {
	if !r.batches {
		return ""
	}
	return r.action.(EndpointBatcher).BatchEndpoint()
}

// setEntry is what an activity keeps per set name: the SignalSet
// registered under it with its fig. 7 state, and the registrations. An
// entry never moves once made, so a drive keeps a pointer to it past the
// activity's lock.
type setEntry struct {
	setDriver // set is nil until a set is registered under name
	name      string
	next      *setEntry // the entry made before this one
	// regs is append-only: a broadcast delivers over a capped snapshot of
	// it, and a registration appends past every snapshot.
	regs []registration
	// driving marks a drive of set in progress, claimed and released
	// under the activity's lock: a set is driven by one caller at a time.
	driving bool
}

// register appends actions to setName's registrations in order, each
// labelled label, or numbered with the next default label when numbered
// is set, growing them at most once. It is refused with
// ErrActivityInactive once completion has started: checking the state and
// appending in one critical section leaves no window in which completion
// can snapshot the registrations without them.
func (a *Activity) register(setName, label string, numbered bool, actions []Action) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == ActivityCompleting || a.state == ActivityCompleted {
		return fmt.Errorf("%w: %s", ErrActivityInactive, a.name)
	}
	e := a.entryFor(setName)
	if e.regs == nil {
		// A run is sized exactly; a model enrolling one by one reserves
		// room for a few more rather than regrowing 1, 2, 4.
		e.regs = make([]registration, 0, max(len(actions), regReserve))
	}
	e.regs = slices.Grow(e.regs, len(actions))
	for _, action := range actions {
		reg := registration{action: action, label: label}
		_, reg.batches = action.(EndpointBatcher)
		if numbered {
			a.seq++
			reg.seq = a.seq
		}
		e.regs = append(e.regs, reg)
	}
	return nil
}

// regReserve is the least room a set name's first registration reserves.
const regReserve = 4

// entry returns name's entry, nil if it has none. Entries are searched
// newest first: a model enrols with, and drives, the set it named last.
// The caller holds a.mu.
func (a *Activity) entry(name string) *setEntry {
	for e := a.entries; e != nil; e = e.next {
		if e.name == name {
			return e
		}
	}
	return nil
}

// entryFor returns name's entry, adding an empty one on first use: the
// first in the activity's room, later ones on the heap. The caller holds
// a.mu.
func (a *Activity) entryFor(name string) *setEntry {
	if e := a.entry(name); e != nil {
		return e
	}
	e := &a.firstEntry
	if a.entries != nil {
		e = new(setEntry)
	}
	e.name, e.next = name, a.entries
	a.entries = e
	return e
}

// claim returns the entry of the set registered as name and marks it
// driven, or nil if no set is registered under name. A set already being
// driven is refused with ErrSignalSetActive. The caller holds a.mu and
// calls release when its drive returns.
func (a *Activity) claim(name string) (*setEntry, error) {
	e := a.entry(name)
	if e == nil || e.set == nil {
		return nil, nil
	}
	if e.driving {
		return nil, fmt.Errorf("%w: %q on %s is being driven", ErrSignalSetActive, name, a.name)
	}
	e.driving = true
	return e, nil
}

// release ends the drive claim took.
func (a *Activity) release(e *setEntry) {
	a.mu.Lock()
	e.driving = false
	a.mu.Unlock()
}

// ActionCount returns the number of actions registered with setName.
func (a *Activity) ActionCount(setName string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e := a.entry(setName); e != nil {
		return len(e.regs)
	}
	return 0
}

// actions snapshots the registrations for a set, in registration order.
// The snapshot shares the append-only slice, capped so that a later
// append cannot reach into it.
func (a *Activity) actions(setName string) []registration {
	a.mu.Lock()
	defer a.mu.Unlock()
	e := a.entry(setName)
	if e == nil {
		return nil
	}
	return e.regs[:len(e.regs):len(e.regs)]
}

// SetState reports the fig. 7 state of set: its state as registered with
// the activity, Waiting if it is not registered.
func (a *Activity) SetState(set SignalSet) SetState {
	a.mu.Lock()
	e := a.entry(set.Name())
	registered := e != nil && e.set == set
	a.mu.Unlock()
	if !registered {
		return StateWaiting
	}
	return e.State()
}

// drive runs the full protocol of figs. 5 and 8 over e's set: pull a
// signal, broadcast it to every action registered with the set's name,
// feed responses back, repeat until the set ends, then collate the final
// outcome with GetOutcome. With fixed set, every round delivers over
// regs; otherwise each takes a fresh snapshot.
//
// Each broadcast is delivered per the set's own DeliveryPolicy
// (DeliveryPolicyProvider), serially when it declares none.
// Whatever the policy, responses reach the set in registration order, so
// collation, advance short-circuiting and the recorded trace are identical
// across policies.
func (a *Activity) drive(ctx context.Context, e *setEntry, regs []registration, fixed bool) (Outcome, error) {
	driver := &e.setDriver
	setName := e.name
	policy := policyFor(driver.set)
	for {
		sig, last, err := driver.getSignal()
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			return Outcome{}, fmt.Errorf("core: get_signal on %q: %w", setName, err)
		}
		a.svc.rec.Record(trace.KindGetSignal, a.name, setName, sig.Name, "")

		if !fixed {
			regs = a.actions(setName)
		}
		var (
			advance bool
			berr    error
		)
		switch {
		case (policy.Mode == DeliverParallel || policy.Mode == DeliverTree) && len(regs) > 1:
			advance, berr = a.broadcastConcurrent(ctx, driver, regs, sig, policy)
		default:
			advance, berr = a.broadcastSerial(ctx, driver, regs, sig, last)
		}
		if berr != nil {
			return Outcome{}, fmt.Errorf("core: set_response on %q: %w", setName, berr)
		}
		if last && !advance {
			driver.end()
			break
		}
	}
	out, err := driver.getOutcome()
	if err != nil {
		return Outcome{}, fmt.Errorf("core: get_outcome on %q: %w", setName, err)
	}
	a.svc.rec.Record(trace.KindGetOutcome, a.name, setName, out.Name, "")
	return out, nil
}

// deliver transmits one signal to one action with at-least-once retry
// into r, recording transmit events live and the response at the end (the
// same event shape replayTrace reproduces for concurrent deliveries).
func (a *Activity) deliver(ctx context.Context, reg *registration, sig Signal, r *attemptResult) {
	var onTransmit func(attempt int)
	if rec := a.svc.rec; rec != nil {
		onTransmit = func(attempt int) {
			rec.Record(trace.KindTransmit, a.name, reg.name(), sig.Name, transmitDetail(attempt))
		}
	}
	runAttempts(ctx, reg.action, sig, a.svc.retry, onTransmit, r)
	a.recordResponse(reg, sig, r)
}
