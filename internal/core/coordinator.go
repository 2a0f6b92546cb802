package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
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

// registration pairs an Action with its trace label.
type registration struct {
	action Action
	// seq numbers a default-labelled registration, "action-<seq>"; zero
	// marks an explicitly labelled one, whose label is label.
	seq   int64
	label string
}

// name returns the registration's trace label. A default label is
// formatted here, on demand, so an untraced broadcast never pays for it.
func (r registration) name() string {
	if r.seq == 0 {
		return r.label
	}
	return "action-" + strconv.FormatInt(r.seq, 10)
}

// setEntry is what a coordinator keeps per set name: the registrations,
// and the fig. 7 driver of each set instance driven under that name.
type setEntry struct {
	name string
	// regs is append-only: a broadcast delivers over a capped snapshot of
	// it, and a registration appends past every snapshot.
	regs    []registration
	drivers *setDriver // linked through setDriver.next
}

// Coordinator is the activity coordinator of fig. 5: Actions register
// interest in SignalSets by name; when the activity transmits a SignalSet,
// the coordinator pulls each Signal from the set, broadcasts it to the
// registered Actions in registration order, and feeds every response back
// into the set.
type Coordinator struct {
	owner string // activity name, for traces
	rec   *trace.Recorder
	retry RetryPolicy

	// mu guards the fields below. sets holds one entry per name in
	// first-use order; an append may move them, so no pointer into it
	// outlives mu.
	mu     sync.Mutex
	sets   []setEntry
	seq    int64 // the last default label number handed out
	closed bool  // enrolment refused: the owning activity is completing
	// The first name's entry and the first driven set's driver: later ones
	// go to the heap. A driver pointer outlives mu, so it is never in sets.
	entryRoom  [1]setEntry
	driverRoom setDriver
}

// init sets up a zero Coordinator in place, which lets an Activity hold
// its coordinator by value instead of allocating it separately.
func (c *Coordinator) init(owner string, rec *trace.Recorder, retry RetryPolicy) {
	if retry.Attempts < 1 {
		retry.Attempts = 1
	}
	c.owner, c.rec, c.retry = owner, rec, retry
	c.sets = c.entryRoom[:0]
}

// register appends actions to setName's registrations in order, each
// labelled label, or numbered with the next default label when numbered
// is set, growing them at most once. It is refused with
// ErrActivityInactive once closeEnrolment has run: checking the gate and
// appending in one critical section leaves no window in which completion
// can snapshot the registrations without them.
func (c *Coordinator) register(setName, label string, numbered bool, actions []Action) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return fmt.Errorf("%w: %s", ErrActivityInactive, c.owner)
	}
	e := c.entryFor(setName)
	if e.regs == nil {
		// A run is sized exactly; a model enrolling one by one reserves
		// room for a few more rather than regrowing 1, 2, 4.
		e.regs = make([]registration, 0, max(len(actions), regReserve))
	}
	e.regs = slices.Grow(e.regs, len(actions))
	for _, action := range actions {
		reg := registration{action: action, label: label}
		if numbered {
			c.seq++
			reg.seq = c.seq
		}
		e.regs = append(e.regs, reg)
	}
	return nil
}

// regReserve is the least room a set name's first registration reserves.
const regReserve = 4

// entry returns name's entry, nil if it has none. Entries are searched
// newest first: a model enrols with, and drives, the set it named last.
// The caller holds c.mu.
func (c *Coordinator) entry(name string) *setEntry {
	for i := len(c.sets) - 1; i >= 0; i-- {
		if c.sets[i].name == name {
			return &c.sets[i]
		}
	}
	return nil
}

// entryFor returns name's entry, adding an empty one on first use. The
// caller holds c.mu.
func (c *Coordinator) entryFor(name string) *setEntry {
	if e := c.entry(name); e != nil {
		return e
	}
	c.sets = append(c.sets, setEntry{name: name})
	return &c.sets[len(c.sets)-1]
}

// start returns the fig. 7 driver of a set instance, made on first use,
// and a snapshot of its name's registrations. With close, it first refuses
// every later registration: an activity starting completion calls it so
// (with a nil set if it has none), and every round delivers over that one
// snapshot. A set that reached End stays ended forever.
func (c *Coordinator) start(set SignalSet, close bool) (*setDriver, []registration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = c.closed || close
	if set == nil {
		return nil, nil
	}
	e := c.entryFor(set.Name())
	d := e.driver(set)
	if d == nil {
		if d = &c.driverRoom; d.set != nil {
			d = new(setDriver)
		}
		d.init(set)
		d.next, e.drivers = e.drivers, d
	}
	return d, e.regs[:len(e.regs):len(e.regs)]
}

// ActionCount returns the number of actions registered with setName.
func (c *Coordinator) ActionCount(setName string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := c.entry(setName); e != nil {
		return len(e.regs)
	}
	return 0
}

// actions snapshots the registrations for a set, in registration order.
// The snapshot shares the append-only slice, capped so that a later
// append cannot reach into it.
func (c *Coordinator) actions(setName string) []registration {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entry(setName)
	if e == nil {
		return nil
	}
	return e.regs[:len(e.regs):len(e.regs)]
}

// driver returns the driver of set, nil if it has never been driven (or
// e is nil: its name has no entry).
func (e *setEntry) driver(set SignalSet) *setDriver {
	if e == nil {
		return nil
	}
	for d := e.drivers; d != nil; d = d.next {
		if d.set == set {
			return d
		}
	}
	return nil
}

// SetState reports the fig. 7 state of a set instance under this
// coordinator (Waiting if it has never been driven).
func (c *Coordinator) SetState(set SignalSet) SetState {
	name := set.Name()
	c.mu.Lock()
	d := c.entry(name).driver(set)
	c.mu.Unlock()
	if d == nil {
		return StateWaiting
	}
	return d.State()
}

// processSignalSet drives the full protocol of figs. 5 and 8: pull a
// signal, broadcast it to every action registered with the set's name,
// feed responses back, repeat until the set ends, then collate the final
// outcome with GetOutcome.
//
// Each broadcast is delivered per the set's own DeliveryPolicy
// (DeliveryPolicyProvider), serially when it declares none.
// Whatever the policy, responses reach the set in registration order, so
// collation, advance short-circuiting and the recorded trace are identical
// across policies.
func (c *Coordinator) processSignalSet(ctx context.Context, set SignalSet) (Outcome, error) {
	driver, _ := c.start(set, false)
	return c.drive(ctx, driver, nil, false)
}

// drive is processSignalSet with driver. With fixed set, every round
// delivers over regs; otherwise each takes a fresh snapshot.
func (c *Coordinator) drive(ctx context.Context, driver *setDriver, regs []registration, fixed bool) (Outcome, error) {
	set := driver.set
	setName := set.Name()
	policy := policyFor(set)
	for {
		sig, last, err := driver.getSignal()
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			return Outcome{}, fmt.Errorf("core: get_signal on %q: %w", setName, err)
		}
		c.rec.Record(trace.KindGetSignal, c.owner, setName, sig.Name, "")

		if !fixed {
			regs = c.actions(setName)
		}
		var (
			advance bool
			berr    error
		)
		switch {
		case (policy.Mode == DeliverParallel || policy.Mode == DeliverTree) && len(regs) > 1:
			advance, berr = c.broadcastConcurrent(ctx, driver, regs, sig, policy)
		default:
			advance, berr = c.broadcastSerial(ctx, driver, regs, sig, last)
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
	c.rec.Record(trace.KindGetOutcome, c.owner, setName, out.Name, "")
	return out, nil
}

// deliver transmits one signal to one action with at-least-once retry
// into r, recording transmit events live and the response at the end (the
// same event shape replayTrace reproduces for concurrent deliveries).
func (c *Coordinator) deliver(ctx context.Context, reg *registration, sig Signal, r *attemptResult) {
	var onTransmit func(attempt int)
	if c.rec != nil {
		onTransmit = func(attempt int) {
			c.rec.Record(trace.KindTransmit, c.owner, reg.name(), sig.Name, transmitDetail(attempt))
		}
	}
	runAttempts(ctx, reg.action, sig, c.retry, onTransmit, r)
	c.recordResponse(reg, sig, r)
}
