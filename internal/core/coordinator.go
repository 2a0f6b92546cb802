package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/trace"
)

// ActionID identifies a registration with a coordinator, so an action can
// later be removed.
type ActionID = ids.UID

// ErrUnknownSignalSet reports driving or registering with a set name the
// activity does not know.
var ErrUnknownSignalSet = errors.New("core: unknown signal set")

// RetryPolicy controls at-least-once signal delivery (§3.4): a failed
// ProcessSignal is retried up to Attempts times with Backoff between tries.
// Actions must therefore be idempotent (or wrapped with Idempotent).
type RetryPolicy struct {
	// Attempts bounds deliveries of one signal to one action.
	Attempts int
	// Backoff is the pause between attempts.
	Backoff time.Duration
}

// registration pairs an Action with its identity and trace label.
type registration struct {
	id     ActionID
	label  string
	action Action
}

// Coordinator is the activity coordinator of fig. 5: Actions register
// interest in SignalSets by name; when the activity transmits a SignalSet,
// the coordinator pulls each Signal from the set, broadcasts it to the
// registered Actions in registration order, and feeds every response back
// into the set.
type Coordinator struct {
	owner    string // activity name, for traces
	gen      *ids.Generator
	rec      *trace.Recorder
	retry    RetryPolicy
	delivery DeliveryPolicy
	counters *deliveryCounters // service-wide speculative accounting, may be nil

	// seq feeds default trace labels.
	seq atomic.Int64

	// mu guards the set name → registrations map, in registration order,
	// and the per-set drivers.
	mu      sync.Mutex
	regs    map[string][]registration
	drivers map[SignalSet]*setDriver
}

func newCoordinator(owner string, gen *ids.Generator, rec *trace.Recorder, retry RetryPolicy, delivery DeliveryPolicy, counters *deliveryCounters) *Coordinator {
	if retry.Attempts < 1 {
		retry.Attempts = 1
	}
	return &Coordinator{
		owner:    owner,
		gen:      gen,
		rec:      rec,
		retry:    retry,
		delivery: delivery,
		counters: counters,
		regs:     make(map[string][]registration),
		drivers:  make(map[SignalSet]*setDriver),
	}
}

// AddAction registers action with the named SignalSet. Actions register
// interest in SignalSets, not individual Signals (§3.2.3): they receive
// every signal the set generates.
func (c *Coordinator) AddAction(setName string, action Action) ActionID {
	return c.AddNamedAction(setName, fmt.Sprintf("action-%d", c.seq.Add(1)), action)
}

// AddNamedAction registers action under an explicit trace label.
func (c *Coordinator) AddNamedAction(setName, label string, action Action) ActionID {
	id := c.gen.New()
	c.mu.Lock()
	c.regs[setName] = append(c.regs[setName], registration{id: id, label: label, action: action})
	c.mu.Unlock()
	return id
}

// RemoveAction removes a registration, reporting whether it existed.
func (c *Coordinator) RemoveAction(setName string, id ActionID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	regs := c.regs[setName]
	for i, reg := range regs {
		if reg.id == id {
			c.regs[setName] = append(regs[:i], regs[i+1:]...)
			return true
		}
	}
	return false
}

// ActionCount returns the number of actions registered with setName.
func (c *Coordinator) ActionCount(setName string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.regs[setName])
}

// actions snapshots the registrations for a set, in registration order.
func (c *Coordinator) actions(setName string) []registration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]registration(nil), c.regs[setName]...)
}

// driverFor returns the fig. 7 state machine for a set instance, creating
// it on first use. A set that reached End stays ended forever.
func (c *Coordinator) driverFor(set SignalSet) *setDriver {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.drivers[set]
	if !ok {
		d = newSetDriver(set)
		c.drivers[set] = d
	}
	return d
}

// SetState reports the fig. 7 state of a set instance under this
// coordinator (Waiting if it has never been driven).
func (c *Coordinator) SetState(set SignalSet) SetState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.drivers[set]; ok {
		return d.State()
	}
	return StateWaiting
}

// ProcessSignalSet drives the full protocol of figs. 5 and 8: pull a
// signal, broadcast it to every action registered with the set's name,
// feed responses back, repeat until the set ends, then collate the final
// outcome with GetOutcome.
//
// Each broadcast is delivered per the resolved DeliveryPolicy — the set's
// own (DeliveryPolicyProvider), else the Service-wide default, else serial.
// Whatever the policy, responses reach the set in registration order, so
// collation, advance short-circuiting and the recorded trace are identical
// across policies.
func (c *Coordinator) ProcessSignalSet(ctx context.Context, set SignalSet) (Outcome, error) {
	driver := c.driverFor(set)
	setName := set.Name()
	policy := c.policyFor(set)
	for {
		sig, last, err := driver.getSignal()
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			return Outcome{}, fmt.Errorf("core: get_signal on %q: %w", setName, err)
		}
		c.rec.Record(trace.KindGetSignal, c.owner, setName, sig.Name, "")

		regs := c.actions(setName)
		var (
			advance bool
			berr    error
		)
		switch {
		case (policy.Mode == DeliverParallel || policy.Mode == DeliverTree) && len(regs) > 1:
			advance, berr = c.broadcastConcurrent(ctx, driver, regs, sig, policy)
		default:
			advance, berr = c.broadcastSerial(ctx, driver, regs, sig)
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

// deliver transmits one signal to one action with at-least-once retry,
// recording transmit events live and the response at the end (the same
// event shape replayTrace reproduces for concurrent deliveries).
func (c *Coordinator) deliver(ctx context.Context, reg registration, sig Signal) (Outcome, error) {
	r := runAttempts(ctx, reg.action, sig, c.retry, func(attempt int) {
		c.rec.Record(trace.KindTransmit, c.owner, reg.label, sig.Name, transmitDetail(attempt))
	})
	c.recordResponse(reg, sig, r)
	return r.outcome, r.err
}
