// Package btp implements §4.5 of the paper: the OASIS Business Transaction
// Protocol mapped onto the Activity Service.
//
// Atoms run an explicitly user-driven two-phase protocol (prepare, then —
// at an arbitrary later time — confirm or cancel) through two SignalSets:
// the PrepareSignalSet of fig. 11 and the CompleteSignalSet of fig. 12.
// Unlike ACID transactions there are no implied semantics about how
// participants implement prepare/confirm/cancel — two-phase locking is not
// required; participants are free to reserve, price-quote, or book
// provisionally.
//
// Cohesions are the non-ACID composition: atoms enroll, the business logic
// selects a confirm-set, the cohesion cancels the rest, and — "once the
// confirm-set has been determined, the cohesion collapses down to being an
// atom": the members of the confirm-set see an atomic outcome.
package btp

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/extendedtx/activityservice/internal/core"
)

// Protocol names.
const (
	// PrepareSetName is the PrepareSignalSet (fig. 11).
	PrepareSetName = "btp-prepare"
	// CompleteSetName is the CompleteSignalSet (fig. 12).
	CompleteSetName = "btp-complete"

	// SignalPrepare asks participants to reserve.
	SignalPrepare = "prepare"
	// SignalConfirm makes reservations final.
	SignalConfirm = "confirm"
	// SignalCancel releases reservations.
	SignalCancel = "cancel"

	// OutcomePrepared acknowledges a successful prepare.
	OutcomePrepared = "prepared"
	// OutcomeConfirmed acknowledges a confirm.
	OutcomeConfirmed = "confirmed"
	// OutcomeCancelled acknowledges a cancel (or reports a failed
	// prepare).
	OutcomeCancelled = "cancelled"
)

// BTP errors.
var (
	// ErrNotPrepared reports confirming an atom that is not prepared.
	ErrNotPrepared = errors.New("btp: atom is not prepared")
	// ErrCancelled reports that the atom (or cohesion) was cancelled.
	ErrCancelled = errors.New("btp: cancelled")
	// ErrUnknownAtom reports a confirm-set entry naming no enrolled atom.
	ErrUnknownAtom = errors.New("btp: unknown atom in confirm set")
)

// Participant is a BTP participant. Prepare reserves; returning an error
// means the participant cannot prepare (it has cancelled itself). Confirm
// and Cancel must be idempotent: signal delivery is at least once.
type Participant interface {
	// Prepare reserves the participant's work, or returns why it cannot.
	Prepare() error
	// Confirm makes the reservation final.
	Confirm() error
	// Cancel releases the reservation.
	Cancel() error
}

// AtomState tracks an atom through the explicit protocol.
type AtomState int

// Atom states.
const (
	AtomActive AtomState = iota + 1
	AtomPrepared
	AtomConfirmed
	AtomCancelled
)

// String returns the state name.
func (s AtomState) String() string {
	switch s {
	case AtomActive:
		return "active"
	case AtomPrepared:
		return "prepared"
	case AtomConfirmed:
		return "confirmed"
	case AtomCancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("AtomState(%d)", int(s))
	}
}

// The BTP sets' sequences, shared by every atom.
var (
	prepare = []core.Signal{{Name: SignalPrepare}}
	confirm = []core.Signal{{Name: SignalConfirm}}
	cancel  = []core.Signal{{Name: SignalCancel}}
)

// newPrepareSet returns the PrepareSignalSet of fig. 11: one "prepare"
// broadcast; any response but "prepared" dooms the atom.
func newPrepareSet() *core.SequenceSet {
	return core.NewSequenceSet(PrepareSetName).Signals(prepare...).Collate(func(rs []core.Outcome) core.Outcome {
		for _, r := range rs {
			if r.Name != OutcomePrepared {
				return core.Outcome{Name: OutcomeCancelled}
			}
		}
		return core.Outcome{Name: OutcomePrepared}
	})
}

// newCompleteSet returns the CompleteSignalSet of fig. 12: it issues
// confirm or cancel depending on how the atom is instructed to terminate
// (the activity's completion status).
func newCompleteSet() *core.SequenceSet {
	return core.NewSequenceSet(CompleteSetName).
		Signals(confirm...).
		OnFailure(cancel...).
		Outcomes(OutcomeConfirmed, OutcomeCancelled)
}

// participantAction adapts a Participant to the Action protocol.
type participantAction struct {
	p Participant

	mu       sync.Mutex
	prepared bool
}

func (a *participantAction) ProcessSignal(_ context.Context, sig core.Signal) (core.Outcome, error) {
	switch sig.Name {
	case SignalPrepare:
		if err := a.p.Prepare(); err != nil {
			return core.Outcome{Name: OutcomeCancelled, Data: err.Error()}, nil
		}
		a.mu.Lock()
		a.prepared = true
		a.mu.Unlock()
		return core.Outcome{Name: OutcomePrepared}, nil
	case SignalConfirm:
		a.mu.Lock()
		prepared := a.prepared
		a.mu.Unlock()
		if !prepared {
			return core.Outcome{}, ErrNotPrepared
		}
		if err := a.p.Confirm(); err != nil {
			return core.Outcome{}, fmt.Errorf("btp: confirm: %w", err)
		}
		return core.Outcome{Name: OutcomeConfirmed}, nil
	case SignalCancel:
		if err := a.p.Cancel(); err != nil {
			return core.Outcome{}, fmt.Errorf("btp: cancel: %w", err)
		}
		return core.Outcome{Name: OutcomeCancelled}, nil
	default:
		return core.Outcome{}, fmt.Errorf("btp: unexpected signal %q", sig.Name)
	}
}

// Atom is a BTP atom: a user-driven two-phase unit of work.
type Atom struct {
	name     string
	activity *core.Activity
	prep     *core.SequenceSet
	complete *core.SequenceSet

	mu    sync.Mutex // guards state and orders enrolment
	state AtomState
}

// NewAtom begins an atom as an activity with the two BTP signal sets.
//
// Both sets deliver in parallel by default: prepare and confirm/cancel are
// pure broadcasts (neither set ever short-circuits), so concurrent fan-out
// changes nothing observable except latency — responses are still collated
// in enrollment order. Use SetDelivery to opt an atom back to serial.
func NewAtom(svc *core.Service, name string) (*Atom, error) {
	a := svc.Begin(name)
	prep := newPrepareSet()
	comp := newCompleteSet()
	prep.SetDelivery(core.Parallel())
	comp.SetDelivery(core.Parallel())
	if err := a.RegisterSignalSet(prep); err != nil {
		return nil, err
	}
	if err := a.RegisterSignalSet(comp); err != nil {
		return nil, err
	}
	a.SetCompletionSet(CompleteSetName)
	return &Atom{name: name, activity: a, prep: prep, complete: comp, state: AtomActive}, nil
}

// Name returns the atom's name.
func (a *Atom) Name() string { return a.name }

// SetDelivery overrides the delivery policy of both BTP signal sets.
func (a *Atom) SetDelivery(p core.DeliveryPolicy) {
	a.prep.SetDelivery(p)
	a.complete.SetDelivery(p)
}

// Activity exposes the backing activity.
func (a *Atom) Activity() *core.Activity { return a.activity }

// State returns the protocol state.
func (a *Atom) State() AtomState {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.state
}

// Enroll registers a participant with both signal sets, labelled
// participant-N, N its place in the atom's enrolment order.
func (a *Atom) Enroll(p Participant) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.enroll(fmt.Sprintf("participant-%d", a.activity.ActionCount(PrepareSetName)+1), p)
}

// EnrollNamed registers a participant with an explicit trace label.
func (a *Atom) EnrollNamed(label string, p Participant) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.enroll(label, p)
}

// enroll registers p with both signal sets under label. The caller holds
// a.mu, so labels are taken in enrolment order and both sets list the
// participants in that one order.
func (a *Atom) enroll(label string, p Participant) error {
	action := &participantAction{p: p}
	if _, err := a.activity.AddNamedAction(PrepareSetName, label, action); err != nil {
		return err
	}
	if _, err := a.activity.AddNamedAction(CompleteSetName, label, action); err != nil {
		return err
	}
	return nil
}

// Prepare drives the fig. 11 exchange. The user decides when (and whether)
// to call Confirm or Cancel afterwards. If any participant cannot prepare,
// the atom cancels the others and reports ErrCancelled.
func (a *Atom) Prepare(ctx context.Context) error {
	a.mu.Lock()
	if a.state != AtomActive {
		st := a.state
		a.mu.Unlock()
		return fmt.Errorf("btp: prepare in state %s", st)
	}
	a.mu.Unlock()

	out, err := a.activity.Signal(ctx, PrepareSetName)
	if err != nil {
		return fmt.Errorf("btp: prepare: %w", err)
	}
	if out.Name != OutcomePrepared {
		// Cancel everyone (those that prepared must release).
		_ = a.finish(ctx, false)
		return fmt.Errorf("%w: atom %s failed to prepare", ErrCancelled, a.name)
	}
	a.mu.Lock()
	a.state = AtomPrepared
	a.mu.Unlock()
	return nil
}

// Confirm drives the fig. 12 exchange with the confirm signal.
func (a *Atom) Confirm(ctx context.Context) error {
	a.mu.Lock()
	if a.state != AtomPrepared {
		st := a.state
		a.mu.Unlock()
		return fmt.Errorf("%w: state %s", ErrNotPrepared, st)
	}
	a.mu.Unlock()
	return a.finish(ctx, true)
}

// Cancel drives the fig. 12 exchange with the cancel signal. Cancelling an
// unprepared or already-cancelled atom is a no-op.
func (a *Atom) Cancel(ctx context.Context) error {
	a.mu.Lock()
	if a.state == AtomConfirmed {
		a.mu.Unlock()
		return fmt.Errorf("btp: cannot cancel a confirmed atom")
	}
	if a.state == AtomCancelled {
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()
	return a.finish(ctx, false)
}

func (a *Atom) finish(ctx context.Context, confirm bool) error {
	cs := core.CompletionSuccess
	newState := AtomConfirmed
	if !confirm {
		cs = core.CompletionFail
		newState = AtomCancelled
	}
	out, err := a.activity.CompleteWithStatus(ctx, cs)
	if err != nil {
		return fmt.Errorf("btp: complete: %w", err)
	}
	a.mu.Lock()
	a.state = newState
	a.mu.Unlock()
	if confirm && out.Name != OutcomeConfirmed {
		return fmt.Errorf("%w: atom %s", ErrCancelled, a.name)
	}
	return nil
}

// Cohesion composes atoms with business-rule-driven outcome selection.
type Cohesion struct {
	name string

	mu    sync.Mutex
	atoms map[string]*Atom
}

// NewCohesion returns an empty cohesion.
func NewCohesion(name string) *Cohesion {
	return &Cohesion{name: name, atoms: make(map[string]*Atom)}
}

// Enroll adds an atom to the cohesion.
func (c *Cohesion) Enroll(a *Atom) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.atoms[a.Name()] = a
}

// Atoms returns the enrolled atom count.
func (c *Cohesion) Atoms() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.atoms)
}

// Confirm terminates the cohesion: atoms outside the confirm-set are
// cancelled; the confirm-set is prepared (where not already) and then
// confirmed atomically — all of them confirm, or on any prepare failure
// all are cancelled and ErrCancelled is returned.
func (c *Cohesion) Confirm(ctx context.Context, confirmSet []string) error {
	c.mu.Lock()
	members := make([]*Atom, 0, len(confirmSet))
	seen := make(map[string]bool, len(confirmSet))
	for _, name := range confirmSet {
		a, ok := c.atoms[name]
		if !ok {
			c.mu.Unlock()
			return fmt.Errorf("%w: %q", ErrUnknownAtom, name)
		}
		members = append(members, a)
		seen[name] = true
	}
	var losers []*Atom
	for name, a := range c.atoms {
		if !seen[name] {
			losers = append(losers, a)
		}
	}
	c.mu.Unlock()

	// Cancel the atoms the business logic rejected.
	for _, a := range losers {
		if err := a.Cancel(ctx); err != nil {
			return err
		}
	}
	// Prepare the confirm-set ("the cohesion collapses down to being an
	// atom").
	for i, a := range members {
		if a.State() == AtomPrepared {
			continue
		}
		if err := a.Prepare(ctx); err != nil {
			// Cancel the already-prepared members: atomicity across the
			// confirm-set.
			for _, b := range members[:i] {
				_ = b.Cancel(ctx)
			}
			for _, b := range members[i+1:] {
				_ = b.Cancel(ctx)
			}
			return fmt.Errorf("%w: confirm-set member %s", ErrCancelled, a.Name())
		}
	}
	// Confirm them all.
	for _, a := range members {
		if err := a.Confirm(ctx); err != nil {
			return err
		}
	}
	return nil
}

// CancelAll cancels every enrolled atom.
func (c *Cohesion) CancelAll(ctx context.Context) error {
	c.mu.Lock()
	atoms := make([]*Atom, 0, len(c.atoms))
	for _, a := range c.atoms {
		atoms = append(atoms, a)
	}
	c.mu.Unlock()
	for _, a := range atoms {
		if err := a.Cancel(ctx); err != nil {
			return err
		}
	}
	return nil
}
