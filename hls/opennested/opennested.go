// Package opennested implements §4.2 of the paper: nested top-level
// transactions with compensations (open nested transactions, fig. 9).
//
// Within a top-level transaction A, the application starts a new top-level
// transaction B that commits independently. If A later rolls back, B's
// durable work is undone by a compensating transaction !B. The structure is
// built exactly as the paper prescribes:
//
//   - each enclosing activity has a CompletionSignalSet with Success,
//     Failure and Propagate signals;
//   - a CompensationAction registered with B's activity reacts to those
//     signals: Success → discard; Propagate → re-register with the
//     enclosing activity named in the signal; Failure after propagation →
//     run !B.
package opennested

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/ids"
)

// Signal names of the CompletionSignalSet.
const (
	// SetName is the completion signal set name (the activity default).
	SetName = core.DefaultCompletionSet
	// SignalSuccess: completed successfully with no dependencies.
	SignalSuccess = "success"
	// SignalFailure: completed abnormally (aborted).
	SignalFailure = "failure"
	// SignalPropagate: completed successfully but with dependencies on an
	// enclosing activity; the signal data carries that activity's identity.
	SignalPropagate = "propagate"
)

// ErrNoTarget reports a Propagate signal without a target activity.
var ErrNoTarget = errors.New("opennested: propagate signal has no target")

var failure = []core.Signal{{Name: SignalFailure}}

// NewCompletionSet returns the CompletionSignalSet of §4.2: it emits
// exactly one signal when the activity completes — Success, Failure, or,
// if propagateTo is non-nil, Propagate with that activity's identity in
// the signal data. Its outcome names the completion and counts the
// responses.
func NewCompletionSet(propagateTo *core.Activity) *core.SequenceSet {
	success := core.Signal{Name: SignalSuccess}
	if propagateTo != nil {
		success = core.Signal{Name: SignalPropagate, Data: propagateTo.ID().String()}
	}
	set := core.NewSequenceSet(SetName).Signals(success).OnFailure(failure...)
	return set.Collate(func(rs []core.Outcome) core.Outcome {
		name := SignalSuccess
		if set.Failed() {
			name = SignalFailure
		}
		return core.Outcome{Name: name, Data: int64(len(rs))}
	})
}

// CompensationAction implements the §4.2 state machine: it discards itself
// on Success, follows Propagate into the enclosing activity, and runs the
// compensation on Failure — but only if it has been propagated (B
// committed); a failure before propagation means B itself rolled back and
// there is nothing to compensate.
type CompensationAction struct {
	svc        *core.Service
	compensate func(ctx context.Context) error
	label      string

	mu         sync.Mutex
	propagated bool
	done       bool
	ran        bool
}

var _ core.Action = (*CompensationAction)(nil)

// NewCompensationAction returns a compensation action running compensate
// when triggered. The label names the action in traces ("!B").
func NewCompensationAction(svc *core.Service, label string, compensate func(ctx context.Context) error) *CompensationAction {
	return &CompensationAction{svc: svc, compensate: compensate, label: label}
}

// Ran reports whether the compensation has executed.
func (c *CompensationAction) Ran() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ran
}

// Done reports whether the action has removed itself from the system.
func (c *CompensationAction) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// ProcessSignal implements core.Action with the state transitions of §4.2.
func (c *CompensationAction) ProcessSignal(ctx context.Context, sig core.Signal) (core.Outcome, error) {
	switch sig.Name {
	case SignalSuccess:
		// "If it receives the Success Signal then it can remove itself
		// from the system."
		c.mu.Lock()
		c.done = true
		c.mu.Unlock()
		return core.Outcome{Name: "removed"}, nil

	case SignalPropagate:
		// "encoded within this Signal will be the identity of an Activity
		// it should register itself with. It must also remember that it
		// has been propagated."
		idStr, ok := sig.Data.(string)
		if !ok {
			return core.Outcome{}, ErrNoTarget
		}
		id, err := ids.Parse(idStr)
		if err != nil {
			return core.Outcome{}, fmt.Errorf("opennested: propagate target: %w", err)
		}
		target, ok := c.svc.Find(id)
		if !ok {
			return core.Outcome{}, fmt.Errorf("%w: activity %s not live", ErrNoTarget, idStr)
		}
		if _, err := target.AddNamedAction(SetName, c.label, c); err != nil {
			return core.Outcome{}, fmt.Errorf("opennested: re-register with %s: %w", target.Name(), err)
		}
		c.mu.Lock()
		c.propagated = true
		c.mu.Unlock()
		return core.Outcome{Name: "propagated"}, nil

	case SignalFailure:
		// "If it receives the Failure Signal and it has never been
		// propagated then it can remove itself... If the Action has been
		// propagated then it should start !B running, before removing
		// itself."
		c.mu.Lock()
		shouldRun := c.propagated && !c.ran
		if shouldRun {
			c.ran = true
		}
		c.done = true
		c.mu.Unlock()
		if shouldRun {
			if err := c.compensate(ctx); err != nil {
				return core.Outcome{}, fmt.Errorf("opennested: compensation %s: %w", c.label, err)
			}
			return core.Outcome{Name: "compensated"}, nil
		}
		return core.Outcome{Name: "removed"}, nil

	default:
		return core.Outcome{}, fmt.Errorf("opennested: unexpected signal %q", sig.Name)
	}
}

// Enclosing wraps a top-level transaction's activity (A or B in fig. 9).
type Enclosing struct {
	activity *core.Activity
}

// Begin starts an enclosing activity for a top-level transaction.
// propagateTo, when non-nil, is the outer enclosing activity (A) that
// compensations must follow on successful completion.
func Begin(svc *core.Service, name string, propagateTo *Enclosing) (*Enclosing, error) {
	a := svc.Begin(name)
	var target *core.Activity
	if propagateTo != nil {
		target = propagateTo.activity
	}
	if err := a.RegisterSignalSet(NewCompletionSet(target)); err != nil {
		return nil, err
	}
	return &Enclosing{activity: a}, nil
}

// Activity exposes the backing activity.
func (e *Enclosing) Activity() *core.Activity { return e.activity }

// AddCompensation registers a compensation for the work this enclosing
// activity's transaction performs (!B for B).
func (e *Enclosing) AddCompensation(svc *core.Service, label string, compensate func(ctx context.Context) error) (*CompensationAction, error) {
	action := NewCompensationAction(svc, label, compensate)
	if _, err := e.activity.AddNamedAction(SetName, label, action); err != nil {
		return nil, err
	}
	return action, nil
}

// Complete finishes the enclosing activity: committed=true drives Success
// or Propagate, false drives Failure.
func (e *Enclosing) Complete(ctx context.Context, committed bool) (core.Outcome, error) {
	cs := core.CompletionSuccess
	if !committed {
		cs = core.CompletionFail
	}
	return e.activity.CompleteWithStatus(ctx, cs)
}
