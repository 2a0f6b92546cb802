// Package twopc maps the classic two-phase commit protocol onto the
// Activity Service, reproducing §4.1 and fig. 8 of the paper: a
// 2PCSignalSet generates "prepare" then "commit" (or "rollback") signals,
// and ResourceActions adapt transaction-service resources to the Action
// interface.
//
// This is the paper's demonstration that even the most classical
// transaction protocol is expressible in the generic framework; the
// repository benchmark reports the framework's overhead against the
// hand-coded protocol in internal/ots as ots.framework_ratio
// (bench/README.md).
package twopc

import (
	"context"
	"fmt"
	"sync"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/ots"
)

// Signal and outcome names used by the protocol.
const (
	// SetName is the 2PC signal set name.
	SetName = "2pc"
	// SignalPrepare asks participants to vote.
	SignalPrepare = "prepare"
	// SignalCommit makes prepared work durable.
	SignalCommit = "commit"
	// SignalRollback undoes the work.
	SignalRollback = "rollback"

	// OutcomeDone acknowledges a phase-two signal (fig. 8's "done").
	OutcomeDone = "done"
	// OutcomeReadOnly reports no undoable work at prepare.
	OutcomeReadOnly = "read-only"
	// OutcomeAbort vetoes at prepare.
	OutcomeAbort = "abort"

	// ResultCommitted is the collated outcome of a committed protocol.
	ResultCommitted = "committed"
	// ResultRolledBack is the collated outcome of a rolled-back protocol.
	ResultRolledBack = "rolled-back"
)

// phase tracks the signal set's progress.
type phase int

const (
	phaseVoting phase = iota
	phaseCompleting
	phaseDone
)

// SignalSet is the 2PCSignalSet of fig. 8: first signal "prepare"; when
// every response is "done" or "read-only" the next signal is "commit",
// otherwise "rollback". An activity completing in a failure status skips
// the vote and rolls straight back.
type SignalSet struct {
	core.BaseSet

	mu     sync.Mutex
	ph     phase
	doomed bool
}

var _ core.SignalSet = (*SignalSet)(nil)

// NewSignalSet returns a fresh 2PC signal set (they are single-use, per
// fig. 7).
func NewSignalSet() *SignalSet {
	return &SignalSet{BaseSet: core.NewBaseSet(SetName)}
}

// GetSignal implements core.SignalSet.
func (s *SignalSet) GetSignal() (core.Signal, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.ph {
	case phaseVoting:
		if s.CompletionStatus() != core.CompletionSuccess {
			// The activity is failing: no vote, straight to rollback.
			s.doomed = true
			s.ph = phaseDone
			return core.Signal{Name: SignalRollback, SetName: SetName}, true, nil
		}
		s.ph = phaseCompleting
		return core.Signal{Name: SignalPrepare, SetName: SetName}, false, nil
	case phaseCompleting:
		s.ph = phaseDone
		name := SignalCommit
		if s.doomed {
			name = SignalRollback
		}
		return core.Signal{Name: name, SetName: SetName}, true, nil
	default:
		return core.Signal{}, false, core.ErrExhausted
	}
}

// SetResponse implements core.SignalSet. An "abort" vote (or a delivery
// failure during voting) dooms the transaction and cuts the prepare
// broadcast short.
func (s *SignalSet) SetResponse(resp core.Outcome, deliveryErr error) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ph == phaseCompleting { // responses to "prepare"
		if deliveryErr != nil || resp.Name == OutcomeAbort {
			s.doomed = true
			return true, nil // advance straight to the rollback signal
		}
	}
	return false, nil
}

// GetOutcome implements core.SignalSet.
func (s *SignalSet) GetOutcome() (core.Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.doomed {
		return core.Outcome{Name: ResultRolledBack}, nil
	}
	return core.Outcome{Name: ResultCommitted}, nil
}

// ResourceAction adapts an ots.Resource to the Action protocol, letting
// any transaction-service participant join an activity-coordinated 2PC.
type ResourceAction struct {
	mu       sync.Mutex
	resource ots.Resource
	voted    ots.Vote
}

var _ core.Action = (*ResourceAction)(nil)

// NewResourceAction wraps r.
func NewResourceAction(r ots.Resource) *ResourceAction {
	return &ResourceAction{resource: r}
}

// ProcessSignal implements core.Action.
func (a *ResourceAction) ProcessSignal(_ context.Context, sig core.Signal) (core.Outcome, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch sig.Name {
	case SignalPrepare:
		vote, err := a.resource.Prepare()
		if err != nil {
			vote = ots.VoteRollback
		}
		a.voted = vote
		switch vote {
		case ots.VoteReadOnly:
			return core.Outcome{Name: OutcomeReadOnly}, nil
		case ots.VoteCommit:
			return core.Outcome{Name: OutcomeDone}, nil
		default:
			// A vetoing resource has already rolled itself back.
			return core.Outcome{Name: OutcomeAbort}, nil
		}
	case SignalCommit:
		if a.voted != ots.VoteCommit {
			return core.Outcome{Name: OutcomeDone}, nil // read-only: no phase two
		}
		if err := a.resource.Commit(); err != nil {
			return core.Outcome{}, fmt.Errorf("twopc: commit: %w", err)
		}
		return core.Outcome{Name: OutcomeDone}, nil
	case SignalRollback:
		if a.voted == ots.VoteRollback || a.voted == ots.VoteReadOnly {
			return core.Outcome{Name: OutcomeDone}, nil // nothing to undo
		}
		if err := a.resource.Rollback(); err != nil {
			return core.Outcome{}, fmt.Errorf("twopc: rollback: %w", err)
		}
		return core.Outcome{Name: OutcomeDone}, nil
	default:
		return core.Outcome{}, fmt.Errorf("twopc: unexpected signal %q", sig.Name)
	}
}

// Coordinator runs activity-coordinated two-phase commits.
type Coordinator struct {
	svc      *core.Service
	delivery core.DeliveryPolicy
}

// CoordinatorOption configures a Coordinator.
type CoordinatorOption func(*Coordinator)

// WithDelivery sets the delivery policy for every transaction's signal
// set. With core.Parallel(), the prepare broadcast (and the phase-two
// signal) goes to all participants concurrently while votes are still
// collated in enlistment order, so the protocol outcome is identical to
// serial delivery. Parallel delivery is speculative: participants enlisted
// after an aborting voter may still be asked to prepare (the subsequent
// rollback broadcast releases them), whereas serial delivery cuts the
// prepare broadcast short — use the default serial policy when that
// distinction matters.
func WithDelivery(p core.DeliveryPolicy) CoordinatorOption {
	return func(c *Coordinator) { c.delivery = p }
}

// NewCoordinator returns a Coordinator over svc.
func NewCoordinator(svc *core.Service, opts ...CoordinatorOption) *Coordinator {
	c := &Coordinator{svc: svc}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Transaction is one activity-coordinated transaction.
type Transaction struct {
	activity *core.Activity
	set      *SignalSet
}

// Begin starts a transaction as an activity whose completion runs 2PC.
func (c *Coordinator) Begin(name string) (*Transaction, error) {
	a := c.svc.Begin(name)
	set := NewSignalSet()
	if c.delivery.Mode != 0 {
		set.SetDelivery(c.delivery)
	}
	if err := a.RegisterSignalSet(set); err != nil {
		return nil, err
	}
	a.SetCompletionSet(SetName)
	return &Transaction{activity: a, set: set}, nil
}

// Activity exposes the backing activity.
func (t *Transaction) Activity() *core.Activity { return t.activity }

// Enlist registers a resource as a participant.
func (t *Transaction) Enlist(r ots.Resource) error {
	_, err := t.activity.AddAction(SetName, NewResourceAction(r))
	return err
}

// EnlistNamed registers a participant with an explicit trace label.
func (t *Transaction) EnlistNamed(label string, r ots.Resource) error {
	_, err := t.activity.AddNamedAction(SetName, label, NewResourceAction(r))
	return err
}

// EnlistAction registers a raw Action (e.g. a remote participant proxy).
func (t *Transaction) EnlistAction(a core.Action) error {
	_, err := t.activity.AddAction(SetName, a)
	return err
}

// Commit drives prepare/commit through the activity, reporting whether the
// transaction committed.
func (t *Transaction) Commit(ctx context.Context) (bool, error) {
	out, err := t.activity.CompleteWithStatus(ctx, core.CompletionSuccess)
	if err != nil {
		return false, fmt.Errorf("twopc: complete: %w", err)
	}
	return out.Name == ResultCommitted, nil
}

// Rollback drives rollback through the activity.
func (t *Transaction) Rollback(ctx context.Context) error {
	if _, err := t.activity.CompleteWithStatus(ctx, core.CompletionFail); err != nil {
		return fmt.Errorf("twopc: rollback: %w", err)
	}
	return nil
}
