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
	"errors"
	"fmt"
	"slices"
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

// The 2PCSignalSet's sequences, shared by every transaction: "prepare"
// then "commit", or "rollback" after an "abort" vote (or a delivery
// failure during voting). An activity completing in a failure status skips
// the vote and rolls straight back.
var (
	voteThenCommit = []core.Signal{{Name: SignalPrepare}, {Name: SignalCommit}}
	rollBack       = []core.Signal{{Name: SignalRollback}}
)

// initSignalSet makes s, a zero SequenceSet, a fresh 2PCSignalSet of
// fig. 8 (sets are single-use, per fig. 7).
func initSignalSet(s *core.SequenceSet) *core.SequenceSet {
	s.BaseSet = core.NewBaseSet(SetName)
	return s.Signals(voteThenCommit...).
		OnFailure(rollBack...).
		Veto(OutcomeAbort).
		Outcomes(ResultCommitted, ResultRolledBack)
}

// ResourceAction adapts an ots.Resource to the Action protocol, letting
// any transaction-service participant join an activity-coordinated 2PC.
//
// It takes no lock: it relies on its caller to deliver one signal at a
// time, with each delivery ordered before the next. A coordinator does so
// in-process (serial rounds run in sequence; a concurrent round's workers
// finish before the next round starts), and internal/remote's action
// servant does so for every delivery that crosses the wire, so a
// redelivery never overlaps an earlier one.
type ResourceAction struct {
	resource ots.Resource
	voted    ots.Vote // zero until Prepare answers: rollback then reaches the resource
}

var _ core.Action = (*ResourceAction)(nil)

// NewResourceAction wraps r.
func NewResourceAction(r ots.Resource) *ResourceAction {
	return &ResourceAction{resource: r}
}

// ProcessSignal implements core.Action.
func (a *ResourceAction) ProcessSignal(_ context.Context, sig core.Signal) (core.Outcome, error) {
	switch sig.Name {
	case SignalPrepare:
		vote, err := a.resource.Prepare()
		if err != nil {
			// The resource may be prepared all the same (its reply was
			// lost): left unvoted, it is told to roll back.
			return core.Outcome{Name: OutcomeAbort}, nil
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

// Transaction is one activity-coordinated transaction, safe for concurrent
// use. Enlist stages its participant; the staged run is enrolled in one
// step before an EnlistNamed or EnlistAction enrols its own, and when
// Commit, Rollback or Activity ends the staging. After that, Enlist enrols
// at once, refused with core.ErrActivityInactive once completion starts.
type Transaction struct {
	activity *core.Activity
	set      core.SequenceSet // the activity's completion set

	mu     sync.Mutex
	staged []ResourceAction // enlisted, not yet enrolled; nil once staging is over
	room   [stageRoom]ResourceAction
}

// stageRoom is the room a transaction carries for staged participants: a
// run of up to this many enrols from the stack and allocates nothing; a
// longer one costs one allocation, and another per doubling.
const stageRoom = 8

// Begin starts a transaction as an activity whose completion runs 2PC.
func (c *Coordinator) Begin(name string) (*Transaction, error) {
	return c.begin(c.svc.Begin(name))
}

// begin makes the begun activity a transaction.
func (c *Coordinator) begin(a *core.Activity) (*Transaction, error) {
	t := &Transaction{activity: a}
	t.staged = t.room[:0]
	set := initSignalSet(&t.set)
	set.SetDelivery(c.delivery)
	if err := a.RegisterSignalSet(set); err != nil {
		return nil, err
	}
	a.SetCompletionSet(SetName)
	return t, nil
}

// Activity exposes the backing activity, ending the staging first so that
// code reaching the activity directly sees every participant.
func (t *Transaction) Activity() *core.Activity {
	_ = t.flush(true) // only this call hands the activity out: nothing has completed it
	return t.activity
}

// Enlist registers a resource as a participant.
func (t *Transaction) Enlist(r ots.Resource) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.staged == nil {
		_, err := t.activity.AddAction(SetName, NewResourceAction(r))
		return err
	}
	t.staged = append(t.staged, ResourceAction{resource: r})
	return nil
}

// EnlistNamed registers a participant with an explicit trace label.
func (t *Transaction) EnlistNamed(label string, r ots.Resource) error {
	if err := t.flush(false); err != nil {
		return err
	}
	_, err := t.activity.AddNamedAction(SetName, label, NewResourceAction(r))
	return err
}

// EnlistAction registers a raw Action (e.g. a remote participant proxy).
func (t *Transaction) EnlistAction(a core.Action) error {
	if err := t.flush(false); err != nil {
		return err
	}
	_, err := t.activity.AddAction(SetName, a)
	return err
}

// flush enrols the staged participants as one run, first ending the
// staging if end is set. Room left in the backing array stays staged:
// appending there moves no enrolled participant.
func (t *Transaction) flush(end bool) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	staged := t.staged
	t.staged = staged[len(staged):]
	if end {
		t.staged = nil
	}
	if len(staged) == 0 {
		return nil
	}
	var buf [stageRoom]core.Action
	run := slices.Grow(buf[:0], len(staged))
	for i := range staged {
		run = append(run, &staged[i])
	}
	return t.activity.AddActions(SetName, run...)
}

// Commit drives prepare/commit through the activity, reporting whether the
// transaction committed. An activity already FailOnly (marked, or timed
// out) rolls back: Commit reports false with no error.
func (t *Transaction) Commit(ctx context.Context) (bool, error) {
	out, err := t.complete(ctx, core.CompletionSuccess)
	if err != nil && !errors.Is(err, core.ErrCompletionStatusFixed) {
		return false, fmt.Errorf("twopc: complete: %w", err)
	}
	return out.Name == ResultCommitted, nil
}

// Rollback drives rollback through the activity.
func (t *Transaction) Rollback(ctx context.Context) error {
	if _, err := t.complete(ctx, core.CompletionFail); err != nil {
		return fmt.Errorf("twopc: rollback: %w", err)
	}
	return nil
}

// complete ends the staging and completes the activity with cs, or with
// the FailOnly status it already has.
func (t *Transaction) complete(ctx context.Context, cs core.CompletionStatus) (core.Outcome, error) {
	if err := t.flush(true); err != nil {
		return core.Outcome{}, err
	}
	return t.activity.CompleteWithStatus(ctx, cs)
}
