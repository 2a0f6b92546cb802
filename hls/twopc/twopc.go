// Package twopc maps the classic two-phase commit protocol onto the
// Activity Service, reproducing §4.1 and fig. 8 of the paper: a
// 2PCSignalSet generates "prepare" then "commit" (or "rollback") signals,
// and ResourceActions adapt transaction-service resources to the Action
// interface.
//
// This is the paper's demonstration that even the most classical
// transaction protocol is expressible in the generic framework. The
// declaration and the adapter live in internal/ots, whose own top-level
// commits run through them too, so there is one 2PC engine; this package
// is a Coordinator that runs it over an application's activities, with
// staged enlistment and a choice of delivery policy.
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

// The 2PCSignalSet's names, declared with the set in internal/ots: the set,
// its signals, the outcomes a ResourceAction answers with ("done" is fig.
// 8's acknowledgement, "abort" a veto) and the collated results.
const (
	SetName        = ots.SetName
	SignalPrepare  = ots.SignalPrepare
	SignalCommit   = ots.SignalCommit
	SignalRollback = ots.SignalRollback

	OutcomeDone     = ots.OutcomeDone
	OutcomeReadOnly = ots.OutcomeReadOnly
	OutcomeAbort    = ots.OutcomeAbort

	ResultCommitted  = ots.ResultCommitted
	ResultRolledBack = ots.ResultRolledBack
)

// ResourceAction adapts an ots.Resource to the Action protocol, letting
// any transaction-service participant join an activity-coordinated 2PC. It
// is internal/ots's adapter: a heuristic phase-two reply is an outcome,
// delivered once, and only a transient error is retried.
type ResourceAction = ots.ResourceAction

// NewResourceAction wraps r.
func NewResourceAction(r ots.Resource) *ResourceAction {
	return ots.NewResourceAction(r)
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
	set := ots.InitSignalSet(&t.set)
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
	t.staged = append(t.staged, *NewResourceAction(r))
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
