// Package ots implements the transaction-service substrate the Activity
// Service builds on: an Object Transaction Service in the style of
// CosTransactions.
//
// It provides flat and nested transactions, two-phase commit with presumed
// abort and a durable commit-decision record (via internal/wal), the
// one-phase optimisation, read-only votes, synchronizations, heuristic
// outcome reporting, transaction timeouts and crash recovery. Nested
// transactions follow the semantics the paper's introduction describes:
// a subtransaction's commit is provisional and its resources are inherited
// by the parent; durability belongs to the top-level transaction alone.
package ots

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/wal"
)

// Transaction service errors.
var (
	// ErrInactive reports an operation on a transaction that is no longer
	// accepting it (completed, completing, or unknown).
	ErrInactive = errors.New("ots: transaction is not active")
	// ErrRolledBack reports that commit was requested but the transaction
	// rolled back.
	ErrRolledBack = errors.New("ots: transaction rolled back")
	// ErrHeuristicMixed reports that some participants committed and some
	// rolled back.
	ErrHeuristicMixed = errors.New("ots: heuristic mixed outcome")
	// ErrHeuristicHazard reports that the outcome of some participants is
	// unknown.
	ErrHeuristicHazard = errors.New("ots: heuristic hazard")
	// ErrHeuristicCommit is returned (wrapped) by a participant's Rollback
	// when it had already, unilaterally, committed its prepared work — the
	// CosTransactions HeuristicCommit exception.
	ErrHeuristicCommit = errors.New("ots: participant heuristically committed")
	// ErrHeuristicRollback is returned (wrapped) by a participant's Commit
	// when it had already, unilaterally, rolled back its prepared work —
	// the CosTransactions HeuristicRollback exception.
	ErrHeuristicRollback = errors.New("ots: participant heuristically rolled back")
)

// Service is the transaction factory and recovery home. It corresponds to
// the TransactionFactory plus the per-ORB recovery machinery.
type Service struct {
	gen   *ids.Generator
	log   *wal.Log
	dir   *Directory
	retry core.RetryPolicy
	// core drives each two-phase commit as an activity. It has no journal
	// and no recorder: the decision log is the commit's only record.
	core *core.Service

	hook         func(Event)
	decisionGate func(lsn uint64) error

	// term is the log's known term when the service was made: the one
	// term its recovery view answers for (loadViewLocked).
	term uint64

	// viewMu guards the cached decision-log view shared by every recovery
	// entry point (see recovery.go): one scan serves Recover,
	// ReplayCompletion, Heuristics and CheckpointLog until invalidated.
	viewMu sync.Mutex
	view   *logView

	// totMu guards the cumulative recovery totals the admin scrape reads.
	totMu  sync.Mutex
	totals RecoveryTotals
}

// Option configures a Service.
type Option interface {
	apply(*Service)
}

type optionFunc func(*Service)

func (f optionFunc) apply(s *Service) { f(s) }

// WithLog makes commit decisions durable in l, enabling recovery.
func WithLog(l *wal.Log) Option {
	return optionFunc(func(s *Service) { s.log = l })
}

// WithDirectory sets the resource directory used to re-bind named
// resources during recovery.
func WithDirectory(d *Directory) Option {
	return optionFunc(func(s *Service) { s.dir = d })
}

// WithRetryPolicy sets how many times phase-two delivery is attempted per
// resource and the delay between attempts: the core.RetryPolicy the
// service's commits and recovery passes deliver with. A heuristic outcome
// (ErrHeuristicRollback, ErrHeuristicCommit) is not retried: it is the
// participant's final answer.
func WithRetryPolicy(attempts int, delay time.Duration) Option {
	return optionFunc(func(s *Service) {
		if attempts > 0 {
			s.retry.Attempts = attempts
		}
		s.retry.Backoff = delay
	})
}

// WithEventHook installs a synchronous observer of top-level commit
// protocol steps: phase-one completion, the durable decision, each
// phase-two delivery and the done record. The hook runs inline on the
// committing goroutine, which is what lets crash-restart tests kill the
// process at an exact protocol boundary; production observers must return
// quickly.
func WithEventHook(fn func(Event)) Option {
	return optionFunc(func(s *Service) { s.hook = fn })
}

// WithDecisionGate installs the one decision hook: an error-returning
// barrier invoked after each commit decision is appended to the local log
// (with the decision record's LSN) but before the decision is folded into
// the recovery view or any phase-two delivery starts. A replicated
// coordinator uses it to hold the decision until a quorum of its group
// durably has it, and to detect that it was deposed (fenced) between
// appending the decision and releasing phase two.
//
// A gate error that wraps wal.ErrFenced, like a decision append that
// fails with it, leaves the transaction in doubt: a follower may already
// hold the decision durably (its ack rides its next fetch) and win the
// next election, or may not, so this coordinator delivers neither commit
// nor rollback and writes no record; Commit returns the error, not
// ErrRolledBack, with the status StatusUnknown, and the group's next
// leader resolves the transaction. Any other veto unwinds exactly like a
// failed append: every prepared participant is rolled back, the
// terminator sees ErrRolledBack, and a RecordVoid marker retracts the
// decision record. A slow standby must NOT veto — only a raised fence
// should; a gate waiting on acknowledgements blocks (see
// remote.ReplicationPrimary.DecisionGateN for why neither degrading nor
// vetoing is safe). The gate runs inline on the committing goroutine.
func WithDecisionGate(fn func(lsn uint64) error) Option {
	return optionFunc(func(s *Service) { s.decisionGate = fn })
}

// NewService returns a transaction service.
func NewService(opts ...Option) *Service {
	s := &Service{
		gen:   ids.NewGenerator(),
		dir:   NewDirectory(),
		retry: core.RetryPolicy{Attempts: 3, Backoff: time.Millisecond},
	}
	for _, o := range opts {
		o.apply(s)
	}
	if s.log != nil {
		s.term = s.log.KnownTerm()
	}
	s.core = core.New(core.WithRetryPolicy(s.retry))
	return s
}

// Directory returns the service's resource directory.
func (s *Service) Directory() *Directory { return s.dir }

// BeginOption configures one transaction.
type BeginOption interface {
	applyBegin(*Transaction)
}

type beginOptionFunc func(*Transaction)

func (f beginOptionFunc) applyBegin(t *Transaction) { f(t) }

// WithTimeout marks the transaction rollback-only if it is still active
// after d.
func WithTimeout(d time.Duration) BeginOption {
	return beginOptionFunc(func(t *Transaction) { t.timeout = d })
}

// Begin creates a new top-level transaction.
func (s *Service) Begin(opts ...BeginOption) *Transaction {
	return s.newTransaction(nil, opts...)
}

func (s *Service) newTransaction(parent *Transaction, opts ...BeginOption) *Transaction {
	t := &Transaction{
		svc:    s,
		id:     s.gen.New(),
		parent: parent,
		status: StatusActive,
	}
	for _, o := range opts {
		o.applyBegin(t)
	}
	if t.timeout > 0 {
		t.timer = time.AfterFunc(t.timeout, func() {
			// Best effort: the transaction may have completed already.
			_ = t.RollbackOnly()
		})
	}
	return t
}

// emit delivers e to the installed event hook, if any.
func (s *Service) emit(e Event) {
	if s.hook != nil {
		s.hook(e)
	}
}

// Transaction is a transaction in the CosTransactions sense: it exposes the
// Control surface (identity), the Coordinator surface (registration,
// subtransactions) and the Terminator surface (commit/rollback).
type Transaction struct {
	svc     *Service
	id      ids.UID
	parent  *Transaction
	timeout time.Duration
	timer   *time.Timer

	mu        sync.Mutex
	status    Status
	resources []ResourceAction // registered, with their recovery names
	syncs     []Synchronization
	children  map[ids.UID]*Transaction // made by the first BeginSubtransaction
}

// ID returns the transaction identifier.
func (t *Transaction) ID() ids.UID { return t.id }

// Parent returns the enclosing transaction, or nil for a top-level one.
func (t *Transaction) Parent() *Transaction { return t.parent }

// IsTopLevel reports whether the transaction has no parent.
func (t *Transaction) IsTopLevel() bool { return t.parent == nil }

// TopLevel returns the root of the nesting hierarchy.
func (t *Transaction) TopLevel() *Transaction {
	for t.parent != nil {
		t = t.parent
	}
	return t
}

// Depth returns 0 for a top-level transaction, 1 for its children, etc.
func (t *Transaction) Depth() int {
	d := 0
	for p := t.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Status returns the current status.
func (t *Transaction) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// IsSame reports whether o denotes the same transaction.
func (t *Transaction) IsSame(o *Transaction) bool {
	return o != nil && t.id == o.id
}

// RegisterResource enlists r as a 2PC participant. If r is a NamedResource
// its name is written to the commit decision record for recovery.
func (t *Transaction) RegisterResource(r Resource) error {
	name := ""
	if nr, ok := r.(NamedResource); ok {
		name = nr.RecoveryName()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status != StatusActive && t.status != StatusMarkedRollback {
		return fmt.Errorf("%w: cannot register resource in status %s", ErrInactive, t.status)
	}
	t.resources = append(t.resources, ResourceAction{resource: r, name: name})
	return nil
}

// RegisterSynchronization enlists a before/after completion callback.
// Synchronizations only run at top-level completion, per CosTransactions.
func (t *Transaction) RegisterSynchronization(s Synchronization) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status != StatusActive && t.status != StatusMarkedRollback {
		return fmt.Errorf("%w: cannot register synchronization in status %s", ErrInactive, t.status)
	}
	t.syncs = append(t.syncs, s)
	return nil
}

// RollbackOnly constrains the transaction to roll back.
func (t *Transaction) RollbackOnly() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch t.status {
	case StatusActive:
		t.status = StatusMarkedRollback
		return nil
	case StatusMarkedRollback:
		return nil
	default:
		return fmt.Errorf("%w: status %s", ErrInactive, t.status)
	}
}

// BeginSubtransaction starts a nested transaction.
func (t *Transaction) BeginSubtransaction() (*Transaction, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.status != StatusActive {
		return nil, fmt.Errorf("%w: cannot nest under status %s", ErrInactive, t.status)
	}
	child := t.svc.newTransaction(t)
	if t.children == nil {
		t.children = make(map[ids.UID]*Transaction)
	}
	t.children[child.id] = child
	return child, nil
}

// activeChildren snapshots the children that have not reached a terminal
// state.
func (t *Transaction) activeChildren() []*Transaction {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Transaction
	for _, c := range t.children {
		if !c.Status().Terminal() {
			out = append(out, c)
		}
	}
	return out
}

func (t *Transaction) removeChild(c *Transaction) {
	t.mu.Lock()
	delete(t.children, c.id)
	t.mu.Unlock()
}

// Commit drives the transaction to completion. For a top-level transaction
// this is two-phase commit (with the one-phase and read-only
// optimisations); for a subtransaction it is a provisional commit that
// propagates the registered resources to the parent.
//
// When reportHeuristics is true, heuristic phase-two outcomes are returned
// as ErrHeuristicMixed / ErrHeuristicHazard even though the logical
// outcome is commit.
func (t *Transaction) Commit(reportHeuristics bool) error {
	if t.timer != nil {
		t.timer.Stop()
	}
	// Outstanding subtransactions are rolled back and force the parent to
	// roll back too: committing around live children would violate nesting.
	if kids := t.activeChildren(); len(kids) > 0 {
		for _, c := range kids {
			_ = c.Rollback()
		}
		_ = t.Rollback()
		return fmt.Errorf("%w: outstanding subtransactions", ErrRolledBack)
	}
	if !t.IsTopLevel() {
		return t.commitNested()
	}

	t.mu.Lock()
	switch t.status {
	case StatusActive:
	case StatusMarkedRollback:
		t.mu.Unlock()
		_ = t.Rollback()
		return fmt.Errorf("%w: marked rollback-only", ErrRolledBack)
	default:
		st := t.status
		t.mu.Unlock()
		return fmt.Errorf("%w: status %s", ErrInactive, st)
	}
	syncs := append([]Synchronization(nil), t.syncs...)
	t.mu.Unlock()

	// before_completion outside the lock; an error forces rollback.
	for _, s := range syncs {
		if err := s.BeforeCompletion(); err != nil {
			_ = t.Rollback()
			return fmt.Errorf("%w: before-completion: %v", ErrRolledBack, err)
		}
	}

	t.mu.Lock()
	if t.status != StatusActive { // marked rollback-only concurrently
		t.mu.Unlock()
		_ = t.Rollback()
		return fmt.Errorf("%w: marked rollback-only", ErrRolledBack)
	}
	t.status = StatusPreparing
	// The completion owns the participants from here on: it marks their
	// votes in place, and a late adoption appends to a fresh slice.
	resources := t.resources
	t.resources = nil
	t.mu.Unlock()

	var err error
	switch len(resources) {
	case 0:
		t.setStatus(StatusCommitted)
	case 1:
		err = t.commitOnePhase(resources[0])
	default:
		err = t.commitTwoPhase(resources, reportHeuristics)
	}
	t.finish(syncs)
	return err
}

// commitOnePhase commits a sole participant in one step.
func (t *Transaction) commitOnePhase(r ResourceAction) error {
	t.setStatus(StatusCommitting)
	if err := r.resource.CommitOnePhase(); err != nil {
		if errors.Is(err, ErrHeuristicCommit) {
			// Committed on its own: the outcome stands, and the heuristic
			// is recorded as phase two records it.
			t.svc.recordHeuristic(t.id, r.name, StatusCommitted)
			t.setStatus(StatusCommitted)
			return nil
		}
		t.setStatus(StatusRolledBack)
		return fmt.Errorf("%w: one-phase commit: %v", ErrRolledBack, err)
	}
	t.setStatus(StatusCommitted)
	return nil
}

// commitNested provisionally commits a subtransaction: resources propagate
// to the parent, and subtransaction-aware resources are told.
func (t *Transaction) commitNested() error {
	t.mu.Lock()
	switch t.status {
	case StatusActive:
	case StatusMarkedRollback:
		t.mu.Unlock()
		_ = t.Rollback()
		return fmt.Errorf("%w: marked rollback-only", ErrRolledBack)
	default:
		st := t.status
		t.mu.Unlock()
		return fmt.Errorf("%w: status %s", ErrInactive, st)
	}
	t.status = StatusCommitting
	resources := t.resources[:len(t.resources):len(t.resources)]
	t.mu.Unlock()

	for _, rr := range resources {
		if aware, ok := rr.resource.(SubtransactionAwareResource); ok {
			if err := aware.CommitSubtransaction(t.parent); err != nil {
				// A refusal vetoes the provisional commit.
				t.setStatus(StatusActive)
				_ = t.Rollback()
				return fmt.Errorf("%w: subtransaction commit refused: %v", ErrRolledBack, err)
			}
		}
	}
	// Inheritance: the parent adopts every registered resource (the paper:
	// "Resources acquired within a subtransaction are inherited (retained)
	// by parent transactions upon the commit of the subtransaction").
	t.parent.adopt(resources)
	t.setStatus(StatusCommitted)
	t.parent.removeChild(t)
	return nil
}

func (t *Transaction) adopt(resources []ResourceAction) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.resources = append(t.resources, resources...)
}

// Rollback undoes the transaction. For subtransactions,
// subtransaction-aware resources receive RollbackSubtransaction; plain
// resources are rolled back directly.
func (t *Transaction) Rollback() error {
	if t.timer != nil {
		t.timer.Stop()
	}
	// Cascade into live children first.
	for _, c := range t.activeChildren() {
		_ = c.Rollback()
	}

	t.mu.Lock()
	switch t.status {
	case StatusActive, StatusMarkedRollback:
	default:
		st := t.status
		t.mu.Unlock()
		return fmt.Errorf("%w: status %s", ErrInactive, st)
	}
	t.status = StatusRollingBack
	resources := t.resources
	t.resources = nil // owned by the rollback, as by a commit
	syncs := append([]Synchronization(nil), t.syncs...)
	t.mu.Unlock()

	switch {
	case !t.IsTopLevel():
		for _, rr := range resources {
			if aware, ok := rr.resource.(SubtransactionAwareResource); ok {
				_ = aware.RollbackSubtransaction()
				continue
			}
			_ = rr.resource.Rollback()
		}
	case len(resources) > 0:
		// The failure status skips the vote: the set rolls straight back.
		t.drive(resources, core.CompletionFail)
	}
	t.setStatus(StatusRolledBack)
	if t.parent != nil {
		t.parent.removeChild(t)
	}
	if t.IsTopLevel() {
		t.finish(syncs)
	}
	return nil
}

// finish runs after-completion synchronizations.
func (t *Transaction) finish(syncs []Synchronization) {
	st := t.Status()
	for _, s := range syncs {
		s.AfterCompletion(st)
	}
}

func (t *Transaction) setStatus(s Status) {
	t.mu.Lock()
	t.status = s
	t.mu.Unlock()
}
