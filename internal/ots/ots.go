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
	gen        *ids.Generator
	log        *wal.Log
	dir        *Directory
	retries    int
	retryDelay time.Duration

	hook         func(Event)
	decisionGate func(lsn uint64) error

	mu       sync.Mutex
	inflight map[ids.UID]*Transaction

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

// WithRetryPolicy sets how many times phase-two delivery is retried per
// resource and the delay between attempts.
func WithRetryPolicy(attempts int, delay time.Duration) Option {
	return optionFunc(func(s *Service) {
		if attempts > 0 {
			s.retries = attempts
		}
		s.retryDelay = delay
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
// appending the decision and releasing phase two — the new leader's
// history does not contain the decision, so delivering commits from it
// would split the outcome. A vetoed decision unwinds exactly like a failed
// append: every prepared participant is rolled back and the terminator
// sees ErrRolledBack. The orphan decision record left in the deposed
// leader's log is removed by its automatic rejoin truncation (it is beyond
// the new term's start, so it is never replayed by any elected leader);
// the deposed process must rejoin before running Recover on that log. A
// slow standby must NOT veto — only a raised fence should; a gate waiting
// on acknowledgements blocks (see remote.ReplicationPrimary.DecisionGateN
// for why neither degrading nor vetoing is safe). The gate runs inline on
// the committing goroutine.
func WithDecisionGate(fn func(lsn uint64) error) Option {
	return optionFunc(func(s *Service) { s.decisionGate = fn })
}

// NewService returns a transaction service.
func NewService(opts ...Option) *Service {
	s := &Service{
		gen:        ids.NewGenerator(),
		dir:        NewDirectory(),
		retries:    3,
		retryDelay: time.Millisecond,
		inflight:   make(map[ids.UID]*Transaction),
	}
	for _, o := range opts {
		o.apply(s)
	}
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
	t := s.newTransaction(nil, opts...)
	s.mu.Lock()
	s.inflight[t.id] = t
	s.mu.Unlock()
	return t
}

func (s *Service) newTransaction(parent *Transaction, opts ...BeginOption) *Transaction {
	t := &Transaction{
		svc:      s,
		id:       s.gen.New(),
		parent:   parent,
		status:   StatusActive,
		children: make(map[ids.UID]*Transaction),
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

// Inflight returns the number of live top-level transactions.
func (s *Service) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// emit delivers e to the installed event hook, if any.
func (s *Service) emit(e Event) {
	if s.hook != nil {
		s.hook(e)
	}
}

func (s *Service) forget(t *Transaction) {
	s.mu.Lock()
	delete(s.inflight, t.id)
	s.mu.Unlock()
}

// registeredResource pairs a resource with its optional recovery name.
type registeredResource struct {
	res  Resource
	name string // empty when not recoverable
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
	resources []registeredResource
	syncs     []Synchronization
	children  map[ids.UID]*Transaction
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
	t.resources = append(t.resources, registeredResource{res: r, name: name})
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
	resources := append([]registeredResource(nil), t.resources...)
	t.mu.Unlock()

	err := t.completeTopLevel(resources, reportHeuristics)
	t.finish(syncs)
	return err
}

// completeTopLevel runs the commit protocol over the snapshot of
// registered resources. The caller has set status to StatusPreparing.
func (t *Transaction) completeTopLevel(resources []registeredResource, reportHeuristics bool) error {
	// One-phase optimisation.
	if len(resources) == 0 {
		t.setStatus(StatusCommitted)
		return nil
	}
	if len(resources) == 1 {
		t.setStatus(StatusCommitting)
		if err := resources[0].res.CommitOnePhase(); err != nil {
			t.setStatus(StatusRolledBack)
			return fmt.Errorf("%w: one-phase commit: %v", ErrRolledBack, err)
		}
		t.setStatus(StatusCommitted)
		return nil
	}

	// Phase one.
	prepared := make([]registeredResource, 0, len(resources))
	for i, rr := range resources {
		vote, err := rr.res.Prepare()
		if err != nil {
			vote = VoteRollback
		}
		switch vote {
		case VoteCommit:
			prepared = append(prepared, rr)
		case VoteReadOnly:
			// Drop: no phase two for read-only participants.
		default: // VoteRollback or error
			// The vetoing resource has rolled itself back. Roll back the
			// already-prepared and the not-yet-asked participants.
			t.setStatus(StatusRollingBack)
			for _, p := range prepared {
				t.deliverRollback(p)
			}
			for _, rest := range resources[i+1:] {
				t.deliverRollback(rest)
			}
			t.setStatus(StatusRolledBack)
			if err != nil {
				return fmt.Errorf("%w: prepare failed: %v", ErrRolledBack, err)
			}
			return fmt.Errorf("%w: participant voted rollback", ErrRolledBack)
		}
	}
	if len(prepared) == 0 { // everyone read-only
		t.setStatus(StatusCommitted)
		return nil
	}
	t.setStatus(StatusPrepared)
	t.svc.emit(Event{Tx: t.id, Stage: StagePrepared})

	// Commit point: the decision record must be durable before phase two
	// (presumed abort — without it, recovery rolls back).
	if err := t.logDecision(prepared); err != nil {
		t.setStatus(StatusRollingBack)
		for _, p := range prepared {
			t.deliverRollback(p)
		}
		t.setStatus(StatusRolledBack)
		// Both wrapped: callers unwind on ErrRolledBack, and a decision-gate
		// veto keeps its cause inspectable (a deposed coordinator's FENCED
		// system exception carries the leader hint clients redirect on).
		return fmt.Errorf("%w: decision log: %w", ErrRolledBack, err)
	}
	t.svc.emit(Event{Tx: t.id, Stage: StageDecisionLogged})

	// Phase two. Three outcomes per participant: delivered, heuristically
	// resolved (the participant decided unilaterally after prepare — a
	// definitive, durably recorded divergence), or failed (outcome
	// unknown). Only delivery failures keep the decision record live: the
	// participant is still prepared and Recover() must re-drive it, so the
	// done record may be appended only when no delivery failed and the
	// participant must NOT be told to Forget — forgetting would discard
	// the very recovery state the replay needs.
	t.setStatus(StatusCommitting)
	committed, failed, damaged := 0, 0, 0
	for _, p := range prepared {
		err := t.deliverCommit(p.res)
		switch {
		case err == nil:
			committed++
			t.svc.emit(Event{Tx: t.id, Stage: StageCommitDelivered, Resource: p.name})
		case errors.Is(err, ErrHeuristicRollback):
			damaged++
			t.svc.recordHeuristic(t.id, p.name, StatusRolledBack)
		case errors.Is(err, ErrHeuristicCommit):
			// The participant jumped the gun in the direction the decision
			// took anyway: converged, but the heuristic is still recorded
			// so operators can audit it until ForgetHeuristics.
			committed++
			t.svc.recordHeuristic(t.id, p.name, StatusCommitted)
		default:
			failed++
		}
	}
	t.setStatus(StatusCommitted)
	if failed == 0 {
		t.logDone()
		t.svc.emit(Event{Tx: t.id, Stage: StageDone})
	}
	if reportHeuristics {
		switch {
		case damaged > 0:
			return fmt.Errorf("%w: %d committed, %d heuristically rolled back, %d undelivered",
				ErrHeuristicMixed, committed, damaged, failed)
		case failed > 0 && committed > 0:
			return fmt.Errorf("%w: %d committed, %d failed", ErrHeuristicMixed, committed, failed)
		case failed > 0:
			return fmt.Errorf("%w: all %d phase-two deliveries failed", ErrHeuristicHazard, failed)
		}
	}
	return nil
}

// deliverRollback rolls one participant back, capturing a heuristic
// commit (the participant unilaterally committed after prepare) as
// durable heuristic damage.
func (t *Transaction) deliverRollback(rr registeredResource) {
	if err := rr.res.Rollback(); err != nil && errors.Is(err, ErrHeuristicCommit) {
		t.svc.recordHeuristic(t.id, rr.name, StatusCommitted)
	}
}

// deliverCommit retries phase-two delivery per the service retry policy.
func (t *Transaction) deliverCommit(r Resource) error {
	var err error
	for attempt := 0; attempt < t.svc.retries; attempt++ {
		if err = r.Commit(); err == nil {
			return nil
		}
		if t.svc.retryDelay > 0 {
			time.Sleep(t.svc.retryDelay)
		}
	}
	return err
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
	resources := append([]registeredResource(nil), t.resources...)
	t.mu.Unlock()

	for _, rr := range resources {
		if aware, ok := rr.res.(SubtransactionAwareResource); ok {
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

func (t *Transaction) adopt(resources []registeredResource) {
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
	resources := append([]registeredResource(nil), t.resources...)
	syncs := append([]Synchronization(nil), t.syncs...)
	t.mu.Unlock()

	for _, rr := range resources {
		if !t.IsTopLevel() {
			if aware, ok := rr.res.(SubtransactionAwareResource); ok {
				_ = aware.RollbackSubtransaction()
				continue
			}
			_ = rr.res.Rollback()
			continue
		}
		t.deliverRollback(rr)
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

// finish runs after-completion synchronizations and forgets the
// transaction.
func (t *Transaction) finish(syncs []Synchronization) {
	st := t.Status()
	for _, s := range syncs {
		s.AfterCompletion(st)
	}
	t.svc.forget(t)
}

func (t *Transaction) setStatus(s Status) {
	t.mu.Lock()
	t.status = s
	t.mu.Unlock()
}
