// Package ots is the public API of the transaction-service substrate: an
// Object Transaction Service in the style of CosTransactions, with flat
// and nested transactions, presumed-abort two-phase commit, a durable
// decision log and crash recovery.
//
// The Activity Service uses it for transactional activities (fig. 4 of the
// paper), exactly-once signal delivery (§3.4), and as the baseline in the
// framework-overhead ablation. The implementation lives in internal/ots.
package ots

import (
	"time"

	"github.com/extendedtx/activityservice/internal/lockmgr"
	iots "github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/wal"
)

// Transaction service types.
type (
	// Service is the transaction factory and recovery home.
	Service = iots.Service
	// Transaction exposes the Control/Coordinator/Terminator surface.
	Transaction = iots.Transaction
	// Resource is a two-phase commit participant.
	Resource = iots.Resource
	// SubtransactionAwareResource also receives nested completion events.
	SubtransactionAwareResource = iots.SubtransactionAwareResource
	// NamedResource is a Resource with a stable recovery name.
	NamedResource = iots.NamedResource
	// Synchronization receives before/after completion callbacks.
	Synchronization = iots.Synchronization
	// Directory re-binds named resources during recovery.
	Directory = iots.Directory
	// Status is the transaction status.
	Status = iots.Status
	// Vote is a phase-one answer.
	Vote = iots.Vote
	// Current is context-based demarcation (CosTransactions::Current).
	Current = iots.Current
	// Var is a strict-2PL transactional variable.
	Var = iots.Var
	// RecoveryStats summarises a recovery pass.
	RecoveryStats = iots.RecoveryStats
	// RecoveryTotals is the lifetime recovery counters and pending gauges.
	RecoveryTotals = iots.RecoveryTotals
	// HeuristicRecord is one durably recorded heuristic outcome.
	HeuristicRecord = iots.HeuristicRecord
	// Event is one observed commit-protocol step (see WithEventHook).
	Event = iots.Event
	// Stage identifies a commit-protocol boundary in an Event.
	Stage = iots.Stage
	// Option configures a Service.
	Option = iots.Option
	// BeginOption configures one transaction.
	BeginOption = iots.BeginOption
)

// Commit protocol stages (see WithEventHook).
const (
	StagePrepared        = iots.StagePrepared
	StageDecisionLogged  = iots.StageDecisionLogged
	StageCommitDelivered = iots.StageCommitDelivered
	StageDone            = iots.StageDone
)

// Statuses.
const (
	StatusUnknown        = iots.StatusUnknown
	StatusActive         = iots.StatusActive
	StatusMarkedRollback = iots.StatusMarkedRollback
	StatusPreparing      = iots.StatusPreparing
	StatusPrepared       = iots.StatusPrepared
	StatusCommitting     = iots.StatusCommitting
	StatusCommitted      = iots.StatusCommitted
	StatusRollingBack    = iots.StatusRollingBack
	StatusRolledBack     = iots.StatusRolledBack
)

// Votes.
const (
	VoteCommit   = iots.VoteCommit
	VoteRollback = iots.VoteRollback
	VoteReadOnly = iots.VoteReadOnly
)

// Errors.
var (
	ErrInactive          = iots.ErrInactive
	ErrRolledBack        = iots.ErrRolledBack
	ErrHeuristicMixed    = iots.ErrHeuristicMixed
	ErrHeuristicHazard   = iots.ErrHeuristicHazard
	ErrHeuristicCommit   = iots.ErrHeuristicCommit
	ErrHeuristicRollback = iots.ErrHeuristicRollback
	ErrWriteConflict     = iots.ErrWriteConflict
)

// NewService returns a transaction service.
func NewService(opts ...Option) *Service { return iots.NewService(opts...) }

// NewDirectory returns an empty recovery directory.
func NewDirectory() *Directory { return iots.NewDirectory() }

// NewCurrent returns context-based demarcation over svc.
func NewCurrent(svc *Service) *Current { return iots.NewCurrent(svc) }

// WithLog makes commit decisions durable, enabling recovery.
func WithLog(l *wal.Log) Option { return iots.WithLog(l) }

// WithDirectory sets the recovery directory.
func WithDirectory(d *Directory) Option { return iots.WithDirectory(d) }

// WithRetryPolicy sets phase-two retry behaviour.
func WithRetryPolicy(attempts int, delay time.Duration) Option {
	return iots.WithRetryPolicy(attempts, delay)
}

// WithEventHook installs a synchronous observer of commit-protocol
// boundaries (prepare completed, decision logged, per-resource delivery,
// done). Crash-injection tests use it to stop a coordinator at an exact
// protocol point; it must be fast and must not call back into the service.
func WithEventHook(fn func(Event)) Option { return iots.WithEventHook(fn) }

// WithDecisionGate installs the one decision hook, an error-returning
// barrier between the decision append and phase two: a coordinator-group
// leader wires orb.GroupMember's DecisionGate here so each decision is
// held until a quorum of the group durably has it, and a deposed (fenced)
// leader vetoes its in-flight commits instead of delivering outcomes the
// new leader's history does not contain. A veto unwinds to ErrRolledBack.
func WithDecisionGate(fn func(lsn uint64) error) Option { return iots.WithDecisionGate(fn) }

// WithTimeout marks a transaction rollback-only after d.
func WithTimeout(d time.Duration) BeginOption { return iots.WithTimeout(d) }

// WithTransaction returns a context carrying tx.
var WithTransaction = iots.WithTransaction

// FromContext returns the transaction carried by a context.
var FromContext = iots.FromContext

// NewMemoryLog returns an in-memory decision log (tests, examples).
func NewMemoryLog() *wal.Log { return wal.NewMemory() }

// OpenFileLog opens (creating if needed) a file-backed decision log.
func OpenFileLog(path string) (*wal.Log, error) { return wal.OpenFile(path) }

// LockManager is the read/write lock manager used by Vars and the LRUOW
// performance phase.
type LockManager = lockmgr.Manager

// NewLockManager returns an empty lock manager.
func NewLockManager() *LockManager { return lockmgr.New() }

// NewVar returns a strict-2PL transactional variable named name.
func NewVar(name string, initial []byte, locks *LockManager, wait time.Duration) *Var {
	return iots.NewVar(name, initial, locks, wait)
}
