// Package ots is the public API of the transaction-service substrate: an
// Object Transaction Service in the style of CosTransactions, with flat
// and nested transactions, presumed-abort two-phase commit, a durable
// decision log and crash recovery.
//
// The Activity Service uses it for transactional activities (fig. 4 of the
// paper), and its two-phase commit is the framework's own 2PC model: a
// top-level commit runs through an activity with the fig. 8 signal set.
// The implementation lives in internal/ots; this package re-exports the
// part the examples, cmd and the benchmark call.
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
	// NamedResource is a two-phase commit participant with a stable
	// recovery name.
	NamedResource = iots.NamedResource
	// Vote is a phase-one answer.
	Vote = iots.Vote
	// Var is a strict-2PL transactional variable.
	Var = iots.Var
	// Event is one observed commit-protocol step (see WithEventHook).
	Event = iots.Event
	// Option configures a Service.
	Option = iots.Option
)

// Commit protocol stages (see WithEventHook).
const (
	StagePrepared        = iots.StagePrepared
	StageDecisionLogged  = iots.StageDecisionLogged
	StageCommitDelivered = iots.StageCommitDelivered
	StageDone            = iots.StageDone
)

// Votes.
const (
	VoteCommit   = iots.VoteCommit
	VoteRollback = iots.VoteRollback
)

// NewService returns a transaction service.
func NewService(opts ...Option) *Service { return iots.NewService(opts...) }

// WithLog makes commit decisions durable, enabling recovery.
func WithLog(l *wal.Log) Option { return iots.WithLog(l) }

// WithEventHook installs a synchronous observer of commit-protocol
// boundaries (prepare completed, decision logged, per-resource delivery,
// done). Crash-injection tests use it to stop a coordinator at an exact
// protocol point; it must be fast and must not call back into the service.
func WithEventHook(fn func(Event)) Option { return iots.WithEventHook(fn) }

// WithDecisionGate installs the one decision hook, an error-returning
// barrier between the decision append and phase two: a coordinator-group
// leader wires orb.GroupMember's DecisionGate here so each decision is
// held until a quorum of the group durably has it, and a deposed (fenced)
// leader delivers no phase two, leaving its in-flight commits to the next
// leader (Commit returns the fence, with the status unknown). Any other
// veto unwinds to a rollback.
func WithDecisionGate(fn func(lsn uint64) error) Option { return iots.WithDecisionGate(fn) }

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
