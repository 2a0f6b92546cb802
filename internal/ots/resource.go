package ots

import (
	"context"
	"errors"
	"sync"

	"github.com/extendedtx/activityservice/internal/core"
)

// Resource is a two-phase-commit participant, mirroring the CosTransactions
// Resource interface. Implementations must tolerate repeated Commit and
// Rollback calls: the coordinator retries during failure recovery, so both
// must be idempotent.
type Resource interface {
	// Prepare votes on the outcome. After voting VoteCommit the resource
	// must be able to either Commit or Rollback durably.
	Prepare() (Vote, error)
	// Commit makes the prepared work permanent.
	Commit() error
	// Rollback undoes the work.
	Rollback() error
	// CommitOnePhase both prepares and commits, used when the resource is
	// the transaction's only participant.
	CommitOnePhase() error
	// Forget tells the resource the coordinator has seen its heuristic
	// outcome and it may discard recovery state.
	Forget() error
}

// SubtransactionAwareResource additionally receives nested-transaction
// completion callbacks. On subtransaction commit the resource is inherited
// by (re-registered with) the parent, as the paper describes for nested
// transactions and the LRUOW model.
type SubtransactionAwareResource interface {
	Resource
	// CommitSubtransaction tells the resource its enclosing subtransaction
	// committed provisionally into parent.
	CommitSubtransaction(parent *Transaction) error
	// RollbackSubtransaction tells the resource its enclosing
	// subtransaction rolled back.
	RollbackSubtransaction() error
}

// Synchronization receives before/after completion callbacks (flush caches
// before prepare, release cursors after completion).
type Synchronization interface {
	// BeforeCompletion runs before phase one. An error marks the
	// transaction rollback-only.
	BeforeCompletion() error
	// AfterCompletion runs after the outcome is decided, with the final
	// status.
	AfterCompletion(Status)
}

// NamedResource is a Resource with a stable recovery name. Transactions log
// the names of prepared participants so that, after a crash, the recovery
// manager can re-bind them through a Directory and finish the protocol.
type NamedResource interface {
	Resource
	// RecoveryName returns a name stable across process restarts.
	RecoveryName() string
}

// ResourceBatcher is a Resource proxy whose host can run one protocol
// operation over a same-host run of resources in one call. A transaction
// enrols a participant over one as a core.EndpointBatcher, so each round
// of a commit reaches a participant host once, not once per participant.
type ResourceBatcher interface {
	// BatchEndpoint names the proxy's host; "" never batches. It must not
	// change once the participant is enrolled.
	BatchEndpoint() string
	// BatchResources has the host run op — SignalPrepare, SignalCommit or
	// SignalRollback — on each resource of run, proxies on this proxy's
	// host with this one first, one at a time and in order. A phase-two
	// member is retried per retry until it answers, a heuristic answer
	// included; prepare is never retried. With stop set the host stops
	// after the first member that fails, or whose prepare votes neither
	// commit nor read-only. It returns one reply per member it ran, a
	// prefix of run in run order. An error wrapping ErrBatchRefused means
	// the host ran nothing; any other error leaves the run's fate unknown.
	BatchResources(ctx context.Context, op string, run []Resource, stop bool, retry core.RetryPolicy) ([]BatchReply, error)
}

// BatchReply is one member's reply to a resource batch: what a direct call
// of the operation would have returned.
type BatchReply struct {
	// Vote is prepare's vote.
	Vote Vote
	// Err is the operation's error, a heuristic sentinel included.
	Err error
	// Attempts counts the host's calls of the operation.
	Attempts int
}

// ErrBatchRefused reports a resource batch that ran no member: the host
// refused it (an unknown member, or a host that does not serve batches),
// or it never reached the host.
var ErrBatchRefused = errors.New("ots: resource batch refused")

// Directory maps recovery names to resource instances after a restart.
// It plays the role the ORB's persistent object references play in a real
// CORBA deployment. Safe for concurrent use.
type Directory struct {
	mu sync.RWMutex
	m  map[string]Resource
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{m: make(map[string]Resource)}
}

// Register binds name to r, replacing any previous binding.
func (d *Directory) Register(name string, r Resource) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.m[name] = r
}

// Lookup returns the resource bound to name.
func (d *Directory) Lookup(name string) (Resource, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	r, ok := d.m[name]
	return r, ok
}

// Names returns the registered names, unordered.
func (d *Directory) Names() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]string, 0, len(d.m))
	for k := range d.m {
		out = append(out, k)
	}
	return out
}
