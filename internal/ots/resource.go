package ots

import "sync"

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
