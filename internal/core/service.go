package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/trace"
	"github.com/extendedtx/activityservice/internal/wal"
)

// Service is the Activity Service: the factory for activities and the home
// of recovery. One Service per process is typical (it plays the role the
// per-ORB service plays in the CORBA architecture of fig. 3).
type Service struct {
	gen   *ids.Generator
	rec   *trace.Recorder
	retry RetryPolicy

	journal *journal

	// live holds every activity begun and not yet completed.
	liveMu sync.RWMutex
	live   map[ids.UID]*Activity

	mu        sync.Mutex
	setFacs   map[string]SignalSetFactory
	actionFac map[string]ActionFactory

	// Drain state (see Drain): draining is read on the forget fast path;
	// drainMu orders the draining-flag flip, TryBegin's
	// check-then-register, and the quiesce close, so a TryBegin racing a
	// Drain can never slip an activity past WaitQuiesced.
	draining      atomic.Bool
	drainMu       sync.Mutex
	quiesced      chan struct{}
	quiesceClosed bool
}

// Option configures a Service.
type Option interface {
	apply(*Service)
}

type optionFunc func(*Service)

func (f optionFunc) apply(s *Service) { f(s) }

// WithTrace records every coordinator interaction into rec, enabling the
// figure-regeneration tooling.
func WithTrace(rec *trace.Recorder) Option {
	return optionFunc(func(s *Service) { s.rec = rec })
}

// WithRetryPolicy sets the signal delivery retry policy (at-least-once).
func WithRetryPolicy(p RetryPolicy) Option {
	return optionFunc(func(s *Service) { s.retry = p })
}

// WithJournal persists activity structure events to log so the activity
// tree can be rebuilt after a crash (§3.4).
func WithJournal(log *wal.Log) Option {
	return optionFunc(func(s *Service) { s.journal = &journal{log: log} })
}

// New returns an Activity Service.
func New(opts ...Option) *Service {
	s := &Service{
		gen:       ids.NewGenerator(),
		retry:     RetryPolicy{Attempts: 3},
		live:      make(map[ids.UID]*Activity),
		setFacs:   make(map[string]SignalSetFactory),
		actionFac: make(map[string]ActionFactory),
		quiesced:  make(chan struct{}),
	}
	for _, o := range opts {
		o.apply(s)
	}
	s.retry.Attempts = max(s.retry.Attempts, 1)
	return s
}

// Trace returns the service's trace recorder (nil when tracing is off).
func (s *Service) Trace() *trace.Recorder { return s.rec }

// BeginOption configures one activity.
type BeginOption interface {
	applyBegin(*Activity)
}

type beginOptionFunc func(*Activity)

func (f beginOptionFunc) applyBegin(a *Activity) { f(a) }

// WithTimeout forces the activity's completion status to FailOnly if it is
// still running after d, per the Activity Service timeout semantics.
func WithTimeout(d time.Duration) BeginOption {
	return beginOptionFunc(func(a *Activity) {
		a.timer = time.AfterFunc(d, func() {
			// Best effort: the activity may have completed already.
			_ = a.SetCompletionStatus(CompletionFailOnly)
		})
	})
}

// withID pins the activity id; used by recovery to rebuild the tree.
func withID(id ids.UID) BeginOption {
	return beginOptionFunc(func(a *Activity) { a.id = id })
}

// Begin starts a new root activity.
func (s *Service) Begin(name string, opts ...BeginOption) *Activity {
	a := s.newActivity(name, nil, opts...)
	s.journal.begun(a.id, ids.Nil, name)
	s.rec.Record(trace.KindBegin, name, "", "", "root activity")
	return a
}

func (s *Service) newActivity(name string, parent *Activity, opts ...BeginOption) *Activity {
	a := &Activity{
		svc:    s,
		id:     s.gen.New(),
		name:   name,
		parent: parent,
		state:  ActivityActive,
		cs:     CompletionSuccess,
	}
	for _, o := range opts {
		o.applyBegin(a)
	}
	s.liveMu.Lock()
	s.live[a.id] = a
	s.liveMu.Unlock()
	return a
}

// ErrServiceDraining is returned by TryBegin while the Service is
// draining: the process is leaving the fleet, so new activities must be
// begun elsewhere (the sharded factory converts it into a WrongShard
// redirect).
var ErrServiceDraining = errors.New("core: service draining: new activities must begin elsewhere")

// TryBegin is Begin with admission: it refuses with ErrServiceDraining
// once Drain has been called. Sharded hosts route begins through it so
// a draining member stops accepting keys the shard map has already
// moved to its successors; plain Begin stays unconditional for hosts
// that never drain (and for recovery, which must be able to rebuild
// in-flight activities on a draining process).
func (s *Service) TryBegin(name string, opts ...BeginOption) (*Activity, error) {
	// The check and the registration happen under drainMu, the lock
	// Drain holds while flipping the flag and taking its emptiness
	// snapshot: either this activity registers before the snapshot (the
	// drain waits for it) or the flag is already visible here (the begin
	// is refused). An activity can never slip between Drain's snapshot
	// and the quiesce close.
	s.drainMu.Lock()
	if s.draining.Load() {
		s.drainMu.Unlock()
		return nil, ErrServiceDraining
	}
	a := s.Begin(name, opts...)
	s.drainMu.Unlock()
	return a, nil
}

// Drain puts the Service into drain mode: TryBegin refuses new
// activities while everything already live runs to completion where it
// started (in-flight protocol state — signal sets, 2PC/BTP phases,
// recovery log — never migrates mid-activity). WaitQuiesced unblocks
// once the last live activity completes. Drain is idempotent; there is
// no undrain — a drained member is expected to be removed from the
// fleet and restarted.
func (s *Service) Drain() {
	s.drainMu.Lock()
	s.draining.Store(true)
	if !s.quiesceClosed && s.Live() == 0 {
		s.quiesceClosed = true
		close(s.quiesced)
	}
	s.drainMu.Unlock()
}

// Draining reports whether Drain has been called.
func (s *Service) Draining() bool { return s.draining.Load() }

// WaitQuiesced blocks until a draining Service has no live activities
// (or ctx dies). Calling it without Drain blocks until ctx dies: the
// quiesce channel only closes in drain mode.
func (s *Service) WaitQuiesced(ctx context.Context) error {
	select {
	case <-s.quiesced:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Live returns the number of activities begun and not yet completed.
func (s *Service) Live() int {
	s.liveMu.RLock()
	defer s.liveMu.RUnlock()
	return len(s.live)
}

// Find returns a live activity by id.
func (s *Service) Find(id ids.UID) (*Activity, bool) {
	s.liveMu.RLock()
	defer s.liveMu.RUnlock()
	a, ok := s.live[id]
	return a, ok
}

func (s *Service) forget(a *Activity) {
	s.liveMu.Lock()
	delete(s.live, a.id)
	s.liveMu.Unlock()
	if s.draining.Load() {
		s.drainMu.Lock()
		if !s.quiesceClosed && s.Live() == 0 {
			s.quiesceClosed = true
			close(s.quiesced)
		}
		s.drainMu.Unlock()
	}
}

// SignalSetFactory recreates a SignalSet from persisted parameters during
// recovery.
type SignalSetFactory func(params []byte) (SignalSet, error)

// ActionFactory recreates an Action from persisted parameters during
// recovery.
type ActionFactory func(params []byte) (Action, error)

// RegisterSignalSetFactory names a factory for recoverable signal sets.
func (s *Service) RegisterSignalSetFactory(name string, f SignalSetFactory) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setFacs[name] = f
}

// RegisterActionFactory names a factory for recoverable actions.
func (s *Service) RegisterActionFactory(name string, f ActionFactory) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.actionFac[name] = f
}

func (s *Service) signalSetFactory(name string) (SignalSetFactory, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.setFacs[name]
	if !ok {
		return nil, fmt.Errorf("core: no signal set factory %q", name)
	}
	return f, nil
}

func (s *Service) actionFactory(name string) (ActionFactory, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.actionFac[name]
	if !ok {
		return nil, fmt.Errorf("core: no action factory %q", name)
	}
	return f, nil
}
