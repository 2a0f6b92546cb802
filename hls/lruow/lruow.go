// Package lruow implements §4.3 of the paper: the LRUOW (Long Running Unit
// Of Work) extended transaction model of Bennett et al. [14] on the
// Activity Service.
//
// A long-running transaction executes in two phases: the rehearsal phase
// performs the work without serializability — reads record version
// predicates, writes stay private — and may take arbitrarily long; the
// performance phase confirms the work only if suitable locks can be
// obtained and the recorded predicates still hold against the store.
//
// The mapping uses the two SignalSets the paper names: a Rehearsal
// SignalSet drives child-to-parent promotion when a nested UOW completes
// ("propagating resources from the child to the parent"), and a
// Performance SignalSet drives validate/apply (or discard) at top-level
// completion. No modification to the underlying store or transaction
// machinery is required, as §4.3 notes.
package lruow

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/lockmgr"
)

// Protocol names.
const (
	// RehearsalSetName is the Rehearsal SignalSet.
	RehearsalSetName = "lruow-rehearsal"
	// PerformanceSetName is the Performance SignalSet.
	PerformanceSetName = "lruow-performance"

	// SignalRehearse promotes a child UOW's recordings to its parent.
	SignalRehearse = "rehearse"
	// SignalValidate checks the rehearsal predicates under locks.
	SignalValidate = "validate"
	// SignalApply installs the writes.
	SignalApply = "apply"
	// SignalDiscard abandons the writes after failed validation.
	SignalDiscard = "discard"
)

// LRUOW errors.
var (
	// ErrStale reports that the performance phase found the rehearsal's
	// predicates violated; the caller may re-rehearse and retry.
	ErrStale = errors.New("lruow: rehearsal predicates stale")
	// ErrCompleted reports use of a completed UOW.
	ErrCompleted = errors.New("lruow: unit of work already completed")
	// ErrLocked reports that performance-phase locks were unobtainable.
	ErrLocked = errors.New("lruow: could not obtain performance locks")
)

// UOW is one (possibly nested) long-running unit of work.
type UOW struct {
	svc      *core.Service
	st       *Store
	locks    *lockmgr.Manager
	lockWait time.Duration
	parent   *UOW
	activity *core.Activity

	mu        sync.Mutex
	reads     map[string]uint64 // key -> version predicate
	writes    map[string][]byte
	completed bool
}

// Begin starts a root UOW over st, using locks for the performance phase.
func Begin(svc *core.Service, name string, st *Store, locks *lockmgr.Manager, lockWait time.Duration) *UOW {
	return &UOW{
		svc:      svc,
		st:       st,
		locks:    locks,
		lockWait: lockWait,
		activity: svc.Begin(name),
		reads:    make(map[string]uint64),
		writes:   make(map[string][]byte),
	}
}

// BeginChild starts a nested UOW whose recordings promote to u on
// successful completion.
func (u *UOW) BeginChild(name string) (*UOW, error) {
	child, err := u.activity.BeginChild(name)
	if err != nil {
		return nil, err
	}
	return &UOW{
		svc:      u.svc,
		st:       u.st,
		locks:    u.locks,
		lockWait: u.lockWait,
		parent:   u,
		activity: child,
		reads:    make(map[string]uint64),
		writes:   make(map[string][]byte),
	}, nil
}

// Activity exposes the backing activity.
func (u *UOW) Activity() *core.Activity { return u.activity }

// Read returns the value of key as seen by the UOW: its own rehearsal
// write, an ancestor's, or the store value — recording the version
// predicate in the latter case.
func (u *UOW) Read(key string) ([]byte, bool, error) {
	u.mu.Lock()
	if u.completed {
		u.mu.Unlock()
		return nil, false, ErrCompleted
	}
	if v, ok := u.writes[key]; ok {
		out := append([]byte(nil), v...)
		u.mu.Unlock()
		return out, true, nil
	}
	u.mu.Unlock()

	for p := u.parent; p != nil; p = p.parent {
		p.mu.Lock()
		if v, ok := p.writes[key]; ok {
			out := append([]byte(nil), v...)
			p.mu.Unlock()
			return out, true, nil
		}
		p.mu.Unlock()
	}

	val, version, ok := u.st.Get(key)
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.completed {
		return nil, false, ErrCompleted
	}
	// Record the predicate: the version observed (0 for absent keys).
	if _, seen := u.reads[key]; !seen {
		u.reads[key] = version
	}
	return val, ok, nil
}

// Write records a rehearsal write, private until performance.
func (u *UOW) Write(key string, value []byte) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.completed {
		return ErrCompleted
	}
	u.writes[key] = append([]byte(nil), value...)
	return nil
}

// Touched returns the number of distinct keys read or written.
func (u *UOW) Touched() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	keys := make(map[string]bool, len(u.reads)+len(u.writes))
	for k := range u.reads {
		keys[k] = true
	}
	for k := range u.writes {
		keys[k] = true
	}
	return len(keys)
}

// Abandon discards the UOW.
func (u *UOW) Abandon(ctx context.Context) error {
	u.mu.Lock()
	if u.completed {
		u.mu.Unlock()
		return ErrCompleted
	}
	u.completed = true
	u.mu.Unlock()
	_, err := u.activity.CompleteWithStatus(ctx, core.CompletionFail)
	return err
}

// Complete ends the UOW. A nested UOW promotes its recordings to the
// parent through the Rehearsal SignalSet; the root UOW runs the
// performance phase through the Performance SignalSet, returning ErrStale
// when validation fails (the work is then discarded).
func (u *UOW) Complete(ctx context.Context) error {
	u.mu.Lock()
	if u.completed {
		u.mu.Unlock()
		return ErrCompleted
	}
	u.completed = true
	u.mu.Unlock()

	if u.parent != nil {
		return u.promote(ctx)
	}
	return u.perform(ctx)
}

// promote drives the Rehearsal SignalSet: the registered promotion action
// merges this UOW's recordings into the parent.
func (u *UOW) promote(ctx context.Context) error {
	set := newRehearsalSet()
	if err := u.activity.RegisterSignalSet(set); err != nil {
		return err
	}
	u.activity.SetCompletionSet(RehearsalSetName)
	if _, err := u.activity.AddNamedAction(RehearsalSetName, "promote:"+u.activity.Name(), &promoteAction{child: u}); err != nil {
		return err
	}
	out, err := u.activity.CompleteWithStatus(ctx, core.CompletionSuccess)
	if err != nil {
		return fmt.Errorf("lruow: promote: %w", err)
	}
	if out.Name != "promoted" {
		return fmt.Errorf("lruow: promotion failed: %s", out.Name)
	}
	return nil
}

// perform drives the Performance SignalSet at top-level completion.
func (u *UOW) perform(ctx context.Context) error {
	set := newPerformanceSet()
	if err := u.activity.RegisterSignalSet(set); err != nil {
		return err
	}
	u.activity.SetCompletionSet(PerformanceSetName)
	action := &performAction{uow: u}
	if _, err := u.activity.AddNamedAction(PerformanceSetName, "perform:"+u.activity.Name(), action); err != nil {
		return err
	}
	out, err := u.activity.CompleteWithStatus(ctx, core.CompletionSuccess)
	if err != nil {
		return fmt.Errorf("lruow: perform: %w", err)
	}
	switch out.Name {
	case "performed":
		return nil
	case "stale":
		return ErrStale
	default:
		return fmt.Errorf("lruow: performance outcome %q", out.Name)
	}
}

// keys returns the union of read and written keys, sorted (deterministic
// lock order).
func (u *UOW) keys() []string {
	u.mu.Lock()
	defer u.mu.Unlock()
	set := make(map[string]bool, len(u.reads)+len(u.writes))
	for k := range u.reads {
		set[k] = true
	}
	for k := range u.writes {
		set[k] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The LRUOW sets' sequences, shared by every UOW.
var (
	rehearse          = []core.Signal{{Name: SignalRehearse}}
	validateThenApply = []core.Signal{{Name: SignalValidate}, {Name: SignalApply}}
	discard           = []core.Signal{{Name: SignalDiscard}}
)

// newRehearsalSet emits one "rehearse" signal; the outcome reports whether
// promotion happened.
func newRehearsalSet() *core.SequenceSet {
	return core.NewSequenceSet(RehearsalSetName).Signals(rehearse...).Collate(func(rs []core.Outcome) core.Outcome {
		for _, r := range rs {
			if r.Name != "promoted" {
				return core.Outcome{Name: "promotion-failed"}
			}
		}
		return core.Outcome{Name: "promoted"}
	})
}

// promoteAction merges the child's recordings into the parent.
type promoteAction struct {
	child *UOW
}

func (a *promoteAction) ProcessSignal(context.Context, core.Signal) (core.Outcome, error) {
	child, parent := a.child, a.child.parent
	child.mu.Lock()
	reads := make(map[string]uint64, len(child.reads))
	for k, v := range child.reads {
		reads[k] = v
	}
	writes := make(map[string][]byte, len(child.writes))
	for k, v := range child.writes {
		writes[k] = v
	}
	child.mu.Unlock()

	parent.mu.Lock()
	defer parent.mu.Unlock()
	if parent.completed {
		return core.Outcome{}, fmt.Errorf("%w: parent", ErrCompleted)
	}
	for k, v := range reads {
		// The parent keeps its own earlier predicate; a child predicate on
		// a key the parent wrote before the child began is unnecessary.
		if _, ok := parent.reads[k]; !ok {
			if _, wrote := parent.writes[k]; !wrote {
				parent.reads[k] = v
			}
		}
	}
	for k, v := range writes {
		parent.writes[k] = v
	}
	return core.Outcome{Name: "promoted"}, nil
}

// newPerformanceSet drives validate, then apply — or discard once a
// participant finds the rehearsal stale.
func newPerformanceSet() *core.SequenceSet {
	return core.NewSequenceSet(PerformanceSetName).
		Signals(validateThenApply...).
		OnFailure(discard...).
		Veto("stale").
		Outcomes("performed", "stale")
}

// performAction validates predicates under locks and applies (or
// discards) the writes.
type performAction struct {
	uow *UOW

	mu     sync.Mutex
	locked []string
}

func (a *performAction) ProcessSignal(_ context.Context, sig core.Signal) (core.Outcome, error) {
	u := a.uow
	owner := "lruow:" + u.activity.ID().String()
	switch sig.Name {
	case SignalValidate:
		keys := u.keys()
		for _, k := range keys {
			mode := lockmgr.Read
			u.mu.Lock()
			if _, written := u.writes[k]; written {
				mode = lockmgr.Write
			}
			u.mu.Unlock()
			if err := u.locks.Acquire(owner, k, mode, u.lockWait); err != nil {
				a.release(owner)
				return core.Outcome{}, fmt.Errorf("%w: %v", ErrLocked, err)
			}
			a.mu.Lock()
			a.locked = append(a.locked, k)
			a.mu.Unlock()
		}
		u.mu.Lock()
		reads := make(map[string]uint64, len(u.reads))
		for k, v := range u.reads {
			reads[k] = v
		}
		u.mu.Unlock()
		for k, want := range reads {
			if got := u.st.Version(k); got != want {
				return core.Outcome{Name: "stale", Data: k}, nil
			}
		}
		return core.Outcome{Name: "valid"}, nil

	case SignalApply:
		u.mu.Lock()
		writes := make(map[string][]byte, len(u.writes))
		for k, v := range u.writes {
			writes[k] = v
		}
		u.mu.Unlock()
		// Deterministic apply order.
		keys := make([]string, 0, len(writes))
		for k := range writes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			u.st.Put(k, writes[k])
		}
		a.release(owner)
		return core.Outcome{Name: "applied"}, nil

	case SignalDiscard:
		a.release(owner)
		return core.Outcome{Name: "discarded"}, nil

	default:
		return core.Outcome{}, fmt.Errorf("lruow: unexpected signal %q", sig.Name)
	}
}

func (a *performAction) release(owner string) {
	a.mu.Lock()
	locked := a.locked
	a.locked = nil
	a.mu.Unlock()
	for _, k := range locked {
		_ = a.uow.locks.Release(owner, k)
	}
}
