package core

import (
	"context"
	"errors"
	"fmt"
)

// ErrNoCurrentActivity reports a UserActivity/ActivityManager call on a
// context that carries no activity.
var ErrNoCurrentActivity = errors.New("core: no activity in context")

// UserActivity is the application-facing demarcation API of the J2EE
// Activity Service architecture (fig. 13): begin/complete with implicit
// context handling, nesting automatically when the context already carries
// an activity.
type UserActivity struct {
	svc *Service
}

// NewUserActivity returns a UserActivity over svc.
func NewUserActivity(svc *Service) *UserActivity {
	return &UserActivity{svc: svc}
}

// Begin starts an activity. If ctx carries one, the new activity is its
// child. The returned context carries the new activity.
func (u *UserActivity) Begin(ctx context.Context, name string, opts ...BeginOption) (context.Context, *Activity, error) {
	if parent, ok := FromContext(ctx); ok {
		child, err := parent.BeginChild(name, opts...)
		if err != nil {
			return ctx, nil, err
		}
		return NewContext(ctx, child), child, nil
	}
	a := u.svc.Begin(name, opts...)
	return NewContext(ctx, a), a, nil
}

// Current returns the context's activity.
func (u *UserActivity) Current(ctx context.Context) (*Activity, bool) {
	return FromContext(ctx)
}

// SetCompletionStatus updates the context's activity.
func (u *UserActivity) SetCompletionStatus(ctx context.Context, cs CompletionStatus) error {
	a, ok := FromContext(ctx)
	if !ok {
		return ErrNoCurrentActivity
	}
	return a.SetCompletionStatus(cs)
}

// CompletionStatus reads the context's activity status.
func (u *UserActivity) CompletionStatus(ctx context.Context) (CompletionStatus, error) {
	a, ok := FromContext(ctx)
	if !ok {
		return 0, ErrNoCurrentActivity
	}
	return a.CompletionStatus(), nil
}

// Complete completes the context's activity and returns a context carrying
// its parent (or none for a root).
func (u *UserActivity) Complete(ctx context.Context) (Outcome, context.Context, error) {
	a, ok := FromContext(ctx)
	if !ok {
		return Outcome{}, ctx, ErrNoCurrentActivity
	}
	outcome, err := a.Complete(ctx)
	return outcome, u.pop(ctx, a), err
}

// CompleteWithStatus sets the status then completes, popping the context.
func (u *UserActivity) CompleteWithStatus(ctx context.Context, cs CompletionStatus) (Outcome, context.Context, error) {
	a, ok := FromContext(ctx)
	if !ok {
		return Outcome{}, ctx, ErrNoCurrentActivity
	}
	outcome, err := a.CompleteWithStatus(ctx, cs)
	return outcome, u.pop(ctx, a), err
}

// Suspend pauses the context's activity.
func (u *UserActivity) Suspend(ctx context.Context) error {
	a, ok := FromContext(ctx)
	if !ok {
		return ErrNoCurrentActivity
	}
	return a.Suspend()
}

// Resume reactivates the context's activity.
func (u *UserActivity) Resume(ctx context.Context) error {
	a, ok := FromContext(ctx)
	if !ok {
		return ErrNoCurrentActivity
	}
	return a.Resume()
}

func (u *UserActivity) pop(ctx context.Context, a *Activity) context.Context {
	if a.Parent() != nil {
		return NewContext(ctx, a.Parent())
	}
	return NewContext(ctx, nil)
}

// ActivityManager is the HLS-facing API of fig. 13: it lets a high-level
// service (an extended-transaction model implementation) plug its
// SignalSets and Actions into the current activity and drive protocols.
type ActivityManager struct {
	svc *Service
}

// NewActivityManager returns an ActivityManager over svc.
func NewActivityManager(svc *Service) *ActivityManager {
	return &ActivityManager{svc: svc}
}

// Service returns the underlying activity service.
func (m *ActivityManager) Service() *Service { return m.svc }

// RegisterSignalSet registers set with the context's activity.
func (m *ActivityManager) RegisterSignalSet(ctx context.Context, set SignalSet) error {
	a, ok := FromContext(ctx)
	if !ok {
		return ErrNoCurrentActivity
	}
	return a.RegisterSignalSet(set)
}

// AddAction registers action with the named set on the context's activity.
func (m *ActivityManager) AddAction(ctx context.Context, setName string, action Action) error {
	a, ok := FromContext(ctx)
	if !ok {
		return ErrNoCurrentActivity
	}
	_, err := a.AddAction(setName, action)
	return err
}

// Broadcast drives the named SignalSet on the context's activity now.
func (m *ActivityManager) Broadcast(ctx context.Context, setName string) (Outcome, error) {
	a, ok := FromContext(ctx)
	if !ok {
		return Outcome{}, ErrNoCurrentActivity
	}
	return a.Signal(ctx, setName)
}

// SetCompletionSet chooses the completion SignalSet for the context's
// activity.
func (m *ActivityManager) SetCompletionSet(ctx context.Context, name string) error {
	a, ok := FromContext(ctx)
	if !ok {
		return ErrNoCurrentActivity
	}
	a.SetCompletionSet(name)
	return nil
}

// CurrentName returns the context activity's name, for diagnostics.
func (m *ActivityManager) CurrentName(ctx context.Context) (string, error) {
	a, ok := FromContext(ctx)
	if !ok {
		return "", ErrNoCurrentActivity
	}
	return a.Name(), nil
}

// MustCurrent returns the context's activity or an error suitable for
// wrapping by HLS implementations.
func (m *ActivityManager) MustCurrent(ctx context.Context) (*Activity, error) {
	a, ok := FromContext(ctx)
	if !ok {
		return nil, fmt.Errorf("%w", ErrNoCurrentActivity)
	}
	return a, nil
}
