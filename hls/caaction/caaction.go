// Package caaction implements the Coordinated Atomic action model of Xu,
// Romanovsky & Randell (reference [13] of the paper) on the Activity
// Service: a set of roles executes concurrently inside one action; if any
// roles raise exceptions, the exceptions are resolved into a single
// covering exception which is then delivered to every role's handler —
// the "exception resolution" coordination the paper names when motivating
// configurable SignalSets ("a coordinator for a CA action model may be
// required to send a Signal informing participants to perform exception
// resolution").
package caaction

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/extendedtx/activityservice/internal/core"
)

// Protocol names.
const (
	// SetName is the exception-resolution SignalSet.
	SetName = "ca-exception-resolution"
	// SignalResolve delivers the resolved exception to every handler.
	SignalResolve = "resolve"
)

// CA action errors.
var (
	// ErrUnhandled reports that at least one role's handler could not
	// recover from the resolved exception; the CA action then fails (and a
	// real deployment would escalate to the enclosing action).
	ErrUnhandled = errors.New("caaction: exception not handled by all roles")
)

// Role is one concurrent participant: Run performs the role's work
// (returning an error raises an exception), and Handle recovers from the
// resolved exception when any role raised one. A nil Handle accepts any
// resolution.
type Role struct {
	// Name labels the role's child activity and handler.
	Name string
	// Run performs the role's work; an error raises an exception.
	Run func(ctx context.Context) error
	// Handle recovers from the resolved exception; nil accepts any.
	Handle func(ctx context.Context, resolved string) error
}

// Resolver merges concurrently raised exceptions into a single covering
// exception (the resolution tree of [13] collapsed to a function).
type Resolver func(raised map[string]string) string

// DefaultResolver concatenates the raised exceptions sorted by role name,
// a deterministic stand-in for an application resolution graph.
func DefaultResolver(raised map[string]string) string {
	names := make([]string, 0, len(raised))
	for role := range raised {
		names = append(names, role)
	}
	sort.Strings(names)
	out := ""
	for _, role := range names {
		if out != "" {
			out += "+"
		}
		out += raised[role]
	}
	return out
}

// Result reports one CA action execution.
type Result struct {
	// Ok means no exceptions were raised, or every handler recovered.
	Ok bool
	// Raised maps role name to raised exception message.
	Raised map[string]string
	// Resolved is the covering exception delivered to handlers.
	Resolved string
	// Handled lists roles whose handlers recovered.
	Handled []string
}

// Action is a coordinated atomic action.
type Action struct {
	svc     *core.Service
	name    string
	roles   []Role
	resolve Resolver
}

// New returns a CA action with the given roles.
func New(svc *core.Service, name string, roles ...Role) *Action {
	return &Action{svc: svc, name: name, roles: roles, resolve: DefaultResolver}
}

// WithResolver replaces the exception resolver.
func (a *Action) WithResolver(r Resolver) *Action {
	a.resolve = r
	return a
}

// newResolutionSet broadcasts the resolved exception once; its outcome is
// "recovered" when every handler did, else "unhandled" with the count of
// those that did not.
func newResolutionSet(resolved string) *core.SequenceSet {
	return core.NewSequenceSet(SetName).
		Signals(core.Signal{Name: SignalResolve, Data: resolved}).
		Collate(func(rs []core.Outcome) core.Outcome {
			failed := 0
			for _, r := range rs {
				if r.Name != "handled" {
					failed++
				}
			}
			if failed > 0 {
				return core.Outcome{Name: "unhandled", Data: int64(failed)}
			}
			return core.Outcome{Name: "recovered"}
		})
}

// handlerAction adapts one role's Handle to the Action protocol.
type handlerAction struct {
	role Role

	mu      sync.Mutex
	handled bool
}

func (h *handlerAction) ProcessSignal(ctx context.Context, sig core.Signal) (core.Outcome, error) {
	if sig.Name != SignalResolve {
		return core.Outcome{}, fmt.Errorf("caaction: handler got %q", sig.Name)
	}
	resolved, _ := sig.Data.(string)
	if h.role.Handle != nil {
		if err := h.role.Handle(ctx, resolved); err != nil {
			return core.Outcome{Name: "failed", Data: err.Error()}, nil
		}
	}
	h.mu.Lock()
	h.handled = true
	h.mu.Unlock()
	return core.Outcome{Name: "handled"}, nil
}

// Execute runs all roles concurrently inside a CA-action activity. When
// exceptions are raised, they are resolved and the resolution is
// broadcast to every role's handler through the exception-resolution
// SignalSet; the action succeeds only if every handler recovers.
func (a *Action) Execute(ctx context.Context) (Result, error) {
	result := Result{Raised: make(map[string]string)}
	act := a.svc.Begin(a.name)
	actx := core.NewContext(ctx, act)

	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	for _, role := range a.roles {
		role := role
		child, err := act.BeginChild(role.Name)
		if err != nil {
			return result, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := role.Run(core.NewContext(actx, child))
			cs := core.CompletionSuccess
			if err != nil {
				cs = core.CompletionFail
				mu.Lock()
				result.Raised[role.Name] = err.Error()
				mu.Unlock()
				a.svc.Trace().Notef(role.Name, "raised %v", err)
			}
			_, _ = child.CompleteWithStatus(ctx, cs)
		}()
	}
	wg.Wait()

	if len(result.Raised) == 0 {
		result.Ok = true
		if _, err := act.CompleteWithStatus(ctx, core.CompletionSuccess); err != nil {
			return result, err
		}
		return result, nil
	}

	// Concurrent exception resolution.
	result.Resolved = a.resolve(result.Raised)
	a.svc.Trace().Notef(a.name, "resolved exceptions to %q", result.Resolved)
	set := newResolutionSet(result.Resolved)
	if err := act.RegisterSignalSet(set); err != nil {
		return result, err
	}
	handlers := make([]*handlerAction, 0, len(a.roles))
	for _, role := range a.roles {
		h := &handlerAction{role: role}
		handlers = append(handlers, h)
		if _, err := act.AddNamedAction(SetName, role.Name, h); err != nil {
			return result, err
		}
	}
	out, err := act.Signal(ctx, SetName)
	if err != nil {
		return result, err
	}
	for _, h := range handlers {
		h.mu.Lock()
		if h.handled {
			result.Handled = append(result.Handled, h.role.Name)
		}
		h.mu.Unlock()
	}
	if out.Name != "recovered" {
		_, _ = act.CompleteWithStatus(ctx, core.CompletionFailOnly)
		return result, fmt.Errorf("%w: resolved %q", ErrUnhandled, result.Resolved)
	}
	result.Ok = true
	if _, err := act.CompleteWithStatus(ctx, core.CompletionSuccess); err != nil {
		return result, err
	}
	return result, nil
}
