package core

import (
	"context"
	"fmt"
	"sync"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// idempotentAction deduplicates signal deliveries: §3.4 requires Actions to
// tolerate at-least-once delivery, and this wrapper gives any Action that
// property by caching the outcome of each distinct signal.
type idempotentAction struct {
	inner Action

	mu   sync.Mutex
	seen map[string]memoized
}

type memoized struct {
	outcome Outcome
	err     error
}

// Idempotent wraps inner so repeated deliveries of the same signal (same
// set, name and payload) return the first outcome without re-invoking
// inner. Failed deliveries are not memoized, so retries still reach inner.
func Idempotent(inner Action) Action {
	return &idempotentAction{inner: inner, seen: make(map[string]memoized)}
}

// ProcessSignal implements Action.
func (i *idempotentAction) ProcessSignal(ctx context.Context, sig Signal) (Outcome, error) {
	key, err := signalKey(sig)
	if err != nil {
		return Outcome{}, err
	}
	i.mu.Lock()
	if m, ok := i.seen[key]; ok {
		i.mu.Unlock()
		return m.outcome, m.err
	}
	i.mu.Unlock()

	outcome, perr := i.inner.ProcessSignal(ctx, sig)
	if perr == nil {
		i.mu.Lock()
		i.seen[key] = memoized{outcome: outcome}
		i.mu.Unlock()
	}
	return outcome, perr
}

// signalKey canonically encodes a signal for deduplication.
func signalKey(sig Signal) (string, error) {
	e := cdr.NewEncoder(64)
	if err := sig.Encode(e); err != nil {
		return "", fmt.Errorf("core: idempotency key: %w", err)
	}
	return string(e.Bytes()), nil
}
