package orb

import (
	"errors"
	"time"
)

// defaultBreakerOpenFor is the open-circuit window used when
// WithCircuitBreaker is given an openFor of 0.
const defaultBreakerOpenFor = time.Second

// defaultRetryRate is the refill rate used when WithRetryBudget is given
// a rate <= 0. A zero rate would be a trap: once the bucket empties during
// an outage, no call could ever be admitted again — and clearing the debt
// requires an admitted call to succeed — so the endpoint would stay
// bricked after the peer recovered.
const defaultRetryRate = 1.0

// BreakerState is the circuit breaker position for one endpoint, exposed
// through EndpointStats.
type BreakerState int

// Breaker states.
const (
	// BreakerInactive means no breaker is configured for the ORB.
	BreakerInactive BreakerState = iota
	// BreakerClosed is the healthy state: calls flow normally while the
	// breaker counts consecutive failures.
	BreakerClosed
	// BreakerOpen means the failure threshold was crossed: every call fails
	// fast with TRANSIENT until the open window elapses.
	BreakerOpen
	// BreakerHalfOpen means the open window has elapsed: exactly one probe
	// call is admitted; its outcome closes or re-opens the circuit.
	BreakerHalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerInactive:
		return "inactive"
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "BreakerState(?)"
	}
}

// The call gates below are the pool's overload protection above the dial
// health gate. The circuit breaker (WithCircuitBreaker) stops whole calls —
// including ones that would ride an existing connection — once the
// endpoint has failed threshold times in a row, and rations recovery to
// one probe per half-open window. The retry budget (WithRetryBudget) is a
// token bucket: while the endpoint is in debt (its last call failed) every
// call withdraws a token, an empty bucket fails the call fast, and a
// success makes calls free again; it bounds the aggregate attempt rate
// that at-least-once retry loops — which the ORB cannot tell apart from
// fresh calls — can aim at a failing endpoint. Both read the one
// consecutive call-failure count in the pool, which only a success resets.

// callGated reports whether the ORB configured a breaker or a retry budget.
// Both knobs are fixed at New, so without them admitCall and observeCall
// return before touching the pool lock.
func (o *ORB) callGated() bool {
	return o.brkThreshold > 0 || o.retryBurst > 0
}

// breakerLocked derives the effective breaker state at now: an open circuit
// whose window has elapsed is half-open.
func (p *endpointPool) breakerLocked(now time.Time) BreakerState {
	if p.brkState == BreakerOpen && !now.Before(p.openedAt.Add(p.orb.brkOpenFor)) {
		return BreakerHalfOpen
	}
	return p.brkState
}

// admitCall runs the pre-flight call gates: the breaker first, so its
// fail-fast rejections never drain the retry budget, then the budget. The
// half-open probe slot is taken only once the budget has admitted the call,
// so an exhausted budget cannot eat the recovery probe. The first return
// reports whether this call holds the probe slot.
func (p *endpointPool) admitCall(now time.Time) (bool, error) {
	o := p.orb
	if !o.callGated() {
		return false, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	probe := false
	switch p.breakerLocked(now) {
	case BreakerOpen:
		return false, Systemf(CodeTransient,
			"circuit breaker for %s open (%d consecutive failures; next probe in %s)",
			p.endpoint, o.brkThreshold, p.openedAt.Add(o.brkOpenFor).Sub(now).Round(time.Millisecond))
	case BreakerHalfOpen:
		if p.probing {
			return false, Systemf(CodeTransient,
				"circuit breaker for %s half-open: probe already in flight", p.endpoint)
		}
		probe = true
	}
	if o.retryBurst > 0 && p.callFailures > 0 {
		p.tokens += now.Sub(p.last).Seconds() * o.retryRate
		if burst := float64(o.retryBurst); p.tokens > burst {
			p.tokens = burst
		}
		p.last = now
		if p.tokens < 1 {
			p.exhausted++
			return false, Systemf(CodeTransient,
				"retry budget for %s exhausted (refills at %.3g tokens/s)", p.endpoint, o.retryRate)
		}
		p.tokens--
	}
	if probe {
		p.brkState = BreakerHalfOpen
		p.probing = true
		p.probes++
	}
	return probe, nil
}

// observeCall feeds a finished call's outcome to the call gates. A success
// closes the circuit, clears the debt and refills the bucket; a failure
// extends the consecutive count, starts the debt, and opens the circuit at
// the threshold — or re-opens it for a fresh window when the half-open
// probe (or a straggler from before the circuit opened) fails. Fail-fast
// rejections from admitCall never reach here, so the gates cannot feed on
// their own output. Health-gate fail-fasts DO reach here and count as
// failures deliberately: they are the endpoint's last known state, and
// requiring real dials to trip the breaker would let the gate's own
// backoff spacing delay it indefinitely.
func (p *endpointPool) observeCall(err error) {
	o := p.orb
	if !o.callGated() {
		return
	}
	failed := transportFailure(err)
	p.mu.Lock()
	defer p.mu.Unlock()
	if !failed {
		p.callFailures = 0
		p.tokens = float64(o.retryBurst)
		p.probing = false
		if p.brkState != BreakerInactive {
			p.brkState = BreakerClosed
		}
		return
	}
	now := time.Now()
	p.callFailures++
	if p.callFailures == 1 {
		p.last = now // the debt begins: the bucket refills from here
	}
	switch p.breakerLocked(now) {
	case BreakerClosed:
		if p.callFailures >= o.brkThreshold {
			p.openLocked(now)
		}
	case BreakerHalfOpen:
		p.probing = false
		p.openLocked(now)
	}
}

func (p *endpointPool) openLocked(now time.Time) {
	p.brkState = BreakerOpen
	p.openedAt = now
	p.opens++
}

// releaseProbe clears the probe-in-flight flag for a probe whose outcome
// will never be observed (its caller died mid-call): the circuit stays
// half-open and the next admitted caller probes again. The probe did
// launch, so it stays counted.
func (p *endpointPool) releaseProbe() {
	p.mu.Lock()
	p.probing = false
	p.mu.Unlock()
}

// transportFailure classifies a call outcome for the breaker and retry
// budget: true for errors that say the endpoint is unreachable or
// overloaded (dial and send failures, lost connections, timeouts, and
// TRANSIENT — which covers server-side admission shed and the local
// health gate's fail-fast verdicts, both deliberate: "this endpoint is
// not serving you right now" is exactly the signal the gates ration
// traffic on). Decoded user and application-level system errors prove a
// healthy round trip and count as success.
func transportFailure(err error) bool {
	if err == nil {
		return false
	}
	var se *SystemError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Code {
	case CodeCommFailure, CodeTimeout, CodeTransient:
		return true
	}
	return false
}
