package orb

import (
	"errors"
	"time"
)

// defaultBreakerOpenFor is the open-circuit window used when
// WithCircuitBreaker is given an openFor of 0.
const defaultBreakerOpenFor = time.Second

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

// The circuit breaker is the pool's one call gate above the dial health
// gate (WithCircuitBreaker). It stops whole calls — including ones that
// would ride an existing connection — once the endpoint has failed
// threshold times in a row, and rations recovery to one probe per
// half-open window. So against a failing endpoint this ORB makes at most
// threshold attempts, then one per open window, however many
// at-least-once retry loops — which the ORB cannot tell apart from fresh
// calls — aim at it. It reads the one consecutive call-failure count in
// the pool, which only a success resets.

// callGated reports whether the ORB configured a breaker. The knob is
// fixed at New, so without it admitCall and observeCall return before
// touching the pool lock.
func (o *ORB) callGated() bool {
	return o.brkThreshold > 0
}

// breakerLocked derives the effective breaker state at now: an open circuit
// whose window has elapsed is half-open.
func (p *endpointPool) breakerLocked(now time.Time) BreakerState {
	if p.brkState == BreakerOpen && !now.Before(p.openedAt.Add(p.orb.brkOpenFor)) {
		return BreakerHalfOpen
	}
	return p.brkState
}

// admitCall runs the pre-flight breaker check. The first return reports
// whether this call holds the half-open probe slot.
func (p *endpointPool) admitCall(now time.Time) (bool, error) {
	o := p.orb
	if !o.callGated() {
		return false, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
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
		p.brkState = BreakerHalfOpen
		p.probing = true
		p.probes++
		return true, nil
	}
	return false, nil
}

// observeCall feeds a finished call's outcome to the breaker. A success
// closes the circuit; a failure extends the consecutive count and opens
// the circuit at the threshold — or re-opens it for a fresh window when
// the half-open probe (or a straggler from before the circuit opened)
// fails. Fail-fast rejections from admitCall never reach here, so the
// breaker cannot feed on its own output. Health-gate fail-fasts DO reach
// here and count as failures deliberately: they are the endpoint's last
// known state, and requiring real dials to trip the breaker would let the
// gate's own backoff spacing delay it indefinitely.
func (p *endpointPool) observeCall(err error) {
	if !p.orb.callGated() {
		return
	}
	failed := transportFailure(err)
	p.mu.Lock()
	defer p.mu.Unlock()
	if !failed {
		p.callFailures = 0
		p.probing = false
		p.brkState = BreakerClosed
		return
	}
	now := time.Now()
	p.callFailures++
	switch p.breakerLocked(now) {
	case BreakerClosed:
		if p.callFailures >= p.orb.brkThreshold {
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

// transportFailure classifies a call outcome for the breaker: true for
// errors that say the endpoint is unreachable or overloaded (dial and send
// failures, lost connections, timeouts, and TRANSIENT — which covers
// server-side admission shed and the local health gate's fail-fast
// verdicts, both deliberate: "this endpoint is not serving you right now"
// is exactly the signal the breaker rations traffic on). Decoded user and
// application-level system errors prove a healthy round trip and count as
// success.
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
