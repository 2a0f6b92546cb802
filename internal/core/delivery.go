package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/internal/trace"
)

// DeliveryMode selects how a coordinator broadcasts one Signal to the
// Actions registered with a SignalSet.
type DeliveryMode int

// Delivery modes.
const (
	// DeliverSerial transmits to one action at a time in registration
	// order, waiting for each response before the next transmit — the
	// fig. 5 exchange as literally drawn. This is the default.
	DeliverSerial DeliveryMode = iota + 1
	// DeliverParallel transmits to all registered actions concurrently
	// through a worker pool bounded at max(16, 4×GOMAXPROCS). Responses
	// are fed back to the SignalSet strictly in registration order, so
	// collation — and the recorded trace — is identical to serial
	// delivery. Delivery is speculative: when an early response advances
	// the set, actions later in registration order may already have
	// received the signal (their responses are discarded and in-flight
	// stragglers are cancelled via their context). Sets that rely on
	// advance to *prevent* later deliveries must stay serial.
	DeliverParallel
	// DeliverTree relays the broadcast down a branching-factor tree of
	// relay-capable actions (SubtreeDeliverer): the coordinator contacts
	// only the subtree roots, each relay delivers to its own span and
	// forwards to child relays, and outcomes aggregate back up with their
	// registration identity intact. Responses still reach the SignalSet in
	// registration order, so collation and the recorded trace are
	// byte-identical to serial delivery. Tree delivery is speculative like
	// parallel delivery, and additionally at least once per subtree: a
	// relay that dies mid-round is re-adopted by redelivering its span
	// directly, so actions must be idempotent. Actions that cannot relay,
	// and subtree roots with no children, are delivered directly through
	// the worker pool, as in parallel mode.
	DeliverTree
)

// String returns the mode name.
func (m DeliveryMode) String() string {
	switch m {
	case DeliverSerial:
		return "serial"
	case DeliverParallel:
		return "parallel"
	case DeliverTree:
		return "tree"
	default:
		return fmt.Sprintf("DeliveryMode(%d)", int(m))
	}
}

// DeliveryPolicy configures how broadcasts are delivered. The zero value
// means "no preference": a set with a zero policy inherits the Service's
// policy, and a Service with a zero policy delivers serially.
type DeliveryPolicy struct {
	// Mode selects serial, parallel or relay-tree fan-out.
	Mode DeliveryMode
	// Branching is the relay-tree fan-out (children per node) in tree
	// mode. Zero or negative selects DefaultBranching.
	Branching int
}

// Parallel is shorthand for a parallel policy.
func Parallel() DeliveryPolicy { return DeliveryPolicy{Mode: DeliverParallel} }

// Tree is shorthand for a relay-tree policy with the given branching
// factor (<= 0 selects DefaultBranching).
func Tree(branching int) DeliveryPolicy {
	return DeliveryPolicy{Mode: DeliverTree, Branching: branching}
}

// deliveryCounters aggregates speculative parallel-delivery accounting
// for one Service: every coordinator feeds it, DeliveryStats snapshots it.
type deliveryCounters struct {
	discarded atomic.Uint64
	skipped   atomic.Uint64
	cancelled atomic.Uint64
}

// snapshot returns the counters as a DeliveryStats value.
func (c *deliveryCounters) snapshot() DeliveryStats {
	return DeliveryStats{
		DiscardedResponses:  c.discarded.Load(),
		SkippedDeliveries:   c.skipped.Load(),
		CancelledDeliveries: c.cancelled.Load(),
	}
}

// DeliveryStats is a snapshot of a Service's speculative-delivery
// accounting (Service.DeliveryStats): what parallel fan-out delivered —or
// started to deliver— that an advance then discarded. Serial delivery
// never contributes: it stops transmitting the moment a response advances
// the set.
type DeliveryStats struct {
	// DiscardedResponses counts deliveries that ran to completion — a
	// response, or a final failure after exhausting retries — whose
	// results were discarded because an earlier response in registration
	// order advanced the set. Either way the action consumed real work
	// that the advance threw away, which is what this gauge is for.
	DiscardedResponses uint64
	// SkippedDeliveries counts deliveries short-circuited before their
	// first transmit by an advance: queued work that never ran.
	SkippedDeliveries uint64
	// CancelledDeliveries counts deliveries cancelled mid-flight (between
	// retry attempts) by an advance.
	CancelledDeliveries uint64
}

// Total returns the total number of deliveries affected by advance
// short-circuits.
func (s DeliveryStats) Total() uint64 {
	return s.DiscardedResponses + s.SkippedDeliveries + s.CancelledDeliveries
}

// countSpeculative classifies one concurrent delivery discarded by an
// advance into the service-wide counters.
func (c *Coordinator) countSpeculative(r attemptResult) {
	if c.counters == nil {
		return
	}
	switch {
	case r.skipped:
		c.counters.skipped.Add(1)
	case r.cancelled:
		c.counters.cancelled.Add(1)
	default:
		c.counters.discarded.Add(1)
	}
}

// DeliveryPolicyProvider is implemented by SignalSets that choose their own
// delivery policy, overriding the Service-wide default for every broadcast
// of that set. BaseSet provides the plumbing: any set embedding it can opt
// in with SetDelivery.
type DeliveryPolicyProvider interface {
	// Delivery returns the set's chosen policy (zero = no preference).
	Delivery() DeliveryPolicy
}

// policyFor resolves the delivery policy for one set: the set's own choice
// when it makes one, otherwise the coordinator's (Service-wide) default,
// otherwise serial.
func (c *Coordinator) policyFor(set SignalSet) DeliveryPolicy {
	if p, ok := set.(DeliveryPolicyProvider); ok {
		if sp := p.Delivery(); sp.Mode != 0 {
			return sp
		}
	}
	if c.delivery.Mode != 0 {
		return c.delivery
	}
	return DeliveryPolicy{Mode: DeliverSerial}
}

// broadcastSerial delivers sig to each registration in order, feeding every
// response back immediately; an advance stops the broadcast.
func (c *Coordinator) broadcastSerial(ctx context.Context, driver *setDriver, regs []registration, sig Signal) (bool, error) {
	for _, reg := range regs {
		outcome, aerr := c.deliver(ctx, reg, sig)
		adv, serr := driver.setResponse(outcome, aerr)
		if serr != nil {
			return false, serr
		}
		if adv {
			return true, nil
		}
	}
	return false, nil
}

// attemptResult is the outcome of one action's at-least-once retry loop.
type attemptResult struct {
	outcome  Outcome
	err      error
	attempts int
	// cancelled marks a delivery abandoned mid-backoff (context died):
	// no response event is recorded for it, in serial or parallel mode.
	cancelled bool
	// skipped marks a concurrent delivery short-circuited before its first
	// transmit; it is neither recorded nor fed to the set.
	skipped bool
}

// runAttempts is the single at-least-once retry loop behind every delivery
// mode and every relay. onTransmit, when non-nil, is invoked before each
// attempt — the serial path records live; the concurrent engine passes nil
// and the collator replays the events, so there is exactly one encoding of
// the retry-and-trace contract.
func runAttempts(ctx context.Context, action Action, sig Signal, retry RetryPolicy, onTransmit func(attempt int)) attemptResult {
	var r attemptResult
	for attempt := 1; attempt <= retry.Attempts; attempt++ {
		if onTransmit != nil {
			onTransmit(attempt)
		}
		r.attempts = attempt
		r.outcome, r.err = action.ProcessSignal(ctx, sig)
		if r.err == nil {
			return r
		}
		if retry.Backoff > 0 && attempt < retry.Attempts {
			select {
			case <-ctx.Done():
				return attemptResult{
					err:       fmt.Errorf("core: delivery cancelled: %w", ctx.Err()),
					attempts:  attempt,
					cancelled: true,
				}
			case <-time.After(retry.Backoff):
			}
		}
	}
	r.outcome = Outcome{}
	return r
}

// transmitDetail is the trace annotation for the n-th transmit attempt.
func transmitDetail(attempt int) string {
	if attempt > 1 {
		return fmt.Sprintf("retry %d", attempt-1)
	}
	return ""
}

// recordResponse records the response event for a finished delivery:
// success or final failure, but nothing for a delivery cancelled
// mid-backoff — the same shape in serial and parallel mode.
func (c *Coordinator) recordResponse(reg registration, sig Signal, r attemptResult) {
	switch {
	case r.cancelled:
	case r.err == nil:
		c.rec.Record(trace.KindResponse, reg.label, sig.SetName, r.outcome.Name, "")
	default:
		c.rec.Record(trace.KindResponse, reg.label, sig.SetName, "", fmt.Sprintf("error: %v", r.err))
	}
}

// broadcastConcurrent is the one concurrent broadcast behind parallel and
// tree delivery. forestFor lays the registrations out as a forest —
// parallel mode plans no relay subtrees, so every registration is a
// childless root — the fan-out engine delivers it through its bounded
// worker pool, and this collator feeds the responses to the driver in
// registration order. When a response advances the set (or feeding fails)
// the remaining responses are discarded — exactly the responses serial
// delivery would never have produced — work not yet started is skipped, and
// stragglers are cancelled through their context. Trace events are recorded
// at collation time, so the recorded sequence is byte-identical to serial
// delivery's.
func (c *Coordinator) broadcastConcurrent(ctx context.Context, driver *setDriver, regs []registration, sig Signal, policy DeliveryPolicy) (bool, error) {
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f := startFanOut(dctx, sig, c.retry, forestFor(regs, policy))
	// All workers drain their remaining (skipped) work before we return, so
	// no goroutine outlives the broadcast.
	defer f.wg.Wait()

	// at[i] is registration i's forest position.
	at := make([]int, len(regs))
	for p, n := range f.nodes {
		at[n.Member.Index] = p
	}

	advance := false
	var feedErr error
	for i, reg := range regs {
		p := at[i]
		f.landed[p].Wait()
		r := f.results[p]
		if advance || feedErr != nil {
			// Discard speculative responses past the short-circuit,
			// counting the ones an advance (not a feed error) threw away.
			if advance {
				c.countSpeculative(r)
			}
			continue
		}
		if r.skipped {
			continue
		}
		c.replayTrace(reg, sig, r)
		adv, serr := driver.setResponse(r.outcome, r.err)
		if serr != nil {
			feedErr = serr
			f.stop.Store(true)
			cancel()
			continue
		}
		if adv {
			advance = true
			f.stop.Store(true)
			cancel()
		}
	}
	return advance, feedErr
}

// workers is the worker-pool bound for a fan-out of n jobs:
// max(16, 4×GOMAXPROCS), capped at n.
func workers(n int) int {
	return min(max(16, 4*runtime.GOMAXPROCS(0)), n)
}

// fanOut is one concurrent delivery of a signal over a forest of subtrees:
// the engine behind the coordinator's concurrent broadcast and behind relay
// servants (DeliverForest). Each root is one job for the bounded worker
// pool. A childless root is delivered directly through the at-least-once
// retry loop; a root with children goes as one batch to its own relay
// (SubtreeDeliverer), and any member the batch misses is re-adopted:
// delivered directly. Every member's result lands in its forest-preorder
// slot.
type fanOut struct {
	ctx   context.Context
	sig   Signal
	retry RetryPolicy
	// stop skips work not yet started. Only an advance or a feed error sets
	// it, never the caller cancelling ctx: serial delivery still invokes
	// actions under a cancelled parent context.
	stop atomic.Bool

	nodes   []*TreeNode      // every member, in forest preorder
	results []attemptResult  // by forest position
	landed  []sync.WaitGroup // landed[p] is done once results[p] is final
	jobs    []span           // one per root
	next    atomic.Int64     // the next job to claim
	wg      sync.WaitGroup   // the workers
}

// span is one root's subtree: the forest positions [first, end).
type span struct{ first, end int }

// startFanOut starts delivering sig over roots and returns at once.
func startFanOut(ctx context.Context, sig Signal, retry RetryPolicy, roots []*TreeNode) *fanOut {
	total := 0
	for _, r := range roots {
		total += r.Span()
	}
	f := &fanOut{
		ctx: ctx, sig: sig, retry: retry,
		nodes:   make([]*TreeNode, 0, total),
		results: make([]attemptResult, total),
		landed:  make([]sync.WaitGroup, total),
		jobs:    make([]span, len(roots)),
	}
	for i, r := range roots {
		first := len(f.nodes)
		f.nodes = r.preorder(f.nodes)
		f.jobs[i] = span{first, len(f.nodes)}
	}
	for p := range f.landed {
		f.landed[p].Add(1)
	}
	for w := workers(len(roots)); w > 0; w-- {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			for {
				j := int(f.next.Add(1)) - 1
				if j >= len(f.jobs) {
					return
				}
				f.deliver(f.jobs[j])
			}
		}()
	}
	return f
}

// deliver runs one root's subtree, its root first.
func (f *fanOut) deliver(s span) {
	var batch map[int]SubtreeResult
	if root := f.nodes[s.first]; len(root.Children) > 0 && !f.stop.Load() {
		batch = f.relay(root)
	}
	for p := s.first; p < s.end; p++ {
		m := f.nodes[p].Member
		if r, ok := batch[m.Index]; ok {
			f.results[p] = attemptResult{outcome: r.Outcome, err: r.Err, attempts: max(r.Attempts, 1)}
		} else if f.stop.Load() {
			f.results[p].skipped = true
		} else {
			// A childless root, or a member the batch missed: deliver
			// directly, idempotency absorbing any duplicate a dying relay
			// already managed.
			f.results[p] = runAttempts(f.ctx, m.Action, f.sig, f.retry, nil)
		}
		f.landed[p].Done()
	}
}

// relay delivers root's subtree as one batch through the root's relay and
// returns the results by registration index, or nil — re-adopting the
// whole span — when the root cannot relay or its relay failed.
func (f *fanOut) relay(root *TreeNode) map[int]SubtreeResult {
	sd, ok := root.Member.Action.(SubtreeDeliverer)
	if !ok {
		return nil
	}
	res, err := sd.DeliverSubtree(f.ctx, f.sig, root, f.retry)
	if err != nil {
		return nil
	}
	batch := make(map[int]SubtreeResult, len(res))
	for _, r := range res {
		batch[r.Index] = r
	}
	return batch
}

// replayTrace records the transmit/response events for one concurrent
// delivery in the same shape the serial path records them live.
func (c *Coordinator) replayTrace(reg registration, sig Signal, r attemptResult) {
	if c.rec == nil {
		return
	}
	for attempt := 1; attempt <= r.attempts; attempt++ {
		c.rec.Record(trace.KindTransmit, c.owner, reg.label, sig.Name, transmitDetail(attempt))
	}
	c.recordResponse(reg, sig, r)
}
