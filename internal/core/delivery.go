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
	// fig. 5 exchange as literally drawn. It is the zero mode, so a set
	// that names no policy delivers serially. In every round of a set
	// that embeds a SequenceSet, a run of consecutive remote participants
	// on one endpoint (EndpointBatcher) travels to its host as one call:
	// the host still delivers one at a time in registration order, and in
	// a round a veto can cut short it stops after the first member that
	// vetoes or fails, so no later member receives the signal. Collation,
	// Responses and the trace are those of literal serial delivery.
	DeliverSerial DeliveryMode = iota
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

// DeliveryPolicy configures how a set's broadcasts are delivered. The
// zero value delivers serially.
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

// DeliveryPolicyProvider is implemented by SignalSets that declare how
// their broadcasts are delivered. BaseSet provides the plumbing: any set
// embedding it declares a policy with SetDelivery.
type DeliveryPolicyProvider interface {
	// Delivery returns the set's policy (zero = serial).
	Delivery() DeliveryPolicy
}

// policyFor is the one delivery rule: the set's declared policy, or
// serial when it declares none.
func policyFor(set SignalSet) DeliveryPolicy {
	if p, ok := set.(DeliveryPolicyProvider); ok {
		return p.Delivery()
	}
	return DeliveryPolicy{}
}

// EndpointBatcher is the optional interface of remote Actions whose host
// can take a same-host run of a serial broadcast as one call. A serial
// broadcast of a SequenceSet round hands a run of two or more consecutive
// registrations with equal endpoints to the run's first action. The host
// delivers the members one at a time, in order; in a round a veto can cut
// short it stops where serial delivery would stop.
type EndpointBatcher interface {
	// BatchEndpoint names the action's host; "" never batches. It must not
	// change once the action is enrolled.
	BatchEndpoint() string
	// DeliverBatch has the host deliver sig to run — actions on this
	// action's endpoint, this one first — as DeliverRun does: one at a
	// time, in order, with retry per member. When stop is not "" (the
	// set's veto), the host stops after the first member that answers
	// stop or whose delivery fails. It returns one result per member it
	// delivered to, a prefix of run in run order, Index its position in
	// run; unless the set advanced, the coordinator delivers the members
	// past the prefix one by one. An error (or results that are no prefix)
	// means the run's fate is unknown: the coordinator redelivers it member
	// by member, so delivery stays at least once. A batcher that cannot
	// honour stop returns an error before it sends anything.
	DeliverBatch(ctx context.Context, sig Signal, run []Action, stop string, retry RetryPolicy) ([]SubtreeResult, error)
}

// broadcastSerial delivers sig to each registration in order, feeding every
// response back immediately; an advance stops the broadcast. In a
// SequenceSet round (roundStop) each run of consecutive registrations on
// one endpoint goes to its host as one ordered batch (deliverRun), which
// stops at the round's veto; a registration that cannot batch costs one
// flag test, since enrolment asked once whether it batches. Other sets'
// rounds are delivered one by one.
func (a *Activity) broadcastSerial(ctx context.Context, driver *setDriver, regs []registration, sig Signal, last bool) (bool, error) {
	stop, ok := driver.roundStop(last)
	if !ok {
		return a.deliverEach(ctx, driver, regs, sig)
	}
	for len(regs) > 0 {
		at, n := nextRun(regs)
		if adv, err := a.deliverEach(ctx, driver, regs[:at], sig); adv || err != nil {
			return adv, err
		}
		if n == 0 {
			break
		}
		if adv, err := a.deliverRun(ctx, driver, regs[at:at+n], sig, stop); adv || err != nil {
			return adv, err
		}
		regs = regs[at+n:]
	}
	return false, nil
}

// deliverEach delivers sig to regs one at a time, each response fed back
// before the next transmit.
func (a *Activity) deliverEach(ctx context.Context, driver *setDriver, regs []registration, sig Signal) (bool, error) {
	for i := range regs {
		var r attemptResult
		a.deliver(ctx, &regs[i], sig, &r)
		adv, serr := driver.setResponse(r.outcome, r.err)
		if serr != nil {
			return false, serr
		}
		if adv {
			return true, nil
		}
	}
	return false, nil
}

// nextRun finds the first run of two or more consecutive registrations
// with one batch endpoint. It returns where the run starts and its length,
// or len(regs) and 0 when there is none.
func nextRun(regs []registration) (at, n int) {
	for at = 0; at+1 < len(regs); at++ {
		ep := regs[at].batchEndpoint()
		if ep == "" {
			continue
		}
		for n = 1; at+n < len(regs) && regs[at+n].batchEndpoint() == ep; n++ {
		}
		if n > 1 {
			return at, n
		}
	}
	return len(regs), 0
}

// deliverRun ships a same-endpoint run to its host as one ordered batch,
// then replays each delivered member's trace and feeds its response
// exactly as the serial path records them live. Members past the prefix
// the host returned are delivered one by one unless the set advanced; a
// batch that fails redelivers the run member by member.
func (a *Activity) deliverRun(ctx context.Context, driver *setDriver, run []registration, sig Signal, stop string) (bool, error) {
	actions := make([]Action, len(run))
	for i, reg := range run {
		actions[i] = reg.action
	}
	res, err := run[0].action.(EndpointBatcher).DeliverBatch(ctx, sig, actions, stop, a.svc.retry)
	if err != nil || !runPrefix(res, len(run)) {
		return a.deliverEach(ctx, driver, run, sig)
	}
	for i := range res {
		r := attemptResult{outcome: res[i].Outcome, err: res[i].Err, attempts: max(res[i].Attempts, 1)}
		a.replayTrace(&run[i], sig, &r)
		adv, serr := driver.setResponse(r.outcome, r.err)
		if serr != nil {
			return false, serr
		}
		if adv {
			return true, nil
		}
	}
	return a.deliverEach(ctx, driver, run[len(res):], sig)
}

// runPrefix reports whether res holds one result per member of a prefix
// of an n-member run, in run order.
func runPrefix(res []SubtreeResult, n int) bool {
	if len(res) > n {
		return false
	}
	for i, r := range res {
		if r.Index != i {
			return false
		}
	}
	return true
}

// DeliverRun delivers sig to each action of run the way a serial broadcast
// does: one at a time, in order, each through retry's at-least-once loop
// and only after its predecessor answered. When stop is not "" it stops
// after the first action that answers stop or whose delivery fails. It
// returns one result per action it delivered to, Index its position in
// run. A host serving an EndpointBatcher's batch calls it.
func DeliverRun(ctx context.Context, sig Signal, run []Action, stop string, retry RetryPolicy) []SubtreeResult {
	retry.Attempts = max(retry.Attempts, 1)
	out := make([]SubtreeResult, 0, len(run))
	for i, a := range run {
		var r attemptResult
		runAttempts(ctx, a, sig, retry, nil, &r)
		out = append(out, SubtreeResult{Index: i, Attempts: r.attempts, Outcome: r.outcome, Err: r.err})
		if stop != "" && (r.err != nil || r.outcome.Name == stop) {
			break
		}
	}
	return out
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
// mode and every relay; it fills r, which the caller passes zeroed.
// onTransmit, when non-nil, is invoked before each attempt — the serial
// path records live; the concurrent engine passes nil and the collator
// replays the events, so there is exactly one encoding of the
// retry-and-trace contract.
func runAttempts(ctx context.Context, action Action, sig Signal, retry RetryPolicy, onTransmit func(attempt int), r *attemptResult) {
	for attempt := 1; attempt <= retry.Attempts; attempt++ {
		if onTransmit != nil {
			onTransmit(attempt)
		}
		r.attempts = attempt
		r.outcome, r.err = action.ProcessSignal(ctx, sig)
		if r.err == nil {
			return
		}
		if retry.Backoff > 0 && attempt < retry.Attempts {
			select {
			case <-ctx.Done():
				*r = attemptResult{
					err:       fmt.Errorf("core: delivery cancelled: %w", ctx.Err()),
					attempts:  attempt,
					cancelled: true,
				}
				return
			case <-time.After(retry.Backoff):
			}
		}
	}
	r.outcome = Outcome{}
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
func (a *Activity) recordResponse(reg *registration, sig Signal, r *attemptResult) {
	switch {
	case a.svc.rec == nil || r.cancelled:
	case r.err == nil:
		a.svc.rec.Record(trace.KindResponse, reg.name(), sig.SetName, r.outcome.Name, "")
	default:
		a.svc.rec.Record(trace.KindResponse, reg.name(), sig.SetName, "", fmt.Sprintf("error: %v", r.err))
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
func (a *Activity) broadcastConcurrent(ctx context.Context, driver *setDriver, regs []registration, sig Signal, policy DeliveryPolicy) (bool, error) {
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f := startFanOut(dctx, sig, a.svc.retry, forestFor(regs, policy))
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
	for i := range regs {
		p := at[i]
		f.landed[p].Wait()
		r := &f.results[p]
		if advance || feedErr != nil || r.skipped {
			// Discard speculative responses past the short-circuit.
			continue
		}
		a.replayTrace(&regs[i], sig, r)
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
			runAttempts(f.ctx, m.Action, f.sig, f.retry, nil, &f.results[p])
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
func (a *Activity) replayTrace(reg *registration, sig Signal, r *attemptResult) {
	if a.svc.rec == nil {
		return
	}
	label := reg.name()
	for attempt := 1; attempt <= r.attempts; attempt++ {
		a.svc.rec.Record(trace.KindTransmit, a.name, label, sig.Name, transmitDetail(attempt))
	}
	a.recordResponse(reg, sig, r)
}
