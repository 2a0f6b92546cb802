package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// tracer collects what the wrappers around the public API see during a
// traced window. Every layer is observed from outside: a counting
// orb.Transport, an ots event hook, a wrapped decision gate, timed
// participants and two samplers. A nil *tracer means tracing is off and
// every method is a no-op, so the untraced run pays one nil check per seam.
type tracer struct {
	// on gates every recorder: the wrappers are installed at bring-up but
	// record only during the traced window.
	on atomic.Bool

	busyNs    atomic.Int64 // time inside the resources and actions this process hosts
	peerBusy  int64        // the same for the peer child's resources, over its whole life
	framesOut atomic.Int64 // request frames written by the benchmark's client transport
	bytesOut  atomic.Int64
	bytesIn   atomic.Int64 // reply frames read by the same connections
	inbound   atomic.Int64 // dispatches on benchmark-hosted servants

	mu       sync.Mutex
	open     map[ids.UID]*txStamps
	stages   [4][]int64 // prepare, decision, phase2, done; ns per transaction
	gateWait []int64

	shed      uint64
	queuedMax int
	lagMax    uint64
}

func newTracer() *tracer { return &tracer{open: make(map[ids.UID]*txStamps)} }

// txStamps are the protocol boundaries of one transaction in flight.
type txStamps struct {
	begin, prepared, decided, delivered time.Time
}

// busy adds participant time since t0.
func (tr *tracer) busy(t0 time.Time) {
	if !t0.IsZero() {
		tr.busyNs.Add(int64(time.Since(t0)))
	}
}

// now is time.Now while recording and the zero time otherwise, so untraced
// participants do not read the clock.
func (tr *tracer) now() time.Time {
	if tr == nil || !tr.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

// txBegin notes when a transaction the ots hook will report on started.
func (tr *tracer) txBegin(id ids.UID, t0 time.Time) {
	if t0.IsZero() {
		return
	}
	tr.mu.Lock()
	tr.open[id] = &txStamps{begin: t0}
	tr.mu.Unlock()
}

// otsHook is installed with ots.WithEventHook. It runs inline on the
// committing goroutine, so it only stamps the clock and files durations.
func (tr *tracer) otsHook(e ots.Event) {
	now := time.Now()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := tr.open[e.Tx]
	if s == nil {
		return
	}
	switch e.Stage {
	case ots.StagePrepared:
		s.prepared = now
	case ots.StageDecisionLogged:
		s.decided = now
	case ots.StageCommitDelivered:
		s.delivered = now // the last delivery wins
	case ots.StageDone:
		tr.stages[0] = append(tr.stages[0], int64(s.prepared.Sub(s.begin)))
		tr.stages[1] = append(tr.stages[1], int64(s.decided.Sub(s.prepared)))
		tr.stages[2] = append(tr.stages[2], int64(s.delivered.Sub(s.decided)))
		tr.stages[3] = append(tr.stages[3], int64(now.Sub(s.delivered)))
		delete(tr.open, e.Tx)
	}
}

// wrapGate times a decision gate.
func (tr *tracer) wrapGate(gate func(lsn uint64) error) func(lsn uint64) error {
	if tr == nil {
		return gate
	}
	return func(lsn uint64) error {
		t0 := tr.now()
		err := gate(lsn)
		if !t0.IsZero() {
			d := int64(time.Since(t0))
			tr.mu.Lock()
			tr.gateWait = append(tr.gateWait, d)
			tr.mu.Unlock()
		}
		return err
	}
}

// orbOptions wraps the default TCP transport with frame and byte counts.
// The wrapper implements only the plain orb.Conn methods, so a traced ORB
// forgoes the unexported batch-write and reuse-read fast paths: counts are
// taken from it, never times.
func (tr *tracer) orbOptions() []orb.ORBOption {
	if tr == nil {
		return nil
	}
	return []orb.ORBOption{orb.WithTransport(countingTransport{tr: tr})}
}

type countingTransport struct {
	base orb.TCPTransport
	tr   *tracer
}

func (t countingTransport) Dial(ctx context.Context, addr string) (orb.Conn, error) {
	c, err := t.base.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, tr: t.tr}, nil
}

type countingConn struct {
	orb.Conn
	tr *tracer
}

func (c *countingConn) WriteFrame(p []byte) error {
	if c.tr.on.Load() {
		c.tr.framesOut.Add(1)
		c.tr.bytesOut.Add(int64(len(p)) + 4) // the u32 length prefix travels too
	}
	return c.Conn.WriteFrame(p)
}

func (c *countingConn) ReadFrame() ([]byte, error) {
	b, err := c.Conn.ReadFrame()
	if c.tr.on.Load() {
		c.tr.bytesIn.Add(int64(len(b)) + 4)
	}
	return b, err
}

// sample polls gauges every 100 ms until stop is closed: the server-side
// admission state (shed must stay 0, queued is kept as a maximum) and the
// replication lag in records. Either source may be nil.
func (tr *tracer) sample(stop <-chan struct{}, server func() (shed uint64, queued int, ok bool), lag func() uint64) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		if server != nil {
			if shed, queued, ok := server(); ok {
				tr.mu.Lock()
				tr.shed = shed
				tr.queuedMax = max(tr.queuedMax, queued)
				tr.mu.Unlock()
			}
		}
		if lag != nil {
			l := lag()
			tr.mu.Lock()
			tr.lagMax = max(tr.lagMax, l)
			tr.mu.Unlock()
		}
		select {
		case <-stop:
			return
		case <-tick.C:
		}
	}
}

// tally is what a set of benchmark-hosted participants saw. The
// correctness gate compares it with the number of units driven.
type tally struct {
	prepares, commits, rollbacks atomic.Int64
}

// noopResource is a two-phase participant that does no work: what a layer
// cannot save is only the time spent in here, which the tracer subtracts.
// veto makes it vote rollback, for the test of the correctness gate.
type noopResource struct {
	name string // recovery name written to the decision record; "" is anonymous
	veto bool
	t    *tally
	tr   *tracer
}

var _ ots.NamedResource = (*noopResource)(nil)

func (r *noopResource) RecoveryName() string { return r.name }

func (r *noopResource) Prepare() (ots.Vote, error) {
	defer r.tr.busy(r.tr.now())
	r.t.prepares.Add(1)
	if r.veto {
		return ots.VoteRollback, nil
	}
	return ots.VoteCommit, nil
}

func (r *noopResource) Commit() error {
	defer r.tr.busy(r.tr.now())
	r.t.commits.Add(1)
	return nil
}

func (r *noopResource) Rollback() error {
	r.t.rollbacks.Add(1)
	return nil
}

func (r *noopResource) CommitOnePhase() error { return r.Commit() }
func (r *noopResource) Forget() error         { return nil }

// ackAction is a benchmark-hosted Action enrolled in one remote activity.
// It answers every signal with its payload and counts what it saw, so the
// gate can check it received exactly one completion signal.
type ackAction struct {
	payload []byte
	signals atomic.Int64
	tr      *tracer
}

func (a *ackAction) ProcessSignal(_ context.Context, _ activityservice.Signal) (activityservice.Outcome, error) {
	t0 := a.tr.now()
	defer a.tr.busy(t0)
	if !t0.IsZero() {
		a.tr.inbound.Add(1)
	}
	a.signals.Add(1)
	return activityservice.Outcome{Name: "ack", Data: a.payload}, nil
}
