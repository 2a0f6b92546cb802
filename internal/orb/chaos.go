package orb

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// ChaosTransport dials TCP and injects faults into the frames that cross
// it: added latency, dropped requests or replies, connection resets
// and one-way partitions, all selectable per operation. It exists so the
// failure modes the extended-transaction models are designed to survive —
// a participant vanishing between prepare and commit, a confirm whose
// acknowledgement never arrives, a link too slow to beat the call timeout —
// can be produced deterministically in tests instead of hoping a real
// network misbehaves on cue.
//
// Faults are expressed as an ordered list of ChaosRules (Inject); every
// rule whose stage, operation and occurrence window match a frame
// contributes its fault. Partitions (PartitionSend, PartitionRecv) drop
// whole directions independently of the rule list, and ResetAll abruptly
// closes every live connection. Heal removes everything.
//
// Faults hit exclusive lanes and shared connections alike. A
// ChaosTransport is safe for concurrent use. Injected latency holds the
// owning connection's writer, modelling head-of-line blocking on a slow
// link; closing the connection, or a lane's deadline, cuts it short.
type ChaosTransport struct {
	mu       sync.Mutex
	rules    []*activeRule
	partSend bool
	partRecv bool
	conns    map[*chaosConn]struct{}
}

// ChaosStage locates a fault in the request/reply exchange.
type ChaosStage int

// Fault stages.
const (
	// StageRequest faults the client→server frame before it is sent: the
	// operation never reaches the servant.
	StageRequest ChaosStage = iota
	// StageReply faults the server→client frame before it is delivered:
	// the operation ran, but the caller never learns its outcome.
	StageReply
)

// String returns the stage name.
func (s ChaosStage) String() string {
	switch s {
	case StageRequest:
		return "request"
	case StageReply:
		return "reply"
	default:
		return fmt.Sprintf("ChaosStage(%d)", int(s))
	}
}

// ChaosRule describes one injectable fault. The zero rule matches every
// request frame and does nothing; set the fault fields to make it bite.
type ChaosRule struct {
	// Op matches the ORB operation name ("process_signal", "prepare",
	// "commit", …). Empty matches every operation.
	Op string
	// Signal matches the activity Signal name carried inside the frame's
	// body, so a rule can target "prepare" vs "commit" deliveries directly
	// instead of counting process_signal occurrences. It applies to the
	// operations whose body leads with a signal encoding — process_signal
	// and relay_deliver, both of which put Signal.Name in the body's first
	// CDR string — and is matched at both stages (reply frames match the
	// signal their request carried). Empty matches every frame; a non-empty
	// Signal never matches frames without a decodable signal name.
	Signal string
	// Addr matches the dialed endpoint address, with or without the "tcp:"
	// prefix, so a fault can target one endpoint of a multi-profile
	// reference (e.g. hard-reset the primary while the backup stays
	// healthy). Empty matches every address.
	Addr string
	// Stage selects the frame direction the rule applies to.
	Stage ChaosStage
	// After skips the first After matching frames, so a fault can target
	// e.g. the third delivery (the commit after two prepares).
	After int
	// Count bounds how many times the rule fires once active; 0 means
	// every match.
	Count int

	// Latency delays a frame that is forwarded (not dropped or reset).
	Latency time.Duration
	// Drop swallows the frame: a lost request or a lost reply.
	Drop bool
	// Reset closes the connection instead of forwarding the frame — the
	// peer-reset mid-protocol case.
	Reset bool
}

// activeRule tracks a rule's occurrence counters.
type activeRule struct {
	ChaosRule
	seen  int // matching frames observed (drives After)
	fired int // faults actually applied (drives Count and Hits)
}

// InjectedFault is the handle for one injected rule.
type InjectedFault struct {
	t *ChaosTransport
	r *activeRule
}

// Hits reports how many frames the fault has been applied to.
func (f *InjectedFault) Hits() int {
	f.t.mu.Lock()
	defer f.t.mu.Unlock()
	return f.r.fired
}

// Remove withdraws the rule.
func (f *InjectedFault) Remove() {
	f.t.mu.Lock()
	defer f.t.mu.Unlock()
	for i, r := range f.t.rules {
		if r == f.r {
			f.t.rules = append(f.t.rules[:i], f.t.rules[i+1:]...)
			return
		}
	}
}

// NewChaosTransport returns a fault-injecting TCP transport with no
// faults yet.
func NewChaosTransport() *ChaosTransport {
	return &ChaosTransport{conns: make(map[*chaosConn]struct{})}
}

// Inject adds a fault rule and returns its handle.
func (t *ChaosTransport) Inject(r ChaosRule) *InjectedFault {
	ar := &activeRule{ChaosRule: r}
	t.mu.Lock()
	t.rules = append(t.rules, ar)
	t.mu.Unlock()
	return &InjectedFault{t: t, r: ar}
}

// PartitionSend starts or stops a one-way partition in the client→server
// direction: requests are consumed and silently discarded, so the servant
// never runs and the caller times out.
func (t *ChaosTransport) PartitionSend(on bool) {
	t.mu.Lock()
	t.partSend = on
	t.mu.Unlock()
}

// PartitionRecv starts or stops a one-way partition in the server→client
// direction: the servant runs, but its replies are discarded — the
// "completion unknown" half of a partition.
func (t *ChaosTransport) PartitionRecv(on bool) {
	t.mu.Lock()
	t.partRecv = on
	t.mu.Unlock()
}

// Heal removes every rule and partition. Connections already reset stay
// dead; new dials behave like the base transport.
func (t *ChaosTransport) Heal() {
	t.mu.Lock()
	t.rules = nil
	t.partSend = false
	t.partRecv = false
	t.mu.Unlock()
}

// ResetAll abruptly closes every live connection, as a link reset would.
func (t *ChaosTransport) ResetAll() {
	t.mu.Lock()
	conns := make([]*chaosConn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Dial implements Transport.
func (t *ChaosTransport) Dial(ctx context.Context, addr string) (Conn, error) {
	nc, err := new(net.Dialer).DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &chaosConn{t: t, base: newTCPConn(nc), addr: addr, ops: make(map[uint64]opSig), done: make(chan struct{})}
	t.mu.Lock()
	t.conns[c] = struct{}{}
	t.mu.Unlock()
	return c, nil
}

// verdict is the combined fault decision for one frame.
type verdict struct {
	latency time.Duration
	drop    bool
	reset   bool
}

// decide folds partitions and every matching rule into one verdict. sig is
// the signal name decoded from the frame's body ("" when the operation
// carries none).
func (t *ChaosTransport) decide(stage ChaosStage, op, sig, addr string) verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	var v verdict
	if stage == StageRequest && t.partSend {
		v.drop = true
	}
	if stage == StageReply && t.partRecv {
		v.drop = true
	}
	for _, r := range t.rules {
		if r.Stage != stage {
			continue
		}
		if r.Op != "" && r.Op != op {
			continue
		}
		if r.Signal != "" && r.Signal != sig {
			continue
		}
		if r.Addr != "" && endpointHost(r.Addr) != addr {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count > 0 && r.fired >= r.Count {
			continue
		}
		r.fired++
		v.latency += r.Latency
		v.drop = v.drop || r.Drop
		v.reset = v.reset || r.Reset
	}
	return v
}

// opSig is the per-request identity reply-stage rules match against: the
// operation name plus the signal name decoded from the request body.
type opSig struct {
	op  string
	sig string
}

// signalCarriers names the operations whose request body leads with an
// encoded Signal, making Signal.Name the body's first CDR string: the
// Action servant's process_signal and the relay servant's relay_deliver
// batch both uphold that layout so chaos rules can match on it.
var signalCarriers = map[string]bool{
	"process_signal": true,
	"relay_deliver":  true,
}

// signalNameOf decodes the signal name from a signal-carrying request
// body, returning "" for other operations or undecodable bodies.
func signalNameOf(op string, body []byte) string {
	if !signalCarriers[op] || len(body) == 0 {
		return ""
	}
	var d cdr.Decoder
	d.Reset(body)
	name := d.ReadString()
	if d.Err() != nil {
		return ""
	}
	return name
}

// chaosConn applies the transport's fault rules to one TCP connection.
type chaosConn struct {
	t    *ChaosTransport
	base *tcpConn
	addr string // dialed "host:port", for Addr rules

	mu  sync.Mutex
	ops map[uint64]opSig // in-flight requestID → identity, for reply rules

	done      chan struct{} // closed by Close; cuts injected latency short
	closeOnce sync.Once
	// The last SetDeadline, and a reply still on the slow link, due at
	// lateAt. One caller at a time reads and sets them.
	deadline time.Time
	late     []byte
	lateAt   time.Time
}

// delay holds a frame on the link until t, failing as the socket would
// if the deadline passes or the connection closes first.
func (c *chaosConn) delay(t time.Time) (err error) {
	if !c.deadline.IsZero() && c.deadline.Before(t) {
		t, err = c.deadline, os.ErrDeadlineExceeded
	}
	if d := time.Until(t); d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-c.done:
			return net.ErrClosed
		}
	}
	return err
}

// WriteFrames implements wireConn, faulting frames in order: a drop is
// consumed unsent; a reset or a cut-short delay leaves the rest in *bufs.
func (c *chaosConn) WriteFrames(bufs *net.Buffers) error { return plainConn{c}.WriteFrames(bufs) }

// WriteFrame implements Conn, faulting client→server frames.
func (c *chaosConn) WriteFrame(payload []byte) error {
	req, derr := decodeRequest(payload)
	id := opSig{op: req.operation}
	if derr == nil {
		id.sig = signalNameOf(id.op, req.body)
		c.mu.Lock()
		c.ops[req.requestID] = id
		c.mu.Unlock()
	}
	v := c.t.decide(StageRequest, id.op, id.sig, c.addr)
	var err error
	if !v.drop && !v.reset {
		if err = c.delay(time.Now().Add(v.latency)); err == nil {
			return c.base.WriteFrame(payload)
		}
	}
	// No reply will ever arrive for this request; forget its op so the
	// in-flight map cannot grow without bound under a long partition.
	c.mu.Lock()
	delete(c.ops, req.requestID)
	c.mu.Unlock()
	if v.reset {
		c.Close()
		err = fmt.Errorf("orb: chaos: connection reset before sending %q", id.op)
	}
	return err // nil for a drop: consumed, never sent
}

// ReadFrame implements Conn.
func (c *chaosConn) ReadFrame() ([]byte, error) { return c.ReadFrameReuse(nil) }

// ReadFrameReuse implements wireConn, faulting server→client frames. A
// reply whose latency outlasts the deadline stays on the link, and the
// next read delivers it.
func (c *chaosConn) ReadFrameReuse(buf []byte) ([]byte, error) {
	for c.late == nil {
		frame, err := c.base.ReadFrameReuse(buf)
		if err != nil {
			return nil, err
		}
		var id opSig
		if rep, err := decodeReply(frame); err == nil {
			c.mu.Lock()
			id = c.ops[rep.requestID]
			delete(c.ops, rep.requestID)
			c.mu.Unlock()
		}
		v := c.t.decide(StageReply, id.op, id.sig, c.addr)
		if v.reset {
			c.Close()
			return nil, fmt.Errorf("orb: chaos: connection reset dropping reply to %q", id.op)
		}
		if !v.drop {
			c.late, c.lateAt = frame, time.Now().Add(v.latency)
		}
		buf = frame
	}
	if err := c.delay(c.lateAt); err != nil {
		c.late = bytes.Clone(c.late) // buf goes back to its owner
		return nil, err
	}
	frame := c.late
	c.late = nil
	return frame, nil
}

// SetDeadline implements wireConn.
func (c *chaosConn) SetDeadline(t time.Time) error {
	c.deadline = t
	return c.base.SetDeadline(t)
}

// idleBroken implements wireConn: an injected reset closed the base,
// whose peek reports it, and a late reply counts once it is due.
func (c *chaosConn) idleBroken() bool {
	return c.late != nil && !time.Now().Before(c.lateAt) || c.base.idleBroken()
}

// Close implements Conn.
func (c *chaosConn) Close() error {
	c.t.mu.Lock()
	delete(c.t.conns, c)
	c.t.mu.Unlock()
	c.closeOnce.Do(func() { close(c.done) })
	return c.base.Close()
}
