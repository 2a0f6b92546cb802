package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// SignalSet errors.
var (
	// ErrSignalSetActive is raised by GetOutcome before the set reaches the
	// End state (the IDL's SignalSetActive exception).
	ErrSignalSetActive = errors.New("core: signal set is still active")
	// ErrSignalSetInactive is raised by SetResponse after the set reached
	// the End state (the IDL's SignalSetInactive exception).
	ErrSignalSetInactive = errors.New("core: signal set has ended")
	// ErrExhausted is returned by GetSignal when the set has no signal to
	// send, moving it straight to the End state (fig. 7's Waiting→End
	// transition).
	ErrExhausted = errors.New("core: signal set has no further signals")
	// ErrCompletionStatusFixed reports an attempt to change a FailOnly
	// completion status.
	ErrCompletionStatusFixed = errors.New("core: completion status is fail-only")
)

// SignalSet generates the Signals a coordinator distributes and collates
// the responses, per the paper's IDL:
//
//	interface SignalSet {
//	    readonly attribute string signal_set_name;
//	    Signal get_signal (inout boolean lastSignal);
//	    Outcome get_outcome () raises(SignalSetActive);
//	    boolean set_response (in Outcome response, out boolean nextSignal)
//	                          raises (SignalSetInactive);
//	    void set_completion_status (in CompletionStatus cs);
//	    CompletionStatus get_completion_status ();
//	};
//
// The coordinator drives the fig. 7 state machine: it calls GetSignal,
// broadcasts the returned signal to every registered Action, feeds each
// action's outcome back with SetResponse, and asks for the next signal when
// the broadcast finishes or the set requests early advance. GetOutcome is
// valid only once the set has ended.
type SignalSet interface {
	// Name returns the signal_set_name.
	Name() string
	// GetSignal returns the next signal to broadcast. last reports whether
	// this is the final signal (the set ends after its broadcast, unless an
	// early advance produces another). ErrExhausted means the set has
	// nothing (more) to send.
	GetSignal() (sig Signal, last bool, err error)
	// SetResponse feeds one action's outcome (or delivery error) back.
	// advance=true asks the coordinator to stop the current broadcast and
	// request a new signal immediately.
	SetResponse(resp Outcome, deliveryErr error) (advance bool, err error)
	// GetOutcome collates the protocol result; only valid after the set has
	// ended (otherwise ErrSignalSetActive).
	GetOutcome() (Outcome, error)
	// SetCompletionStatus tells the set which way the activity is
	// completing, so it can choose its signals accordingly.
	SetCompletionStatus(cs CompletionStatus)
	// CompletionStatus returns the last status given to the set.
	CompletionStatus() CompletionStatus
}

// SetState is a SignalSet's protocol state, per fig. 7.
type SetState int

// SignalSet states (fig. 7).
const (
	// StateWaiting: created, not yet asked for a signal.
	StateWaiting SetState = iota + 1
	// StateGetSignal: actively producing signals.
	StateGetSignal
	// StateEnd: finished; cannot produce signals and will not be reused.
	StateEnd
)

// String returns the fig. 7 state name.
func (s SetState) String() string {
	switch s {
	case StateWaiting:
		return "Waiting"
	case StateGetSignal:
		return "GetSignal"
	case StateEnd:
		return "End"
	default:
		return fmt.Sprintf("SetState(%d)", int(s))
	}
}

// setDriver wraps a SignalSet with the fig. 7 state machine, enforcing
// that a set is never reused after End and that GetOutcome only runs in
// End.
type setDriver struct {
	set SignalSet
	// seq is the SequenceSet set embeds, nil if it embeds none; looked up
	// once, at registration (roundStop).
	seq *SequenceSet

	// state holds a SetState. Every transition is one store and every
	// check one load, so an atomic orders them without a lock — the
	// per-response check costs a plain load.
	state atomic.Int32
}

// init makes d the Waiting driver of set, in place.
func (d *setDriver) init(set SignalSet) {
	d.set, d.seq = set, nil
	switch s := set.(type) {
	case *SequenceSet:
		d.seq = s
	case sequenced:
		d.seq = s.sequence()
	}
	d.state.Store(int32(StateWaiting))
}

func (d *setDriver) State() SetState { return SetState(d.state.Load()) }

// getSignal transitions Waiting/GetSignal → GetSignal, or → End when the
// set is exhausted.
func (d *setDriver) getSignal() (Signal, bool, error) {
	if d.State() == StateEnd {
		return Signal{}, false, fmt.Errorf("%w: get_signal after End", ErrSignalSetInactive)
	}
	sig, last, err := d.set.GetSignal()
	if err != nil {
		d.state.Store(int32(StateEnd))
		return Signal{}, false, err
	}
	d.state.Store(int32(StateGetSignal))
	return sig, last, nil
}

func (d *setDriver) setResponse(resp Outcome, deliveryErr error) (bool, error) {
	if st := d.State(); st != StateGetSignal {
		return false, fmt.Errorf("%w: set_response in state %s", ErrSignalSetInactive, st)
	}
	return d.set.SetResponse(resp, deliveryErr)
}

// end transitions to End after the last signal's broadcast.
func (d *setDriver) end() { d.state.Store(int32(StateEnd)) }

func (d *setDriver) getOutcome() (Outcome, error) {
	if st := d.State(); st != StateEnd {
		return Outcome{}, fmt.Errorf("%w: get_outcome in state %s", ErrSignalSetActive, st)
	}
	return d.set.GetOutcome()
}

// BaseSet provides the completion-status bookkeeping every SignalSet
// needs; embed it (unexported-field style) via composition in model
// implementations. It also carries the set's delivery policy (it
// implements DeliveryPolicyProvider): serial unless SetDelivery declares
// another. It takes no lock: the coordinator reads both on every drive
// or round, so each is one atomic word.
type BaseSet struct {
	name string

	// status is the completion status less CompletionSuccess, so a zero
	// BaseSet reads Success.
	status atomic.Int32
	// delivery is the policy packed by packPolicy, so a reader never sees
	// half of a concurrent SetDelivery.
	delivery atomic.Uint64
}

// NewBaseSet returns a BaseSet with the given name and a Success status.
func NewBaseSet(name string) BaseSet {
	return BaseSet{name: name}
}

// Name implements SignalSet.
func (b *BaseSet) Name() string { return b.name }

// SetCompletionStatus implements SignalSet. FailOnly is sticky, per
// §3.2.1: the compare-and-swap loop never overwrites it.
func (b *BaseSet) SetCompletionStatus(cs CompletionStatus) {
	next := int32(cs - CompletionSuccess)
	for {
		cur := b.status.Load()
		if cur == int32(CompletionFailOnly-CompletionSuccess) || cur == next {
			return
		}
		if b.status.CompareAndSwap(cur, next) {
			return
		}
	}
}

// CompletionStatus implements SignalSet.
func (b *BaseSet) CompletionStatus() CompletionStatus {
	return CompletionSuccess + CompletionStatus(b.status.Load())
}

// SetDelivery declares how every broadcast of this set is delivered. The
// set's policy is the only one the coordinator consults; the zero policy,
// the default, delivers serially.
func (b *BaseSet) SetDelivery(p DeliveryPolicy) {
	b.delivery.Store(packPolicy(p))
}

// Delivery implements DeliveryPolicyProvider.
func (b *BaseSet) Delivery() DeliveryPolicy {
	return unpackPolicy(b.delivery.Load())
}

// packPolicy packs p into one word: the mode in the high half, the
// branching factor in the low half, each saturated to the int32 range (a
// branching factor that large already exceeds any set's registrations,
// so it delivers the same). The zero policy packs to zero.
func packPolicy(p DeliveryPolicy) uint64 {
	return uint64(uint32(saturate32(int(p.Mode))))<<32 | uint64(uint32(saturate32(p.Branching)))
}

// unpackPolicy inverts packPolicy.
func unpackPolicy(w uint64) DeliveryPolicy {
	return DeliveryPolicy{Mode: DeliveryMode(int32(w >> 32)), Branching: int(int32(w))}
}

// saturate32 clamps v to the int32 range.
func saturate32(v int) int32 {
	return int32(min(max(v, math.MinInt32), math.MaxInt32))
}

// SequenceSet is the ready-made SignalSet: every extended transaction
// model in hls/* is a declaration on it. It sends a sequence of signals,
// one broadcast each, and collates a fixed outcome. Builder methods,
// called before the set is registered, cover the fig. 7 shapes the models
// need:
//
//   - Signals sends signals that carry Data;
//   - OnFailure declares a failure sequence, taken instead when the
//     completion status is not Success at the first GetSignal, or after a
//     veto;
//   - Veto names a response that, like a delivery error, dooms the set
//     during a non-final round of its first sequence: the broadcast is cut
//     short and the failure sequence follows. Vetoes in the final round
//     are ignored;
//   - Outcomes declares the outcome names for success and failure;
//   - Collate computes the outcome from the responses instead.
//
// A set records every response for Collate and Responses, unless it
// declares its outcomes and has no Collate: then a response that is not a
// veto takes no lock.
// A zero SequenceSet given a NewBaseSet and declared Outcomes acts as one
// from NewSequenceSet, so a model may embed one and set it up in place.
type SequenceSet struct {
	BaseSet

	mu        sync.Mutex
	failed    atomic.Bool // the current sequence is onFail; set under mu, read lock-free
	declared  bool
	signals   []Signal // shared, never written: callers may pass one slice to many sets
	onFail    []Signal
	veto      string
	idx       int // position in the current sequence
	responses []Outcome
	outcome   string
	failure   string
	// collate, when non-nil, computes the final outcome from all responses.
	collate func(responses []Outcome) Outcome
}

var _ SignalSet = (*SequenceSet)(nil)

// NewSequenceSet returns a SignalSet named name that broadcasts the given
// signal names in order. The final outcome is "completed" unless the set
// declares others with Outcomes or a collate function with Collate.
func NewSequenceSet(name string, signalNames ...string) *SequenceSet {
	s := &SequenceSet{BaseSet: NewBaseSet(name), outcome: "completed"}
	for _, sn := range signalNames {
		s.signals = append(s.signals, Signal{Name: sn, SetName: name})
	}
	return s
}

// Signals replaces the set's sequence with sigs and returns the set. A
// signal with no SetName is sent under the set's name. The set keeps sigs
// without copying it, so one immutable slice can serve every instance.
func (s *SequenceSet) Signals(sigs ...Signal) *SequenceSet {
	s.signals = sigs
	return s
}

// OnFailure declares the failure sequence and returns the set. Like
// Signals, it keeps sigs without copying it.
func (s *SequenceSet) OnFailure(sigs ...Signal) *SequenceSet {
	s.onFail = sigs
	return s
}

// Veto names the response outcome that dooms the set and returns the set.
func (s *SequenceSet) Veto(name string) *SequenceSet {
	s.veto = name
	return s
}

// Outcomes declares the set's outcome names, one when the set ends on its
// first sequence and one when it ends on its failure sequence, and returns
// the set.
func (s *SequenceSet) Outcomes(success, failure string) *SequenceSet {
	s.outcome, s.failure, s.declared = success, failure, true
	return s
}

// Collate sets the response-collation function and returns the set.
func (s *SequenceSet) Collate(fn func(responses []Outcome) Outcome) *SequenceSet {
	s.collate = fn
	return s
}

// Failed reports whether the set took its failure sequence.
func (s *SequenceSet) Failed() bool {
	return s.failed.Load()
}

// GetSignal implements SignalSet.
func (s *SequenceSet) GetSignal() (Signal, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx == 0 && !s.failed.Load() && s.onFail != nil && s.CompletionStatus() != CompletionSuccess {
		s.failed.Store(true)
	}
	seq := s.signals
	if s.failed.Load() {
		seq = s.onFail
	}
	if s.idx >= len(seq) {
		return Signal{}, false, ErrExhausted
	}
	sig := seq[s.idx]
	s.idx++
	if sig.SetName == "" {
		sig.SetName = s.name
	}
	return sig, s.idx == len(seq), nil
}

// SetResponse implements SignalSet. A veto (or a delivery error, when the
// set names a veto) during a non-final round of the first sequence
// switches to the failure sequence and asks the coordinator to advance.
func (s *SequenceSet) SetResponse(resp Outcome, deliveryErr error) (bool, error) {
	vetoed := s.veto != "" && (deliveryErr != nil || resp.Name == s.veto)
	record := !s.declared || s.collate != nil
	if !vetoed && !record {
		return false, nil
	}
	if deliveryErr != nil {
		resp = Outcome{Name: "delivery-error", Data: deliveryErr.Error()}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if record {
		s.responses = append(s.responses, resp)
	}
	if vetoed && !s.failed.Load() && s.idx < len(s.signals) {
		s.failed.Store(true)
		s.idx = 0
		return true, nil
	}
	return false, nil
}

// sequenced is implemented by *SequenceSet, and so by every set that
// embeds one.
type sequenced interface{ sequence() *SequenceSet }

func (s *SequenceSet) sequence() *SequenceSet { return s }

// roundStop reports whether a serial broadcast of the driven set's
// current round may ship same-host runs as ordered batches, and the
// response at which a batch must stop: "" when no response can advance
// the round. last tells whether GetSignal called the round the final one.
// Any set that embeds a SequenceSet batches, for its rounds advance only as
// the SequenceSet's do: a round names the set's veto as its stop unless
// the set names none, runs its failure sequence, or is in its final round.
// Any other set may advance on any response and is delivered one by one.
// It takes no lock: the veto is fixed before the set is registered, and
// failed is atomic.
func (d *setDriver) roundStop(last bool) (stop string, ok bool) {
	s := d.seq
	if s == nil {
		return "", false
	}
	if s.veto == "" || last || s.failed.Load() {
		return "", true
	}
	return s.veto, true
}

// GetOutcome implements SignalSet.
func (s *SequenceSet) GetOutcome() (Outcome, error) {
	if s.collate != nil {
		return s.collate(s.Responses()), nil // unlocked, so it may call Failed
	}
	if s.declared && s.Failed() {
		return Outcome{Name: s.failure}, nil
	}
	return Outcome{Name: s.outcome}, nil
}

// Responses returns a copy of all responses received so far.
func (s *SequenceSet) Responses() []Outcome {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Outcome(nil), s.responses...)
}
