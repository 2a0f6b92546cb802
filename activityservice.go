// Package activityservice is the public API of the CORBA Activity Service
// Framework reproduction: a general-purpose event-signalling framework for
// building extended transaction models.
//
// The design follows Houston, Little, Robinson, Shrivastava & Wheater,
// "The CORBA Activity Service Framework for Supporting Extended
// Transactions" (Middleware 2001 / SP&E 33(4), 2003): activities —
// application-specific units of computation — coordinate each other
// through Signals generated by SignalSets and delivered to registered
// Actions by an activity coordinator. Extended transaction models
// (two-phase commit, open nested transactions with compensation, sagas,
// LRUOW, transactional workflow, BTP atoms and cohesions, CA actions) are
// expressed purely as SignalSet/Action implementations; ready-made models
// live in the hls/... packages.
//
// # Quick start
//
//	svc := activityservice.New()
//	a := svc.Begin("my-activity")
//	set := activityservice.NewSequenceSet("greet", "hello")
//	_ = a.RegisterSignalSet(set)
//	_, _ = a.AddAction("greet", activityservice.ActionFunc(
//	    func(ctx context.Context, sig activityservice.Signal) (activityservice.Outcome, error) {
//	        fmt.Println("signal:", sig.Name)
//	        return activityservice.Outcome{Name: "ok"}, nil
//	    }))
//	_, _ = a.Signal(ctx, "greet")
//	_, _ = a.Complete(ctx)
//
// # Delivery policies
//
// The coordinator broadcasts each Signal to every Action registered with
// the set. How the broadcast is delivered is governed by a DeliveryPolicy:
//
//   - DeliverSerial (the default): one action at a time, in registration
//     order, waiting for each response before the next transmit — the
//     fig. 5 exchange as literally drawn.
//   - DeliverParallel: all actions concurrently through a bounded worker
//     pool of max(16, 4×GOMAXPROCS).
//   - DeliverTree: the broadcast relayed down a branching-factor tree of
//     relay-capable actions (see SubtreeDeliverer and the orb package's
//     ServeRelay): the coordinator contacts only the subtree roots and
//     outcomes aggregate back up with registration identity intact. The
//     tree shape comes from a deterministic planner over measured
//     per-endpoint RTTs; parallel and tree delivery share one concurrent
//     engine, which relays also run over their own span.
//
// The policy is selectable per Service with WithDelivery and per SignalSet
// with BaseSet.SetDelivery (a set's own choice wins). Whatever the policy,
// the engine guarantees:
//
//   - Responses are fed to the SignalSet in registration order, so
//     collation, SetResponse-driven advance and the recorded trace are
//     byte-identical between serial and parallel delivery.
//   - When a response advances the set, responses from actions later in
//     registration order are discarded (exactly the responses serial
//     delivery would never have produced) and in-flight stragglers are
//     cancelled through their context.
//   - Parallel delivery is speculative: an action later in registration
//     order may receive a signal that serial delivery would have
//     short-circuited away. Actions must be idempotent anyway (delivery is
//     at least once, §3.4); sets that rely on advance to prevent later
//     deliveries — not merely ignore them — must stay serial.
//
// The hls models opt their natural broadcast phases in: btp atoms prepare
// and confirm in parallel by default, twopc offers WithDelivery on its
// coordinator, and sagas run their forward stage concurrently via
// Saga.Parallel while keeping compensation order deterministic.
//
// The implementation lives in internal/core; this package re-exports the
// stable surface. The companion packages ots (transaction service) and orb
// (GIOP-lite object request broker) expose the substrates.
package activityservice

import (
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/trace"
	"github.com/extendedtx/activityservice/internal/wal"
)

// Core framework types (§3 of the paper).
type (
	// Service is the Activity Service: the factory for activities.
	Service = core.Service
	// Activity is a unit of (distributed) work.
	Activity = core.Activity
	// Coordinator drives SignalSet protocols over registered Actions.
	Coordinator = core.Coordinator
	// Signal is the data transmitted to Actions.
	Signal = core.Signal
	// Outcome is an Action's response or a protocol's collated result.
	Outcome = core.Outcome
	// Action receives Signals.
	Action = core.Action
	// ActionFunc adapts a function to Action.
	ActionFunc = core.ActionFunc
	// ActionID identifies a registration for later removal.
	ActionID = core.ActionID
	// SignalSet generates Signals and collates responses.
	SignalSet = core.SignalSet
	// SetState is the fig. 7 SignalSet state (Waiting/GetSignal/End).
	SetState = core.SetState
	// BaseSet supplies the completion-status plumbing for SignalSet
	// implementations.
	BaseSet = core.BaseSet
	// SequenceSet is a ready-made fixed-sequence SignalSet.
	SequenceSet = core.SequenceSet
	// CompletionStatus is Success/Fail/FailOnly (§3.2.1).
	CompletionStatus = core.CompletionStatus
	// ActivityState is the activity lifecycle state.
	ActivityState = core.ActivityState
	// RetryPolicy controls at-least-once signal delivery.
	RetryPolicy = core.RetryPolicy
	// DeliveryPolicy selects serial, parallel or relay-tree signal fan-out.
	DeliveryPolicy = core.DeliveryPolicy
	// DeliveryMode is the fan-out mode of a DeliveryPolicy.
	DeliveryMode = core.DeliveryMode
	// DeliveryPolicyProvider is implemented by sets choosing their own
	// delivery policy.
	DeliveryPolicyProvider = core.DeliveryPolicyProvider
	// DeliveryStats is a snapshot of the Service's speculative-delivery
	// accounting: parallel fan-out work discarded by advances
	// (Service.DeliveryStats).
	DeliveryStats = core.DeliveryStats
	// TreeMember is one participant of a relay tree.
	TreeMember = core.TreeMember
	// TreeNode is one vertex of a relay tree.
	TreeNode = core.TreeNode
	// RelayInfo is the node identity a relay-capable Action reports.
	RelayInfo = core.RelayInfo
	// SubtreeDeliverer is the optional interface of relay-capable Actions.
	SubtreeDeliverer = core.SubtreeDeliverer
	// SubtreeResult is one member's outcome reported up a relay tree.
	SubtreeResult = core.SubtreeResult
	// PropertyGroup is the tuple-space attribute store of §3.3.
	PropertyGroup = core.PropertyGroup
	// TupleSpace is the standard PropertyGroup implementation.
	TupleSpace = core.TupleSpace
	// NestedVisibility controls child views of a property group.
	NestedVisibility = core.NestedVisibility
	// Propagation controls how a property group travels with requests.
	Propagation = core.Propagation
	// PropagationContext is the wire form of the activity context.
	PropagationContext = core.PropagationContext
	// UserActivity is the demarcation API of fig. 13 (JSR-95 style).
	UserActivity = core.UserActivity
	// ActivityManager is the HLS-facing plumbing API of fig. 13.
	ActivityManager = core.ActivityManager
	// Option configures a Service.
	Option = core.Option
	// BeginOption configures one activity.
	BeginOption = core.BeginOption
	// SignalSetFactory recreates SignalSets during recovery.
	SignalSetFactory = core.SignalSetFactory
	// ActionFactory recreates Actions during recovery.
	ActionFactory = core.ActionFactory
)

// Completion statuses (§3.2.1).
const (
	CompletionSuccess  = core.CompletionSuccess
	CompletionFail     = core.CompletionFail
	CompletionFailOnly = core.CompletionFailOnly
)

// Activity lifecycle states.
const (
	ActivityActive     = core.ActivityActive
	ActivitySuspended  = core.ActivitySuspended
	ActivityCompleting = core.ActivityCompleting
	ActivityCompleted  = core.ActivityCompleted
)

// SignalSet states (fig. 7).
const (
	StateWaiting   = core.StateWaiting
	StateGetSignal = core.StateGetSignal
	StateEnd       = core.StateEnd
)

// Delivery modes.
const (
	DeliverSerial   = core.DeliverSerial
	DeliverParallel = core.DeliverParallel
	DeliverTree     = core.DeliverTree
)

// DefaultBranching is the relay-tree fan-out used when a tree policy does
// not set one.
const DefaultBranching = core.DefaultBranching

// Property group behaviours (§3.3).
const (
	VisibilityShared     = core.VisibilityShared
	VisibilityCopy       = core.VisibilityCopy
	VisibilityReadOnly   = core.VisibilityReadOnly
	PropagateByValue     = core.PropagateByValue
	PropagateByReference = core.PropagateByReference
	PropagateNone        = core.PropagateNone
)

// DefaultCompletionSet is the signal-set name Complete drives by default.
const DefaultCompletionSet = core.DefaultCompletionSet

// Framework errors.
var (
	ErrSignalSetActive    = core.ErrSignalSetActive
	ErrSignalSetInactive  = core.ErrSignalSetInactive
	ErrExhausted          = core.ErrExhausted
	ErrActivityInactive   = core.ErrActivityInactive
	ErrActivitySuspended  = core.ErrActivitySuspended
	ErrChildrenActive     = core.ErrChildrenActive
	ErrUnknownSignalSet   = core.ErrUnknownSignalSet
	ErrNoCurrentActivity  = core.ErrNoCurrentActivity
	ErrDuplicateSignalSet = core.ErrDuplicateSignalSet
	ErrReadOnlyProperty   = core.ErrReadOnlyProperty
	// ErrServiceDraining is returned by Service.TryBegin while the
	// process is draining out of a sharded fleet.
	ErrServiceDraining = core.ErrServiceDraining
)

// New returns an Activity Service.
func New(opts ...Option) *Service { return core.New(opts...) }

// NewSequenceSet returns a SignalSet broadcasting the named signals in
// order.
func NewSequenceSet(name string, signals ...string) *SequenceSet {
	return core.NewSequenceSet(name, signals...)
}

// NewBaseSet returns the completion-status plumbing for a custom
// SignalSet.
func NewBaseSet(name string) BaseSet { return core.NewBaseSet(name) }

// NewTupleSpace returns a PropertyGroup with the given behaviours.
func NewTupleSpace(name string, v NestedVisibility, p Propagation) *TupleSpace {
	return core.NewTupleSpace(name, v, p)
}

// NewUserActivity returns the fig. 13 demarcation API.
func NewUserActivity(svc *Service) *UserActivity { return core.NewUserActivity(svc) }

// NewActivityManager returns the fig. 13 HLS API.
func NewActivityManager(svc *Service) *ActivityManager { return core.NewActivityManager(svc) }

// NewContext returns a context carrying the activity.
var NewContext = core.NewContext

// FromContext returns the activity carried by a context.
var FromContext = core.FromContext

// Idempotent wraps an Action with delivery deduplication (§3.4:
// at-least-once delivery requires idempotent actions).
var Idempotent = core.Idempotent

// ExactlyOnce wraps an Action with transactional exactly-once delivery
// through the transaction service.
func ExactlyOnce(svc *ots.Service, inner Action) Action { return core.ExactlyOnce(svc, inner) }

// WithTrace records all coordinator interactions (used by cmd/figures).
func WithTrace(rec *trace.Recorder) Option { return core.WithTrace(rec) }

// WithRetryPolicy sets the at-least-once delivery policy.
func WithRetryPolicy(p RetryPolicy) Option { return core.WithRetryPolicy(p) }

// WithDelivery sets the Service-wide default signal fan-out policy.
func WithDelivery(p DeliveryPolicy) Option { return core.WithDelivery(p) }

// Parallel is shorthand for a parallel DeliveryPolicy with the default
// worker bound.
func Parallel() DeliveryPolicy { return core.Parallel() }

// Tree is shorthand for a relay-tree DeliveryPolicy with the given
// branching factor (<= 0 selects DefaultBranching) and the default
// planner.
func Tree(branching int) DeliveryPolicy { return core.Tree(branching) }

// WithJournal persists activity structure events for recovery (§3.4).
func WithJournal(log *wal.Log) Option { return core.WithJournal(log) }

// WithTimeout forces an activity's completion status to FailOnly after d.
var WithTimeout = core.WithTimeout

// WithActivityDelivery overrides the Service-wide delivery policy for one
// activity at Begin — the per-activity opt-in for parallel fan-out to
// remote actions.
var WithActivityDelivery = core.WithActivityDelivery

// NewTraceRecorder returns a recorder for WithTrace.
func NewTraceRecorder() *trace.Recorder { return trace.New() }
