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
// The fig. 13 split of the paper is NewUserActivity (demarcation) and
// NewActivityManager (the plumbing high-level services use).
//
// # Delivery policies
//
// The coordinator broadcasts each Signal to every Action registered with
// the set. The set's own DeliveryPolicy (SequenceSet.SetDelivery) says
// how; it is the only place a policy lives. The zero policy delivers to
// one action at a time in registration order (the fig. 5 exchange as
// drawn); Parallel delivers to all actions concurrently through a bounded
// worker pool, and Tree down a branching-factor tree of relay-capable
// actions (see the orb package's ServeRelay). Whatever the policy,
// responses are fed to the SignalSet in registration order, so collation
// and the recorded trace (WithTrace) are byte-identical between policies;
// responses after an advancing one are discarded and in-flight
// stragglers cancelled. Actions must be idempotent anyway: delivery is at
// least once (§3.4, WithRetryPolicy).
//
// The implementation lives in internal/core; this package re-exports the
// part the examples, cmd and the benchmark call. The
// companion packages ots (transaction service) and orb (GIOP-lite object
// request broker) expose the substrates.
package activityservice

import (
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/trace"
	"github.com/extendedtx/activityservice/internal/wal"
)

// Core framework types (§3 of the paper).
type (
	// Service is the Activity Service: the factory for activities.
	Service = core.Service
	// Signal is the data transmitted to Actions.
	Signal = core.Signal
	// Outcome is an Action's response or a protocol's collated result.
	Outcome = core.Outcome
	// ActionFunc adapts a function to an Action.
	ActionFunc = core.ActionFunc
	// SequenceSet is a ready-made fixed-sequence SignalSet.
	SequenceSet = core.SequenceSet
	// RetryPolicy controls at-least-once signal delivery.
	RetryPolicy = core.RetryPolicy
	// DeliveryPolicy selects serial, parallel or relay-tree signal fan-out.
	DeliveryPolicy = core.DeliveryPolicy
	// UserActivity is the demarcation API of fig. 13 (JSR-95 style).
	UserActivity = core.UserActivity
	// ActivityManager is the HLS-facing plumbing API of fig. 13.
	ActivityManager = core.ActivityManager
	// Option configures a Service.
	Option = core.Option
)

// CompletionSuccess is the completion status of an activity that
// succeeded (§3.2.1).
const CompletionSuccess = core.CompletionSuccess

// DefaultCompletionSet is the signal-set name Complete drives by default.
const DefaultCompletionSet = core.DefaultCompletionSet

// New returns an Activity Service.
func New(opts ...Option) *Service { return core.New(opts...) }

// NewSequenceSet returns a SignalSet broadcasting the named signals in
// order.
func NewSequenceSet(name string, signals ...string) *SequenceSet {
	return core.NewSequenceSet(name, signals...)
}

// NewUserActivity returns the fig. 13 demarcation API.
func NewUserActivity(svc *Service) *UserActivity { return core.NewUserActivity(svc) }

// NewActivityManager returns the fig. 13 HLS API.
func NewActivityManager(svc *Service) *ActivityManager { return core.NewActivityManager(svc) }

// WithTrace records all coordinator interactions (used by cmd/figures).
func WithTrace(rec *trace.Recorder) Option { return core.WithTrace(rec) }

// WithRetryPolicy sets the at-least-once delivery policy.
func WithRetryPolicy(p RetryPolicy) Option { return core.WithRetryPolicy(p) }

// Parallel is shorthand for a parallel DeliveryPolicy with the default
// worker bound.
func Parallel() DeliveryPolicy { return core.Parallel() }

// Tree is shorthand for a relay-tree DeliveryPolicy with the given
// branching factor (<= 0 selects the default) and the default planner.
func Tree(branching int) DeliveryPolicy { return core.Tree(branching) }

// WithJournal persists activity structure events for recovery (§3.4).
func WithJournal(log *wal.Log) Option { return core.WithJournal(log) }

// NewTraceRecorder returns a recorder for WithTrace.
func NewTraceRecorder() *trace.Recorder { return trace.New() }
