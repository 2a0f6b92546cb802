// Package orb is the public API of the distribution substrate: a GIOP-lite
// object request broker standing in for the CORBA ORB the paper assumes
// (see DESIGN.md for the substitution rationale).
//
// It provides object references (IOR), servants, in-process and TCP
// transports, per-request service contexts, interceptors, a name service
// and CORBA-style system exceptions. The remote halves of the Activity
// Service — exported Actions, activity coordinator proxies, implicit
// context propagation — are exposed here too.
//
// Object references carry an ordered list of endpoint profiles (NewIOR;
// an ORB with several listeners mints them automatically), and outgoing
// invocations select among them per call: sticky (endpoint, key)
// affinity, the health of this ORB's pool for each endpoint, and
// transparent failover to the next profile on TRANSIENT outcomes. The
// pool provides automatic reconnect and fail-fast health state
// (WithTransport, WithPoolSize, WithReconnectBackoff, EndpointStats).
// ChaosTransport wraps any Transport with injectable faults — latency,
// drops, resets, one-way partitions, per-operation and per-address rules
// — for deterministic resilience testing; see examples/chaos. ServeAdmin
// serves the ORB's metrics (ServerStats, EndpointStats and every SetMetrics
// source, as named Samples) on the well-known "orb-admin" key for remote
// scraping (AdminClient).
package orb

import (
	"github.com/extendedtx/activityservice/internal/core"
	iorb "github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/remote"
)

// ORB types.
type (
	// ORB is an object request broker.
	ORB = iorb.ORB
	// IOR is an interoperable object reference carrying an ordered list
	// of endpoint profiles.
	IOR = iorb.IOR
	// Profile is one tagged endpoint of a multi-profile reference.
	Profile = iorb.Profile
	// Servant handles incoming invocations.
	Servant = iorb.Servant
	// ServantFunc adapts a function to Servant.
	ServantFunc = iorb.ServantFunc
	// ServiceContext is out-of-band request context.
	ServiceContext = iorb.ServiceContext
	// ClientInterceptor runs before outgoing invocations.
	ClientInterceptor = iorb.ClientInterceptor
	// ServerInterceptor runs before dispatch.
	ServerInterceptor = iorb.ServerInterceptor
	// SystemError is a CORBA-style system exception.
	SystemError = iorb.SystemError
	// RemoteError is a user error raised by a remote servant.
	RemoteError = iorb.RemoteError
	// ExceptionCode classifies system exceptions.
	ExceptionCode = iorb.ExceptionCode
	// NameServer is the name service servant.
	NameServer = iorb.NameServer
	// NameClient is the name service proxy.
	NameClient = iorb.NameClient
	// ORBOption configures an ORB.
	ORBOption = iorb.ORBOption
	// ActivityProxy is the client side of a remote activity coordinator.
	ActivityProxy = remote.ActivityProxy
	// Transport dials the framed client connections the ORB pools.
	Transport = iorb.Transport
	// Conn is one framed transport connection.
	Conn = iorb.Conn
	// TCPTransport is the production client transport.
	TCPTransport = iorb.TCPTransport
	// ChaosTransport wraps a Transport with injectable faults.
	ChaosTransport = iorb.ChaosTransport
	// ChaosRule describes one injectable fault.
	ChaosRule = iorb.ChaosRule
	// ChaosStage locates a fault in the request/reply exchange.
	ChaosStage = iorb.ChaosStage
	// InjectedFault is the handle of an injected ChaosRule.
	InjectedFault = iorb.InjectedFault
	// EndpointStats is a snapshot of one endpoint pool's health.
	EndpointStats = iorb.EndpointStats
	// ServerStats is a snapshot of the server transport's admission state.
	ServerStats = iorb.ServerStats
	// BreakerState is the circuit breaker position for one endpoint.
	BreakerState = iorb.BreakerState
	// AdminClient scrapes a remote ORB's metrics through its well-known
	// admin servant.
	AdminClient = iorb.AdminClient
	// RecoveryClient invokes a coordinator's well-known recovery servant
	// (replay_completion, recover).
	RecoveryClient = remote.RecoveryClient
	// ReplicationPrimary is the leader-side handle of a GroupMember's WAL
	// replication (GroupMember.Primary): per-follower acknowledgement
	// watermarks and the decision gate waiting on them.
	ReplicationPrimary = remote.ReplicationPrimary
	// TakeoverPolicy says when a group member declares its leader lost.
	TakeoverPolicy = remote.TakeoverPolicy
	// HostRecoveryResult reports what HostRecovery set up.
	HostRecoveryResult = remote.HostRecoveryResult
	// GroupMember is one node of a self-healing coordinator group:
	// leader or streaming standby, with fenced election and re-join.
	GroupMember = remote.GroupMember
	// GroupConfig configures a GroupMember.
	GroupConfig = remote.GroupConfig
	// GroupRole is a group member's current role.
	GroupRole = remote.GroupRole
	// ReplState is a peer's replication state as reported by repl_state.
	ReplState = remote.ReplState
)

// Coordinator-group roles.
const (
	RoleFollower = remote.RoleFollower
	RoleLeader   = remote.RoleLeader
)

// Circuit breaker states (see WithCircuitBreaker).
const (
	BreakerInactive = iorb.BreakerInactive
	BreakerClosed   = iorb.BreakerClosed
	BreakerOpen     = iorb.BreakerOpen
	BreakerHalfOpen = iorb.BreakerHalfOpen
)

// Chaos fault stages.
const (
	StageRequest = iorb.StageRequest
	StageReply   = iorb.StageReply
)

// System exception codes.
const (
	CodeObjectNotExist = iorb.CodeObjectNotExist
	CodeBadOperation   = iorb.CodeBadOperation
	CodeCommFailure    = iorb.CodeCommFailure
	CodeTransient      = iorb.CodeTransient
	CodeMarshal        = iorb.CodeMarshal
	CodeNoImplement    = iorb.CodeNoImplement
	CodeTimeout        = iorb.CodeTimeout
	// CodeFenced is raised by a deposed coordinator-group member: the
	// operation did not run, and no profile of that member will run it.
	CodeFenced = iorb.CodeFenced
)

// Service context ids.
const (
	ContextActivity    = iorb.ContextActivity
	ContextTransaction = iorb.ContextTransaction
)

// ErrNotBound reports a name with no binding.
var ErrNotBound = iorb.ErrNotBound

// ErrBadIOR reports an unparseable stringified IOR.
var ErrBadIOR = iorb.ErrBadIOR

// New returns a running ORB (in-process until Listen).
func New(opts ...ORBOption) *ORB { return iorb.New(opts...) }

// WithCallTimeout sets the default invocation deadline.
var WithCallTimeout = iorb.WithCallTimeout

// WithTransport replaces the client transport (default TCPTransport).
var WithTransport = iorb.WithTransport

// WithPoolSize bounds the multiplexed client connections per endpoint.
var WithPoolSize = iorb.WithPoolSize

// WithDialTimeout bounds each connection attempt.
var WithDialTimeout = iorb.WithDialTimeout

// WithReconnectBackoff sets the jittered reconnect backoff window.
var WithReconnectBackoff = iorb.WithReconnectBackoff

// WithPoolWarm pre-dials up to n connections on first pool use.
var WithPoolWarm = iorb.WithPoolWarm

// WithCircuitBreaker layers a three-state circuit breaker above the
// per-endpoint health gate.
var WithCircuitBreaker = iorb.WithCircuitBreaker

// WithRetryBudget bounds call attempts against a failing endpoint with a
// token bucket.
var WithRetryBudget = iorb.WithRetryBudget

// WithMaxInflight bounds concurrent server-side dispatches (admission
// control).
var WithMaxInflight = iorb.WithMaxInflight

// WithAdmissionQueue tunes the admission wait queue and shed deadline.
var WithAdmissionQueue = iorb.WithAdmissionQueue

// WithPriorityOps reserves dispatch slots for a priority admission class
// (completion/recovery verbs by default), so overload sheds first-contact
// work before the traffic that resolves in-doubt transactions.
var WithPriorityOps = iorb.WithPriorityOps

// DefaultPriorityOps is the operation set WithPriorityOps reserves for
// when given no explicit list.
var DefaultPriorityOps = iorb.DefaultPriorityOps

// NewChaosTransport wraps base (TCPTransport when nil) with fault
// injection.
var NewChaosTransport = iorb.NewChaosTransport

// IsSystem reports whether err is a SystemError with the given code.
var IsSystem = iorb.IsSystem

// Systemf builds a SystemError.
var Systemf = iorb.Systemf

// NewIOR builds a reference from a type id, key and endpoint profiles in
// preference order.
var NewIOR = iorb.NewIOR

// ParseIOR parses a stringified IOR ("IOR:<ep>[,<ep>…]|<type>|<key>").
var ParseIOR = iorb.ParseIOR

// DecodeIOR reads an IOR from a CDR stream.
var DecodeIOR = iorb.DecodeIOR

// WithAdvertised overrides the endpoints minted into the ORB's object
// references (hosts behind NAT or a load balancer).
var WithAdvertised = iorb.WithAdvertised

// ServeAdmin activates the well-known "orb-admin" servant answering the
// "metrics" scrape.
var ServeAdmin = iorb.ServeAdmin

// NewAdminClient returns a scrape proxy for the admin servant at ref.
func NewAdminClient(o *ORB, ref IOR) *AdminClient { return iorb.NewAdminClient(o, ref) }

// AdminAt builds the IOR of the well-known admin servant at the given
// endpoints.
var AdminAt = iorb.AdminAt

// AdminTypeID is the interface id of the ORB admin servant.
const AdminTypeID = iorb.AdminTypeID

// AdminKey is the well-known object key of the ORB admin servant.
const AdminKey = iorb.AdminKey

// NewNameServer returns an empty name server.
func NewNameServer() *NameServer { return iorb.NewNameServer() }

// NewNameClient returns a proxy for the name service at ref.
func NewNameClient(o *ORB, ref IOR) *NameClient { return iorb.NewNameClient(o, ref) }

// NameServiceAt builds the IOR of the well-known name service on endpoint.
var NameServiceAt = iorb.NameServiceAt

// ExportAction activates a core Action on o and returns its reference.
func ExportAction(o *ORB, action core.Action) IOR { return remote.ExportAction(o, action) }

// ExportActionWithKey activates a core Action under a stable key, so a
// restarted server can re-register it behind IORs already handed out.
func ExportActionWithKey(o *ORB, key string, action core.Action) IOR {
	return remote.ExportActionWithKey(o, key, action)
}

// ImportAction returns an Action proxy for the Action at ref.
func ImportAction(o *ORB, ref IOR) core.Action { return remote.ImportAction(o, ref) }

// ServeRelay activates the well-known relay servant on o, making the node
// an interior vertex of tree-structured signal fan-out (DeliverTree): it
// accepts subtree batches under RelayKey, delivers to its own span,
// forwards to child relays and aggregates outcomes up the tree.
var ServeRelay = remote.ServeRelay

// RelayTypeID is the interface id of the relay servant.
const RelayTypeID = remote.RelayTypeID

// RelayKey is the well-known object key of the relay servant.
const RelayKey = remote.RelayKey

// ExportActivity activates a coordinator servant for an activity.
func ExportActivity(o *ORB, a *core.Activity) IOR { return remote.ExportActivity(o, a) }

// NewActivityProxy returns a proxy for a remote activity coordinator.
func NewActivityProxy(o *ORB, ref IOR) *ActivityProxy { return remote.NewActivityProxy(o, ref) }

// InstallPropagation wires implicit activity-context propagation onto o.
var InstallPropagation = remote.InstallPropagation

// PropagatedFrom returns the inbound activity context, if any.
var PropagatedFrom = remote.PropagatedFrom

// ExportResource activates a transaction-service resource on o, making it
// a participant reachable by remote coordinators.
func ExportResource(o *ORB, r ots.Resource) IOR { return remote.ExportResource(o, r) }

// ExportResourceWithKey activates a resource under a stable key (recovery).
func ExportResourceWithKey(o *ORB, key string, r ots.Resource) IOR {
	return remote.ExportResourceWithKey(o, key, r)
}

// ImportResource returns an ots.Resource proxy for the resource at ref;
// its recovery name is the stringified IOR.
func ImportResource(o *ORB, ref IOR) ots.NamedResource { return remote.ImportResource(o, ref) }

// BindRemoteResources re-binds logged IOR recovery names to live proxies
// so ots recovery can re-drive phase two across the network.
var BindRemoteResources = remote.BindRemoteResources

// ServeRecovery activates the well-known RecoveryCoordinator-style servant
// for a transaction service and registers its totals as the "recovery"
// metrics source; restarted participants ask it replay_completion for
// their outcome.
func ServeRecovery(o *ORB, svc *ots.Service) IOR { return remote.ServeRecovery(o, svc) }

// NewRecoveryClient returns a proxy invoking the recovery servant at ref.
func NewRecoveryClient(o *ORB, ref IOR) *RecoveryClient { return remote.NewRecoveryClient(o, ref) }

// RecoveryAt builds the IOR of the well-known recovery servant at the
// given endpoints.
var RecoveryAt = remote.RecoveryAt

// RecoveryTypeID is the interface id of the recovery servant.
const RecoveryTypeID = remote.RecoveryTypeID

// RecoveryKey is the well-known object key of the recovery servant.
const RecoveryKey = remote.RecoveryKey

// HostRecovery hosts a transaction service over an already-open decision
// log: in-doubt IOR names re-bound as remote proxies, one recovery pass,
// and the well-known recovery servant activated. Both a restarting
// coordinator and a group member taking over a replicated log go through
// it.
var HostRecovery = remote.HostRecovery

// ReplicationAt builds the IOR of the well-known replication servant at
// the given endpoints.
var ReplicationAt = remote.ReplicationAt

// NewGroupMember wires a coordinator-group member over an ORB and a
// durable log — the one way a durable coordinator replicates. It serves
// the well-known WAL replication servant, runs fenced leader election
// over the peer set and automatic re-join of a deposed leader, and takes
// over through cfg.Takeover. A warm-standby pair is a group of two.
var NewGroupMember = remote.NewGroupMember

// FetchReplState asks the replication servant at endpoint for its state
// (epoch, durable watermark, term, leadership) — the election probe.
var FetchReplState = remote.FetchReplState

// ReplicationTypeID is the interface id of the WAL replication servant.
const ReplicationTypeID = remote.ReplicationTypeID

// ReplicationKey is the well-known object key of the WAL replication
// servant.
const ReplicationKey = remote.ReplicationKey
