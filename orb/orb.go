// Package orb is the public API of the distribution substrate: a GIOP-lite
// object request broker standing in for the CORBA ORB the paper assumes
// (see docs/ARCHITECTURE.md for the substitution rationale).
//
// It re-exports the part of internal/orb and internal/remote that the
// examples, cmd/activityd and the benchmark call: the ORB (New and its
// options), object references (IOR, NewIOR, ParseIOR), the name service
// (NewNameServer, NewNameClient), the admin metrics scrape (ServeAdmin,
// NewAdminClient), fault injection (NewChaosTransport), the remote halves
// of the Activity Service (ExportAction, ImportAction, NewActivityProxy,
// InstallPropagation, ServeRelay), remote transaction-service participants
// (ExportResource, ImportResource), coordinator recovery and groups
// (HostRecovery, NewGroupMember) and the sharded fleet (NewShardAuthority,
// NewShardMember, ServeActivityFactory). Everything else — system
// exception codes, interceptors, the recovery client, the shard router —
// lives in internal/orb and internal/remote.
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
	// ServantFunc adapts a function to a servant.
	ServantFunc = iorb.ServantFunc
	// NameServer is the name service servant.
	NameServer = iorb.NameServer
	// NameClient is the name service proxy.
	NameClient = iorb.NameClient
	// ORBOption configures an ORB.
	ORBOption = iorb.ORBOption
	// ActivityProxy is the client side of a remote activity coordinator.
	ActivityProxy = remote.ActivityProxy
	// Conn is one framed transport connection.
	Conn = iorb.Conn
	// TCPTransport is the production client transport.
	TCPTransport = iorb.TCPTransport
	// ChaosRule describes one injectable fault.
	ChaosRule = iorb.ChaosRule
	// AdminClient scrapes a remote ORB's metrics through its well-known
	// admin servant.
	AdminClient = iorb.AdminClient
	// GroupMember is one node of a self-healing coordinator group:
	// leader or streaming standby, with fenced election and re-join.
	GroupMember = remote.GroupMember
	// GroupConfig configures a GroupMember.
	GroupConfig = remote.GroupConfig
)

// StageRequest locates a chaos fault on the request leg of an exchange.
const StageRequest = iorb.StageRequest

// ContextActivity is the service context id of the activity context.
const ContextActivity = iorb.ContextActivity

// New returns a running ORB (in-process until Listen).
func New(opts ...ORBOption) *ORB { return iorb.New(opts...) }

// WithCallTimeout sets the default invocation deadline.
var WithCallTimeout = iorb.WithCallTimeout

// WithTransport replaces the client transport (default TCPTransport).
var WithTransport = iorb.WithTransport

// WithPoolSize bounds the client connections per endpoint: n−1 exclusive
// lanes plus one shared, multiplexed connection.
var WithPoolSize = iorb.WithPoolSize

// WithReconnectBackoff sets the jittered reconnect backoff window.
var WithReconnectBackoff = iorb.WithReconnectBackoff

// WithCircuitBreaker layers a three-state circuit breaker above the
// per-endpoint health gate.
var WithCircuitBreaker = iorb.WithCircuitBreaker

// WithMaxInflight bounds concurrent server-side dispatches (admission
// control); the wait queue holds twice as many requests.
var WithMaxInflight = iorb.WithMaxInflight

// WithPriorityOps reserves dispatch slots for a priority admission class
// (completion/recovery verbs by default), so overload sheds first-contact
// work before the traffic that resolves in-doubt transactions.
var WithPriorityOps = iorb.WithPriorityOps

// NewChaosTransport returns a TCP transport with fault injection; its
// connections carry lanes and shared calls as TCPTransport's do.
var NewChaosTransport = iorb.NewChaosTransport

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

// AdminKey is the well-known object key of the ORB admin servant.
const AdminKey = iorb.AdminKey

// NewNameServer returns an empty name server.
func NewNameServer() *NameServer { return iorb.NewNameServer() }

// NewNameClient returns a proxy for the name service at ref.
func NewNameClient(o *ORB, ref IOR) *NameClient { return iorb.NewNameClient(o, ref) }

// NameServiceAt builds the IOR of the well-known name service on endpoint.
var NameServiceAt = iorb.NameServiceAt

// ExportAction activates a core Action on o and returns its reference.
// The first export on o also serves o's relay (ServeRelay), so a serial
// broadcast reaches o's actions with one call per signal.
func ExportAction(o *ORB, action core.Action) IOR { return remote.ExportAction(o, action) }

// ImportAction returns an Action proxy for the Action at ref.
func ImportAction(o *ORB, ref IOR) core.Action { return remote.ImportAction(o, ref) }

// ServeRelay activates the well-known relay servant on o, making the node
// an interior vertex of tree-structured signal fan-out: it accepts
// subtree batches, delivers to its own span, forwards to child relays and
// aggregates outcomes up the tree. It also serves serial endpoint batches
// to the node's own actions. A second call returns the relay already
// served.
var ServeRelay = remote.ServeRelay

// NewActivityProxy returns a proxy for a remote activity coordinator.
func NewActivityProxy(o *ORB, ref IOR) *ActivityProxy { return remote.NewActivityProxy(o, ref) }

// InstallPropagation wires implicit activity-context propagation onto o.
var InstallPropagation = remote.InstallPropagation

// ExportResource activates a transaction-service resource on o, making it
// a participant reachable by remote coordinators.
func ExportResource(o *ORB, r ots.Resource) IOR { return remote.ExportResource(o, r) }

// ImportResource returns a transaction-service Resource proxy for the
// resource at ref; its recovery name is the stringified IOR.
func ImportResource(o *ORB, ref IOR) ots.NamedResource { return remote.ImportResource(o, ref) }

// HostRecovery hosts a transaction service over an already-open decision
// log: in-doubt IOR names re-bound as remote proxies, one recovery pass,
// and the well-known recovery servant activated. Both a restarting
// coordinator and a group member taking over a replicated log go through
// it.
var HostRecovery = remote.HostRecovery

// NewGroupMember wires a coordinator-group member over an ORB and a
// durable log — the one way a durable coordinator replicates. It serves
// the well-known WAL replication servant, runs fenced leader election
// over the peer set and automatic re-join of a deposed leader, and takes
// over through cfg.Takeover. A warm-standby pair is a group of two.
var NewGroupMember = remote.NewGroupMember

// FetchReplState asks the replication servant at endpoint for its state
// (epoch, durable watermark, term, leadership) — the election probe.
var FetchReplState = remote.FetchReplState
