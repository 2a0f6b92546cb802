package orb

import (
	"github.com/extendedtx/activityservice/internal/cluster"
	iorb "github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/remote"
)

// Sharding types: the consistent-hash cluster map and the machinery
// routing keyed work across an activityd fleet (see ARCHITECTURE.md,
// "Horizontal sharding").
type (
	// ClusterMap is an immutable, versioned consistent-hash map of the
	// fleet; higher epochs supersede lower ones.
	ClusterMap = cluster.Map
	// ClusterMember is one fleet member: id, endpoint profiles, weight
	// and state.
	ClusterMember = cluster.Member
	// MemberState is a member's lifecycle state (active or draining).
	MemberState = cluster.MemberState
	// ShardAuthority holds the authoritative shard map and bumps its
	// epoch on add/drain/remove.
	ShardAuthority = remote.ShardAuthority
	// ShardMapClient is the proxy for the shard-map authority's
	// fetch/watch/admin verbs.
	ShardMapClient = remote.ShardMapClient
	// ShardRouter routes keyed invocations to the owning member, healing
	// on WrongShard redirects.
	ShardRouter = remote.ShardRouter
	// RouterOption configures a ShardRouter.
	RouterOption = remote.RouterOption
	// RouterStats is a snapshot of a ShardRouter's routing counters.
	RouterStats = remote.RouterStats
	// ShardMember is the replica-side shard guard: it follows the map
	// and refuses keys the member does not own.
	ShardMember = remote.ShardMember
	// MemberOption configures a ShardMember.
	MemberOption = remote.MemberOption
	// ActivityFactory serves remote activity begins (optionally sharded).
	ActivityFactory = remote.ActivityFactory
	// FactoryOption configures a served ActivityFactory.
	FactoryOption = remote.FactoryOption
)

// Cluster member states.
const (
	// MemberActive serves its arcs of the ring.
	MemberActive = cluster.MemberActive
	// MemberDraining finishes in-flight work while its arcs route to
	// successors.
	MemberDraining = cluster.MemberDraining
)

// CodeWrongShard is the system exception a replica answers when it does
// not own the routed key; the detail carries the replica's map epoch.
const CodeWrongShard = iorb.CodeWrongShard

// DefaultVNodes is the number of ring points one unit of member weight
// contributes.
const DefaultVNodes = cluster.DefaultVNodes

// NewClusterMap builds an epoch-0 cluster map over the given members.
var NewClusterMap = cluster.NewMap

// EmptyClusterMap returns the epoch-0 map with no members.
var EmptyClusterMap = cluster.EmptyMap

// HashKey hashes a shard key onto the ring's key space.
var HashKey = cluster.HashKey

// NewShardAuthority returns an authority serving the given initial map
// (the empty epoch-0 map when nil).
var NewShardAuthority = remote.NewShardAuthority

// ServeShardMap activates the shard-map authority under the well-known
// ShardMapKey.
var ServeShardMap = remote.ServeShardMap

// ShardMapAt builds the IOR of the well-known shard-map authority at
// the given endpoints.
var ShardMapAt = remote.ShardMapAt

// NewShardMapClient returns a proxy invoking the shard-map verbs at ref.
var NewShardMapClient = remote.NewShardMapClient

// NewShardRouter returns a router fetching maps from the authority at
// authorityRef and routing keyed invocations across the fleet.
var NewShardRouter = remote.NewShardRouter

// WithAuthorityResolver lets a router re-discover the authority
// reference (e.g. via naming) when the cached one goes stale.
var WithAuthorityResolver = remote.WithAuthorityResolver

// NewShardMember returns the shard guard for one fleet member.
var NewShardMember = remote.NewShardMember

// WithOnDrain runs a hook exactly once when the map marks the member
// draining (hosts wire it to Service.Drain).
var WithOnDrain = remote.WithOnDrain

// ServeActivityFactory activates the well-known activity factory for a
// core service (the servant activityd serves; sharded via
// WithFactoryShard).
var ServeActivityFactory = remote.ServeActivityFactory

// WithFactoryDelivery stamps remotely begun activities with a delivery
// policy.
var WithFactoryDelivery = remote.WithFactoryDelivery

// WithFactoryShard guards every factory begin with a member's shard
// check.
var WithFactoryShard = remote.WithFactoryShard

// WrongShardEpoch extracts the redirecting replica's map epoch from a
// WrongShard error.
var WrongShardEpoch = remote.WrongShardEpoch

// ShardMapTypeID is the interface id of the shard-map authority.
const ShardMapTypeID = remote.ShardMapTypeID

// ShardMapKey is the well-known object key of the shard-map authority.
const ShardMapKey = remote.ShardMapKey

// ActivityFactoryTypeID is the interface id of the activity factory.
const ActivityFactoryTypeID = remote.ActivityFactoryTypeID

// ActivityFactoryKey is the well-known object key of the activity
// factory.
const ActivityFactoryKey = remote.ActivityFactoryKey
