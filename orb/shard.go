package orb

import (
	"github.com/extendedtx/activityservice/internal/cluster"
	"github.com/extendedtx/activityservice/internal/remote"
)

// Sharding types: the consistent-hash fleet membership and the servants
// routing keyed work across an activityd fleet (see ARCHITECTURE.md,
// "Horizontal sharding").
type (
	// ClusterMember is one fleet member: id, endpoint profiles, weight
	// and state.
	ClusterMember = cluster.Member
	// FactoryOption configures a served activity factory.
	FactoryOption = remote.FactoryOption
)

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

// NewShardMember returns the shard guard for one fleet member.
var NewShardMember = remote.NewShardMember

// WithOnDrain runs a hook exactly once when the map marks the member
// draining (hosts wire it to Service.Drain).
var WithOnDrain = remote.WithOnDrain

// ServeActivityFactory activates the well-known activity factory for a
// core service (the servant activityd serves; sharded via
// WithFactoryShard).
var ServeActivityFactory = remote.ServeActivityFactory

// WithFactoryDelivery sets the delivery policy of the completion set the
// factory declares for remotely begun activities. Without it the set
// delivers serially, one call per caller host.
var WithFactoryDelivery = remote.WithFactoryDelivery

// WithFactoryShard guards every factory begin with a member's shard
// check.
var WithFactoryShard = remote.WithFactoryShard

// ShardMapKey is the well-known object key of the shard-map authority.
const ShardMapKey = remote.ShardMapKey

// ActivityFactoryTypeID is the interface id of the activity factory.
const ActivityFactoryTypeID = remote.ActivityFactoryTypeID

// ActivityFactoryKey is the well-known object key of the activity
// factory.
const ActivityFactoryKey = remote.ActivityFactoryKey
