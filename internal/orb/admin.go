package orb

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// Admin servant identity: remote tooling reaches any ORB's operational
// stats through the well-known AdminKey, the same way the name service is
// reached through "naming".
const (
	// AdminTypeID is the interface id of the ORB admin servant.
	AdminTypeID = "IDL:GLOP/ORBAdmin:1.0"
	// AdminKey is the well-known object key the admin servant serves
	// under.
	AdminKey = "orb-admin"
)

// adminServant exposes the hosting ORB's ServerStats and EndpointStats so
// remote tooling can scrape them over the ORB itself — the operational
// introspection surface the overload and failover machinery reports into.
// Requests for AdminKey bypass server admission control (server.go), so
// the stats stay scrapeable exactly while the gate is shedding.
type adminServant struct {
	orb *ORB
}

// ServeAdmin activates an admin servant for o under AdminKey and returns
// its reference. Scrape it with an AdminClient (AdminAt builds the
// well-known reference from the daemon's endpoints).
func ServeAdmin(o *ORB) IOR {
	return o.RegisterServantWithKey(AdminKey, AdminTypeID, &adminServant{orb: o})
}

// Dispatch implements Servant.
func (s *adminServant) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	switch op {
	case "server_stats":
		st, ok := s.orb.ServerStats()
		e := cdr.NewEncoder(128)
		e.WriteBool(ok)
		if ok {
			encodeServerStats(e, st)
		}
		return e.Bytes(), nil
	case "endpoint_stats":
		endpoint := in.ReadString()
		if err := in.Err(); err != nil {
			return nil, Systemf(CodeMarshal, "endpoint_stats: %v", err)
		}
		st, ok := s.orb.EndpointStats(endpoint)
		e := cdr.NewEncoder(128)
		e.WriteBool(ok)
		if ok {
			encodeEndpointStats(e, st)
		}
		return e.Bytes(), nil
	case "endpoints":
		e := cdr.NewEncoder(64)
		e.WriteStringList(s.orb.PooledEndpoints())
		return e.Bytes(), nil
	case "recovery_stats":
		s.orb.mu.RLock()
		fn := s.orb.recoveryFn
		s.orb.mu.RUnlock()
		e := cdr.NewEncoder(128)
		var st RecoveryScrape
		ok := false
		if fn != nil {
			st, ok = fn()
		}
		e.WriteBool(ok)
		if ok {
			encodeRecoveryScrape(e, st)
		}
		return e.Bytes(), nil
	case "replication_stats":
		s.orb.mu.RLock()
		fn := s.orb.replFn
		s.orb.mu.RUnlock()
		e := cdr.NewEncoder(128)
		var st ReplicationScrape
		ok := false
		if fn != nil {
			st, ok = fn()
		}
		e.WriteBool(ok)
		if ok {
			encodeReplicationScrape(e, st)
		}
		return e.Bytes(), nil
	case "relay_stats":
		s.orb.mu.RLock()
		fn := s.orb.relayFn
		s.orb.mu.RUnlock()
		e := cdr.NewEncoder(64)
		var st RelayScrape
		ok := false
		if fn != nil {
			st, ok = fn()
		}
		e.WriteBool(ok)
		if ok {
			encodeRelayScrape(e, st)
		}
		return e.Bytes(), nil
	default:
		if strings.HasPrefix(op, "shard_") {
			s.orb.mu.RLock()
			fn := s.orb.shardAdminFn
			s.orb.mu.RUnlock()
			if fn == nil {
				return nil, Systemf(CodeNoImplement, "this process hosts no shard-map authority")
			}
			return fn(ctx, op, in)
		}
		return nil, Systemf(CodeBadOperation, "ORBAdmin has no operation %q", op)
	}
}

// AdminClient is the client-side proxy for a remote ORB's admin servant,
// the NameClient-style scrape helper operational tooling embeds.
type AdminClient struct {
	orb *ORB
	ref IOR
}

// NewAdminClient returns a proxy invoking the admin servant at ref
// through o.
func NewAdminClient(o *ORB, ref IOR) *AdminClient {
	return &AdminClient{orb: o, ref: ref}
}

// AdminAt builds the IOR of the well-known admin servant reachable at the
// given endpoints (profiles, in preference order).
func AdminAt(endpoints ...string) IOR {
	return NewIOR(AdminTypeID, AdminKey, endpoints...)
}

// ServerStats scrapes the remote ORB's server-side admission state. The
// second return is false when the remote ORB is not listening (which, for
// a scrape that travelled over TCP, indicates a race with its shutdown).
func (c *AdminClient) ServerStats(ctx context.Context) (ServerStats, bool, error) {
	body, err := c.orb.Invoke(ctx, c.ref, "server_stats", nil)
	if err != nil {
		return ServerStats{}, false, fmt.Errorf("admin server_stats: %w", err)
	}
	d := cdr.NewDecoder(body)
	ok := d.ReadBool()
	var st ServerStats
	if ok {
		st = decodeServerStats(d)
	}
	if err := d.Err(); err != nil {
		return ServerStats{}, false, Systemf(CodeMarshal, "server_stats reply: %v", err)
	}
	return st, ok, nil
}

// EndpointStats scrapes the remote ORB's client-side pool state for one
// endpoint. The second return is false when the remote ORB holds no pool
// for it.
func (c *AdminClient) EndpointStats(ctx context.Context, endpoint string) (EndpointStats, bool, error) {
	e := cdr.NewEncoder(64)
	e.WriteString(endpoint)
	body, err := c.orb.Invoke(ctx, c.ref, "endpoint_stats", e.Bytes())
	if err != nil {
		return EndpointStats{}, false, fmt.Errorf("admin endpoint_stats %q: %w", endpoint, err)
	}
	d := cdr.NewDecoder(body)
	ok := d.ReadBool()
	var st EndpointStats
	if ok {
		st = decodeEndpointStats(d)
	}
	if err := d.Err(); err != nil {
		return EndpointStats{}, false, Systemf(CodeMarshal, "endpoint_stats reply: %v", err)
	}
	return st, ok, nil
}

// Endpoints scrapes the list of endpoints the remote ORB holds client
// pools for, sorted.
func (c *AdminClient) Endpoints(ctx context.Context) ([]string, error) {
	body, err := c.orb.Invoke(ctx, c.ref, "endpoints", nil)
	if err != nil {
		return nil, fmt.Errorf("admin endpoints: %w", err)
	}
	d := cdr.NewDecoder(body)
	eps := d.ReadStringList()
	if err := d.Err(); err != nil {
		return nil, Systemf(CodeMarshal, "endpoints reply: %v", err)
	}
	return eps, nil
}

// RecoveryScrape is the transaction-recovery status an ORB exposes through
// the orb-admin servant's "recovery_stats" operation. The hosting process
// wires its transaction service in with SetRecoveryStatsProvider; the
// counters mirror ots.RecoveryTotals without this package importing it.
type RecoveryScrape struct {
	// Passes counts completed recovery passes.
	Passes uint64
	// DecisionsReplayed totals commit decisions re-driven by recovery.
	DecisionsReplayed uint64
	// ResourcesCommitted totals commit deliveries made by recovery.
	ResourcesCommitted uint64
	// ResourcesMissing totals participants recovery could not re-bind.
	ResourcesMissing uint64
	// ResourcesFailed totals commit deliveries that failed during recovery.
	ResourcesFailed uint64
	// HeuristicsRecorded totals heuristic outcomes recorded durably.
	HeuristicsRecorded uint64
	// PendingDecisions gauges decisions still awaiting full delivery.
	PendingDecisions uint32
	// PendingHeuristics gauges heuristic records not yet forgotten.
	PendingHeuristics uint32
}

// RecoveryStats scrapes the remote ORB's transaction-recovery status. The
// second return is false when the remote process hosts no recovery surface
// (no provider was wired in).
func (c *AdminClient) RecoveryStats(ctx context.Context) (RecoveryScrape, bool, error) {
	body, err := c.orb.Invoke(ctx, c.ref, "recovery_stats", nil)
	if err != nil {
		return RecoveryScrape{}, false, fmt.Errorf("admin recovery_stats: %w", err)
	}
	d := cdr.NewDecoder(body)
	ok := d.ReadBool()
	var st RecoveryScrape
	if ok {
		st = decodeRecoveryScrape(d)
	}
	if err := d.Err(); err != nil {
		return RecoveryScrape{}, false, Systemf(CodeMarshal, "recovery_stats reply: %v", err)
	}
	return st, ok, nil
}

// FollowerLag is one follower's acknowledgement position in a
// ReplicationScrape: how far behind the leader's last durable LSN its ack
// watermark sits.
type FollowerLag struct {
	// ID is the follower's member ID ("" for an anonymous follower).
	ID string
	// Acked is the highest LSN the follower has acknowledged as durable.
	Acked uint64
	// Lag is the leader's last LSN minus Acked (0 when caught up).
	Lag uint64
}

// ReplicationScrape is the coordinator-group state an ORB exposes through
// the orb-admin servant's "replication_stats" operation, wired in by the
// group member with SetReplicationStatsProvider. Operators watch Term and
// LastElectionMillis to spot churn, and Followers to spot a follower
// the decision gate is waiting on.
type ReplicationScrape struct {
	// MemberID names the scraped member.
	MemberID string
	// Role is "leader" or "follower".
	Role string
	// Term is the member's durable term.
	Term uint64
	// TermLeader is the member that claimed the term.
	TermLeader string
	// LeaderID is the leader this member currently follows (its own ID
	// while leading, "" while searching).
	LeaderID string
	// LastLSN is the member's last durable LSN.
	LastLSN uint64
	// Fenced reports whether the member's local appends are fenced off.
	Fenced bool
	// LastElectionMillis is when this member last won an election (Unix
	// milliseconds, 0 for never).
	LastElectionMillis int64
	// Elections counts this member's election wins.
	Elections uint64
	// Followers is the per-follower ack lag, leader-side only, sorted by
	// ID.
	Followers []FollowerLag
}

// ReplicationStats scrapes the remote ORB's coordinator-group state. The
// second return is false when the remote process hosts no replication
// group.
func (c *AdminClient) ReplicationStats(ctx context.Context) (ReplicationScrape, bool, error) {
	body, err := c.orb.Invoke(ctx, c.ref, "replication_stats", nil)
	if err != nil {
		return ReplicationScrape{}, false, fmt.Errorf("admin replication_stats: %w", err)
	}
	d := cdr.NewDecoder(body)
	ok := d.ReadBool()
	var st ReplicationScrape
	if ok {
		st = decodeReplicationScrape(d)
	}
	if err := d.Err(); err != nil {
		return ReplicationScrape{}, false, Systemf(CodeMarshal, "replication_stats reply: %v", err)
	}
	return st, ok, nil
}

func encodeReplicationScrape(e *cdr.Encoder, st ReplicationScrape) {
	e.WriteString(st.MemberID)
	e.WriteString(st.Role)
	e.WriteUint64(st.Term)
	e.WriteString(st.TermLeader)
	e.WriteString(st.LeaderID)
	e.WriteUint64(st.LastLSN)
	e.WriteBool(st.Fenced)
	e.WriteInt64(st.LastElectionMillis)
	e.WriteUint64(st.Elections)
	e.WriteUint32(uint32(len(st.Followers)))
	for _, f := range st.Followers {
		e.WriteString(f.ID)
		e.WriteUint64(f.Acked)
		e.WriteUint64(f.Lag)
	}
}

func decodeReplicationScrape(d *cdr.Decoder) ReplicationScrape {
	st := ReplicationScrape{
		MemberID:           d.ReadString(),
		Role:               d.ReadString(),
		Term:               d.ReadUint64(),
		TermLeader:         d.ReadString(),
		LeaderID:           d.ReadString(),
		LastLSN:            d.ReadUint64(),
		Fenced:             d.ReadBool(),
		LastElectionMillis: d.ReadInt64(),
		Elections:          d.ReadUint64(),
	}
	n := d.ReadUint32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		st.Followers = append(st.Followers, FollowerLag{
			ID:    d.ReadString(),
			Acked: d.ReadUint64(),
			Lag:   d.ReadUint64(),
		})
	}
	return st
}

// RelayScrape is the relay plant-cache telemetry an ORB exposes through
// the orb-admin servant's "relay_stats" operation, wired in by the
// relay servant with SetRelayStatsProvider. Operators size the
// membership cache from it: a high eviction rate with misses on the
// deliver path means live trees are being evicted and re-planted.
type RelayScrape struct {
	// Plants gauges membership trees currently cached.
	Plants uint32
	// Capacity is the cache bound (entries).
	Capacity uint32
	// Hits totals deliver-path cache lookups that found their tree.
	Hits uint64
	// Misses totals deliver-path lookups that missed (forcing the
	// coordinator to re-send the subtree).
	Misses uint64
	// Evictions totals cached trees evicted to admit new plants.
	Evictions uint64
}

// RelayStats scrapes the remote ORB's relay plant-cache telemetry. The
// second return is false when the remote process hosts no relay
// servant.
func (c *AdminClient) RelayStats(ctx context.Context) (RelayScrape, bool, error) {
	body, err := c.orb.Invoke(ctx, c.ref, "relay_stats", nil)
	if err != nil {
		return RelayScrape{}, false, fmt.Errorf("admin relay_stats: %w", err)
	}
	d := cdr.NewDecoder(body)
	ok := d.ReadBool()
	var st RelayScrape
	if ok {
		st = decodeRelayScrape(d)
	}
	if err := d.Err(); err != nil {
		return RelayScrape{}, false, Systemf(CodeMarshal, "relay_stats reply: %v", err)
	}
	return st, ok, nil
}

func encodeRelayScrape(e *cdr.Encoder, st RelayScrape) {
	e.WriteUint32(st.Plants)
	e.WriteUint32(st.Capacity)
	e.WriteUint64(st.Hits)
	e.WriteUint64(st.Misses)
	e.WriteUint64(st.Evictions)
}

func decodeRelayScrape(d *cdr.Decoder) RelayScrape {
	var st RelayScrape
	st.Plants = d.ReadUint32()
	st.Capacity = d.ReadUint32()
	st.Hits = d.ReadUint64()
	st.Misses = d.ReadUint64()
	st.Evictions = d.ReadUint64()
	return st
}

func encodeRecoveryScrape(e *cdr.Encoder, st RecoveryScrape) {
	e.WriteUint64(st.Passes)
	e.WriteUint64(st.DecisionsReplayed)
	e.WriteUint64(st.ResourcesCommitted)
	e.WriteUint64(st.ResourcesMissing)
	e.WriteUint64(st.ResourcesFailed)
	e.WriteUint64(st.HeuristicsRecorded)
	e.WriteUint32(st.PendingDecisions)
	e.WriteUint32(st.PendingHeuristics)
}

func decodeRecoveryScrape(d *cdr.Decoder) RecoveryScrape {
	var st RecoveryScrape
	st.Passes = d.ReadUint64()
	st.DecisionsReplayed = d.ReadUint64()
	st.ResourcesCommitted = d.ReadUint64()
	st.ResourcesMissing = d.ReadUint64()
	st.ResourcesFailed = d.ReadUint64()
	st.HeuristicsRecorded = d.ReadUint64()
	st.PendingDecisions = d.ReadUint32()
	st.PendingHeuristics = d.ReadUint32()
	return st
}

func encodeServerStats(e *cdr.Encoder, st ServerStats) {
	e.WriteString(st.Endpoint)
	e.WriteStringList(st.Endpoints)
	e.WriteUint32(uint32(st.Conns))
	e.WriteUint32(uint32(st.Inflight))
	e.WriteUint32(uint32(st.Queued))
	e.WriteUint64(st.Shed)
	e.WriteUint64(st.Dispatched)
	e.WriteUint32(uint32(st.MaxInflight))
	e.WriteUint32(uint32(st.QueueDepth))
	e.WriteInt64(int64(st.ShedAfter))
	e.WriteUint32(uint32(st.ReservedSlots))
	e.WriteUint32(uint32(st.PriorityInflight))
	e.WriteUint64(st.PriorityDispatched)
	e.WriteUint64(st.PriorityShed)
}

func decodeServerStats(d *cdr.Decoder) ServerStats {
	st := ServerStats{Endpoint: d.ReadString()}
	st.Endpoints = d.ReadStringList()
	st.Conns = int(d.ReadUint32())
	st.Inflight = int(d.ReadUint32())
	st.Queued = int(d.ReadUint32())
	st.Shed = d.ReadUint64()
	st.Dispatched = d.ReadUint64()
	st.MaxInflight = int(d.ReadUint32())
	st.QueueDepth = int(d.ReadUint32())
	st.ShedAfter = time.Duration(d.ReadInt64())
	st.ReservedSlots = int(d.ReadUint32())
	st.PriorityInflight = int(d.ReadUint32())
	st.PriorityDispatched = d.ReadUint64()
	st.PriorityShed = d.ReadUint64()
	return st
}

func encodeEndpointStats(e *cdr.Encoder, st EndpointStats) {
	e.WriteString(st.Endpoint)
	e.WriteUint32(uint32(st.Conns))
	e.WriteUint32(uint32(st.Pending))
	e.WriteUint32(uint32(st.Dialing))
	e.WriteUint32(uint32(st.Failures))
	e.WriteBool(st.Down)
	e.WriteUint32(uint32(st.Breaker))
	e.WriteUint64(st.BreakerProbes)
	e.WriteUint64(st.BreakerOpens)
	e.WriteUint64(st.RetryExhausted)
	e.WriteInt64(int64(st.RTT))
}

func decodeEndpointStats(d *cdr.Decoder) EndpointStats {
	st := EndpointStats{Endpoint: d.ReadString()}
	st.Conns = int(d.ReadUint32())
	st.Pending = int(d.ReadUint32())
	st.Dialing = int(d.ReadUint32())
	st.Failures = int(d.ReadUint32())
	st.Down = d.ReadBool()
	st.Breaker = BreakerState(d.ReadUint32())
	st.BreakerProbes = d.ReadUint64()
	st.BreakerOpens = d.ReadUint64()
	st.RetryExhausted = d.ReadUint64()
	st.RTT = time.Duration(d.ReadInt64())
	return st
}
