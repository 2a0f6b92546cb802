package remote

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/cluster"
	"github.com/extendedtx/activityservice/internal/orb"
)

// Shard-map servant identity: the authoritative cluster map is a
// first-class named object served beside the naming service, reachable
// through the well-known ShardMapKey the same way "naming" and
// "orb-admin" are.
const (
	// ShardMapTypeID is the interface id of the shard-map authority.
	ShardMapTypeID = "IDL:ActivityService/ShardMap:1.0"
	// ShardMapKey is the well-known object key the authority serves
	// under.
	ShardMapKey = "shard-map"
)

// shardWatchPollCap bounds one shard_watch long-poll round on the
// server, keeping every park shorter than common call timeouts; clients
// re-arm to watch longer.
const shardWatchPollCap = 10 * time.Second

// ShardAuthority holds the authoritative, versioned shard map of an
// activityd fleet. Mutations (Add, Drain, Remove) bump the epoch and
// wake long-poll watchers; ServeShardMap exposes the authority over the
// ORB as the shard-map servant, the one surface for the "shard_*" verbs
// (operators drive live resharding through a ShardMapClient aimed at it).
type ShardAuthority struct {
	mu      sync.Mutex
	cur     *cluster.Map
	changed chan struct{} // closed and replaced on every epoch bump
}

// NewShardAuthority returns an authority serving initial (the empty
// epoch-0 map when nil).
func NewShardAuthority(initial *cluster.Map) *ShardAuthority {
	if initial == nil {
		initial = cluster.EmptyMap()
	}
	return &ShardAuthority{cur: initial, changed: make(chan struct{})}
}

// Current returns the authority's map snapshot (immutable).
func (a *ShardAuthority) Current() *cluster.Map {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cur
}

// mutate applies one map transition and wakes watchers.
func (a *ShardAuthority) mutate(f func(*cluster.Map) (*cluster.Map, error)) (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	next, err := f(a.cur)
	if err != nil {
		return 0, err
	}
	a.cur = next
	close(a.changed)
	a.changed = make(chan struct{})
	return next.Epoch, nil
}

// Add joins mem to the fleet as an active member and returns the new
// epoch.
func (a *ShardAuthority) Add(mem cluster.Member) (uint64, error) {
	return a.mutate(func(m *cluster.Map) (*cluster.Map, error) { return m.WithAdd(mem) })
}

// Drain marks the member draining — its arcs route to successors while
// it finishes in-flight activities — and returns the new epoch.
func (a *ShardAuthority) Drain(id string) (uint64, error) {
	return a.mutate(func(m *cluster.Map) (*cluster.Map, error) { return m.WithDrain(id) })
}

// Remove deletes the member from the fleet and returns the new epoch.
func (a *ShardAuthority) Remove(id string) (uint64, error) {
	return a.mutate(func(m *cluster.Map) (*cluster.Map, error) { return m.WithRemove(id) })
}

// await blocks until the map's epoch exceeds afterEpoch, one poll round
// (capped) passes, or ctx dies; it returns the then-current map.
func (a *ShardAuthority) await(ctx context.Context, afterEpoch uint64, poll time.Duration) *cluster.Map {
	if poll <= 0 || poll > shardWatchPollCap {
		poll = shardWatchPollCap
	}
	deadline := time.NewTimer(poll)
	defer deadline.Stop()
	for {
		a.mu.Lock()
		cur, changed := a.cur, a.changed
		a.mu.Unlock()
		if cur.Epoch > afterEpoch {
			return cur
		}
		select {
		case <-changed:
		case <-deadline.C:
			return cur
		case <-ctx.Done():
			return cur
		}
	}
}

// shardMapServant exposes a ShardAuthority over the ORB.
type shardMapServant struct {
	auth *ShardAuthority
}

// ServeShardMap activates the shard-map authority on o under the
// well-known ShardMapKey, the one surface its verbs are served on. It
// returns the authority's reference.
func ServeShardMap(o *orb.ORB, auth *ShardAuthority) orb.IOR {
	return o.RegisterServantWithKey(ShardMapKey, ShardMapTypeID, &shardMapServant{auth: auth})
}

// Dispatch implements orb.Servant.
func (s *shardMapServant) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	switch op {
	case "shard_fetch":
		return encodeShardMap(s.auth.Current()), nil
	case "shard_watch":
		afterEpoch := in.ReadUint64()
		pollMillis := in.ReadUint32()
		if err := in.Err(); err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "shard_watch: %v", err)
		}
		m := s.auth.await(ctx, afterEpoch, time.Duration(pollMillis)*time.Millisecond)
		return encodeShardMap(m), nil
	case "shard_add":
		mem, err := decodeShardMember(in)
		if err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "shard_add: %v", err)
		}
		return s.reply(s.auth.Add(mem))
	case "shard_drain":
		id := in.ReadString()
		if err := in.Err(); err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "shard_drain: %v", err)
		}
		return s.reply(s.auth.Drain(id))
	case "shard_remove":
		id := in.ReadString()
		if err := in.Err(); err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "shard_remove: %v", err)
		}
		return s.reply(s.auth.Remove(id))
	default:
		return nil, orb.Systemf(orb.CodeBadOperation, "ShardMap has no operation %q", op)
	}
}

// reply encodes a mutation result (the new epoch).
func (s *shardMapServant) reply(epoch uint64, err error) ([]byte, error) {
	if err != nil {
		return nil, err // surfaces as RemoteError: the mutation was rejected
	}
	e := cdr.NewEncoder(16)
	e.WriteUint64(epoch)
	return e.Bytes(), nil
}

// encodeShardMap serializes m as a reply body.
func encodeShardMap(m *cluster.Map) []byte {
	e := cdr.NewEncoder(256)
	m.Encode(e)
	return e.Bytes()
}

// decodeShardMember reads the shard_add argument: a one-member map
// (reusing the map codec keeps the wire surface single-versioned). The
// returned member is an owned copy — nothing aliases the buffer.
func decodeShardMember(in *cdr.Decoder) (cluster.Member, error) {
	m, err := cluster.DecodeMap(in)
	if err != nil {
		return cluster.Member{}, err
	}
	if len(m.Members) != 1 {
		return cluster.Member{}, fmt.Errorf("shard_add carries %d members, want 1", len(m.Members))
	}
	return m.Members[0], nil
}

// encodeShardMember builds the shard_add argument for mem.
func encodeShardMember(mem cluster.Member) ([]byte, error) {
	one, err := cluster.NewMap(mem)
	if err != nil {
		return nil, err
	}
	return encodeShardMap(one), nil
}

// ShardMapAt builds the IOR of the well-known shard-map authority
// reachable at the given endpoints (profiles, in preference order).
func ShardMapAt(endpoints ...string) orb.IOR {
	return orb.NewIOR(ShardMapTypeID, ShardMapKey, endpoints...)
}

// ShardMapClient is the client-side proxy for a shard-map authority: it
// invokes the "shard_*" verbs on the shard-map servant at its reference.
type ShardMapClient struct {
	orb *orb.ORB
	ref orb.IOR
}

// NewShardMapClient returns a proxy invoking the shard-map verbs at ref
// through o.
func NewShardMapClient(o *orb.ORB, ref orb.IOR) *ShardMapClient {
	return &ShardMapClient{orb: o, ref: ref}
}

// Fetch retrieves the current shard map.
func (c *ShardMapClient) Fetch(ctx context.Context) (*cluster.Map, error) {
	body, err := c.orb.Invoke(ctx, c.ref, "shard_fetch", nil)
	if err != nil {
		return nil, fmt.Errorf("shard_fetch: %w", err)
	}
	m, err := cluster.DecodeMap(cdr.NewDecoder(body))
	if err != nil {
		return nil, orb.Systemf(orb.CodeMarshal, "shard_fetch reply: %v", err)
	}
	return m, nil
}

// Watch long-polls the authority: it returns as soon as the map's epoch
// exceeds afterEpoch, or with the unchanged map after one poll round
// (bounded by the server's cap). Callers loop around it.
func (c *ShardMapClient) Watch(ctx context.Context, afterEpoch uint64, poll time.Duration) (*cluster.Map, error) {
	e := cdr.NewEncoder(16)
	e.WriteUint64(afterEpoch)
	e.WriteUint32(uint32(poll / time.Millisecond))
	body, err := c.orb.Invoke(ctx, c.ref, "shard_watch", e.Bytes())
	if err != nil {
		return nil, fmt.Errorf("shard_watch: %w", err)
	}
	m, err := cluster.DecodeMap(cdr.NewDecoder(body))
	if err != nil {
		return nil, orb.Systemf(orb.CodeMarshal, "shard_watch reply: %v", err)
	}
	return m, nil
}

// Add joins mem to the fleet; it returns the new map epoch.
func (c *ShardMapClient) Add(ctx context.Context, mem cluster.Member) (uint64, error) {
	arg, err := encodeShardMember(mem)
	if err != nil {
		return 0, fmt.Errorf("shard_add: %w", err)
	}
	return c.epochVerb(ctx, "shard_add", arg)
}

// Drain marks the member draining; it returns the new map epoch.
func (c *ShardMapClient) Drain(ctx context.Context, id string) (uint64, error) {
	return c.epochVerb(ctx, "shard_drain", encodeStringArg(id))
}

// Remove deletes the member from the fleet; it returns the new map
// epoch.
func (c *ShardMapClient) Remove(ctx context.Context, id string) (uint64, error) {
	return c.epochVerb(ctx, "shard_remove", encodeStringArg(id))
}

func (c *ShardMapClient) epochVerb(ctx context.Context, op string, arg []byte) (uint64, error) {
	body, err := c.orb.Invoke(ctx, c.ref, op, arg)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", op, err)
	}
	d := cdr.NewDecoder(body)
	epoch := d.ReadUint64()
	if err := d.Err(); err != nil {
		return 0, orb.Systemf(orb.CodeMarshal, "%s reply: %v", op, err)
	}
	return epoch, nil
}

func encodeStringArg(s string) []byte {
	e := cdr.NewEncoder(32)
	e.WriteString(s)
	return e.Bytes()
}

// wrongShard builds the WRONG_SHARD redirect a replica answers with
// when it receives a key it does not own: the detail leads with the
// replica's map epoch so stale clients know how far behind they are.
func wrongShard(epoch uint64, owner, key string) error {
	return orb.Systemf(orb.CodeWrongShard, "epoch=%d owner=%s key=%q", epoch, owner, key)
}

// WrongShardEpoch extracts the redirecting replica's map epoch from a
// WRONG_SHARD error (see orb.CodeWrongShard). ok is false when err is
// not a WrongShard redirect.
func WrongShardEpoch(err error) (uint64, bool) {
	var se *orb.SystemError
	if !errors.As(err, &se) || se.Code != orb.CodeWrongShard {
		return 0, false
	}
	detail, ok := strings.CutPrefix(se.Detail, "epoch=")
	if !ok {
		return 0, false
	}
	if i := strings.IndexByte(detail, ' '); i >= 0 {
		detail = detail[:i]
	}
	epoch, perr := strconv.ParseUint(detail, 10, 64)
	if perr != nil {
		return 0, false
	}
	return epoch, true
}
