package remote

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/cluster"
	"github.com/extendedtx/activityservice/internal/orb"
)

// maxShardRedirects bounds how many WrongShard redirects one routed
// invocation will chase before giving up. Each redirect triggers a map
// refresh, so under a converging map two hops (stale → refreshed) is
// the common worst case; three tolerates one concurrent reshard during
// the retry.
const maxShardRedirects = 3

// RouterStats is a snapshot of a ShardRouter's routing counters.
type RouterStats struct {
	// Invokes counts routed invocations attempted through the router.
	Invokes uint64
	// Redirects counts WrongShard redirects received from replicas.
	Redirects uint64
	// Refreshes counts shard-map refetches (redirect- or miss-driven).
	Refreshes uint64
	// Prefetches counts map epochs the Run watch loop installed ahead of
	// any redirect.
	Prefetches uint64
}

// ShardRouter routes keyed invocations across an activityd fleet. It
// caches the cluster map by epoch, computes the owning member with the
// consistent-hash ring, aims the call at that member's endpoints, and
// self-heals on WrongShard redirects: a replica that no longer owns the
// key answers with its current epoch, the router refetches the map
// (falling back to re-resolving the authority reference when the cached
// one has gone stale too) and retries against the new owner. Safe for
// concurrent use.
type ShardRouter struct {
	o      *orb.ORB
	client *ShardMapClient

	// resolve re-discovers the authority reference (typically a naming
	// lookup). Optional: without it a dead cached authority ref is fatal.
	resolve func(ctx context.Context) (orb.IOR, error)

	cur atomic.Pointer[cluster.Map]

	// onInstall, when set, is shown each map that install advances the
	// cache to (a ShardMember's drain hook). Set before the router is
	// shared. It runs on the installing goroutine, under refreshMu when
	// Refresh installs, so it must return promptly and never call the
	// router.
	onInstall func(*cluster.Map)

	// refreshMu single-flights map refreshes so a burst of redirected
	// invocations costs one fetch.
	refreshMu sync.Mutex

	invokes    atomic.Uint64
	redirects  atomic.Uint64
	refreshes  atomic.Uint64
	prefetches atomic.Uint64
}

// RouterOption configures a ShardRouter.
type RouterOption func(*ShardRouter)

// WithAuthorityResolver lets the router re-discover the shard-map
// authority (e.g. by resolving a naming entry) when invoking through
// its cached authority reference fails — the recovery path for a
// client whose bootstrap IOR outlived the process behind it.
func WithAuthorityResolver(resolve func(ctx context.Context) (orb.IOR, error)) RouterOption {
	return func(r *ShardRouter) { r.resolve = resolve }
}

// NewShardRouter returns a router fetching maps from the shard-map
// authority at authorityRef and invoking members through o.
func NewShardRouter(o *orb.ORB, authorityRef orb.IOR, opts ...RouterOption) *ShardRouter {
	r := &ShardRouter{o: o, client: NewShardMapClient(o, authorityRef)}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

// Map returns the router's cached cluster map (nil before the first
// refresh).
func (r *ShardRouter) Map() *cluster.Map {
	return r.cur.Load()
}

// Stats returns a snapshot of the routing counters.
func (r *ShardRouter) Stats() RouterStats {
	return RouterStats{
		Invokes:    r.invokes.Load(),
		Redirects:  r.redirects.Load(),
		Refreshes:  r.refreshes.Load(),
		Prefetches: r.prefetches.Load(),
	}
}

// install adopts a fetched map without ever regressing the epoch (a
// racing refresh or watch may have installed a newer one). It reports
// whether the map actually advanced, and hands an advancing map to the
// onInstall observer.
func (r *ShardRouter) install(next *cluster.Map) bool {
	for {
		cur := r.cur.Load()
		if cur != nil && next.Epoch <= cur.Epoch {
			return false
		}
		if r.cur.CompareAndSwap(cur, next) {
			if r.onInstall != nil {
				r.onInstall(next)
			}
			return true
		}
	}
}

// Run follows the authority's map with shard_watch long-polls until ctx
// is cancelled, installing each new epoch into the router's cache as the
// change notification arrives: a watching router sees a reshard or drain
// as a map change, not as a WrongShard round trip, so keyed invocations
// aim at the new owner from the first attempt. Watch errors back off
// briefly and retry; routing keeps using the last good map meanwhile.
func (r *ShardRouter) Run(ctx context.Context) {
	for ctx.Err() == nil {
		var after uint64
		if cur := r.cur.Load(); cur != nil {
			after = cur.Epoch
		}
		// The client may be swapped by a concurrent authority re-resolve.
		r.refreshMu.Lock()
		c := r.client
		r.refreshMu.Unlock()
		wctx, cancel := context.WithTimeout(ctx, 2*shardWatchPollCap)
		m, err := c.Watch(wctx, after, shardWatchPollCap)
		cancel()
		if err != nil {
			select {
			case <-ctx.Done():
				return
			case <-time.After(200 * time.Millisecond):
			}
			continue
		}
		if r.install(m) {
			r.prefetches.Add(1)
		}
	}
}

// Refresh fetches the current map from the authority, re-resolving the
// authority reference if the cached one fails and a resolver is
// configured. Concurrent callers share one fetch.
func (r *ShardRouter) Refresh(ctx context.Context) (*cluster.Map, error) {
	before := r.cur.Load()
	r.refreshMu.Lock()
	defer r.refreshMu.Unlock()
	// A concurrent refresh may have already advanced the map while this
	// caller waited on the lock; don't fetch again.
	if cur := r.cur.Load(); cur != nil && (before == nil || cur.Epoch > before.Epoch) {
		return cur, nil
	}
	r.refreshes.Add(1)
	m, err := r.client.Fetch(ctx)
	if err != nil && r.resolve != nil {
		ref, rerr := r.resolve(ctx)
		if rerr != nil {
			return nil, fmt.Errorf("shard router: fetch failed (%v) and authority re-resolve failed: %w", err, rerr)
		}
		r.client = NewShardMapClient(r.o, ref)
		m, err = r.client.Fetch(ctx)
	}
	if err != nil {
		return nil, err
	}
	// Never regress: a racing refresh or watch may have installed a newer
	// epoch.
	r.install(m)
	return r.cur.Load(), nil
}

// snapshot returns the cached map, refreshing once if none is cached.
func (r *ShardRouter) snapshot(ctx context.Context) (*cluster.Map, error) {
	if m := r.cur.Load(); m != nil {
		return m, nil
	}
	return r.Refresh(ctx)
}

// RouteRef computes the reference a keyed invocation should target
// under the router's cached map: the well-known servant (typeID, key
// servantKey) on the member owning shard key routeKey. It does not
// touch the network when a map is cached.
func (r *ShardRouter) RouteRef(ctx context.Context, typeID, servantKey, routeKey string) (orb.IOR, cluster.Member, error) {
	m, err := r.snapshot(ctx)
	if err != nil {
		return orb.IOR{}, cluster.Member{}, err
	}
	owner, ok := m.Owner(routeKey)
	if !ok {
		return orb.IOR{}, cluster.Member{}, orb.Systemf(orb.CodeTransient,
			"shard router: map epoch %d has no active members", m.Epoch)
	}
	return orb.NewIOR(typeID, servantKey, owner.Endpoints...), owner, nil
}

// Invoke routes one invocation of op on the well-known servant
// (typeID, servantKey) to the member owning routeKey, healing through
// up to maxShardRedirects WrongShard redirects by refreshing the map
// and retrying against the new owner. WrongShard asserts the operation
// did not run, so the retry cannot double-execute.
func (r *ShardRouter) Invoke(ctx context.Context, typeID, servantKey, routeKey, op string, body []byte) ([]byte, error) {
	r.invokes.Add(1)
	var lastErr error
	for attempt := 0; attempt <= maxShardRedirects; attempt++ {
		ref, _, err := r.RouteRef(ctx, typeID, servantKey, routeKey)
		if err != nil {
			return nil, err
		}
		out, err := r.o.Invoke(ctx, ref, op, body)
		if err == nil {
			return out, nil
		}
		if _, redirected := WrongShardEpoch(err); !redirected {
			return nil, err
		}
		r.redirects.Add(1)
		lastErr = err
		if _, err := r.Refresh(ctx); err != nil {
			return nil, fmt.Errorf("shard router: redirected but refresh failed: %w", err)
		}
	}
	return nil, fmt.Errorf("shard router: key %q still redirected after %d map refreshes: %w",
		routeKey, maxShardRedirects, lastErr)
}

// BeginActivity begins an activity named name on the fleet member that
// owns the name under the current shard map, returning a proxy for the
// remote activity. The name is the shard key.
func (r *ShardRouter) BeginActivity(ctx context.Context, name string) (*ActivityProxy, error) {
	e := cdr.NewEncoder(32)
	e.WriteString(name)
	out, err := r.Invoke(ctx, ActivityFactoryTypeID, ActivityFactoryKey, name, "begin", e.Bytes())
	if err != nil {
		return nil, err
	}
	ref, err := decodeIORReply(out)
	if err != nil {
		return nil, err
	}
	return NewActivityProxy(r.o, ref), nil
}

// decodeIORReply reads a reply body holding one encoded IOR. The
// returned reference is an owned copy — nothing aliases the buffer.
func decodeIORReply(body []byte) (orb.IOR, error) {
	d := cdr.NewDecoder(body)
	ref := orb.DecodeIOR(d)
	if err := d.Err(); err != nil {
		return orb.IOR{}, orb.Systemf(orb.CodeMarshal, "reply IOR: %v", err)
	}
	return ref, nil
}
