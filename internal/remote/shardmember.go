package remote

import (
	"context"
	"sync"

	"github.com/extendedtx/activityservice/internal/cluster"
	"github.com/extendedtx/activityservice/internal/orb"
)

// ShardMember is the replica-side half of the sharding protocol: it
// follows the cluster map through a ShardRouter (so the map cache and
// the shard_watch loop exist once in the code) and guards keyed
// operations with CheckOwner, answering WrongShard for keys this member
// does not own under its current map. When the map marks this member draining, the
// member fires its OnDrain hook exactly once — the host wires that to
// core.Service.Drain so in-flight activities finish here while new
// begins redirect to the successors.
type ShardMember struct {
	id     string
	router *ShardRouter
}

// MemberOption configures a ShardMember.
type MemberOption func(*ShardMember)

// WithOnDrain registers fn to run exactly once, the first time an
// installed map shows this member in the draining state. fn runs on the
// goroutine installing that map and must return promptly without calling
// the member (core.Service.Drain only flips the service's admission).
func WithOnDrain(fn func()) MemberOption {
	return func(m *ShardMember) {
		var once sync.Once
		m.router.onInstall = func(mp *cluster.Map) {
			if mem, ok := mp.Member(m.id); ok && mem.State == cluster.MemberDraining {
				once.Do(fn)
			}
		}
	}
}

// NewShardMember returns the shard guard for the member with the given
// id, following maps from the shard-map authority at authorityRef.
func NewShardMember(o *orb.ORB, id string, authorityRef orb.IOR, opts ...MemberOption) *ShardMember {
	m := &ShardMember{id: id, router: NewShardRouter(o, authorityRef)}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Sync fetches the current map once (e.g. at startup, before serving).
func (m *ShardMember) Sync(ctx context.Context) error {
	_, err := m.router.Refresh(ctx)
	return err
}

// Run follows the authority's map with long-poll watches until ctx is
// cancelled; the member keeps serving on its last good map while a
// watch fails.
func (m *ShardMember) Run(ctx context.Context) { m.router.Run(ctx) }

// CheckOwner admits a keyed operation: nil when this member owns key
// under its current map, the member's WrongShard redirect otherwise.
func (m *ShardMember) CheckOwner(key string) error {
	if cur := m.router.Map(); cur != nil {
		if owner, ok := cur.Owner(key); ok && owner.ID == m.id {
			return nil
		}
	}
	return m.redirect(key)
}

// redirect is the member's WrongShard answer for key: its map epoch and
// the owner that map routes key to, or "<draining>" when that owner is
// this member (its service drained before the map said so). Before the
// first sync it answers TRANSIENT — the caller may retry once the member
// has a map.
func (m *ShardMember) redirect(key string) error {
	cur := m.router.Map()
	if cur == nil {
		return orb.Systemf(orb.CodeTransient, "shard member %s: no cluster map yet", m.id)
	}
	owner := "<none>"
	if o, ok := cur.Owner(key); ok {
		owner = o.ID
		if owner == m.id {
			owner = "<draining>"
		}
	}
	return wrongShard(cur.Epoch, owner, key)
}
