package remote

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/cluster"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
)

// shardHost is one in-process fleet member: an ORB, a core Service, a
// shard member guard, and a sharded activity factory.
type shardHost struct {
	orb     *orb.ORB
	svc     *core.Service
	member  *ShardMember
	factory *ActivityFactory
}

// newShardHost builds a listening member host registered nowhere; the
// caller adds it to the authority's map.
func newShardHost(t *testing.T, id string, authorityRef orb.IOR) *shardHost {
	t.Helper()
	o := orb.New()
	t.Cleanup(o.Shutdown)
	if _, err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	svc := core.New()
	member := NewShardMember(o, id, authorityRef, WithOnDrain(svc.Drain))
	factory := ServeActivityFactory(o, svc, WithFactoryShard(member))
	return &shardHost{orb: o, svc: svc, member: member, factory: factory}
}

func (h *shardHost) clusterMember(id string) cluster.Member {
	return cluster.Member{ID: id, Endpoints: h.orb.Endpoints(), Weight: 1}
}

// shardFixture is an authority host plus n member hosts joined to it.
type shardFixture struct {
	authORB *orb.ORB
	auth    *ShardAuthority
	authRef orb.IOR
	hosts   map[string]*shardHost
}

func newShardFixture(t *testing.T, ids ...string) *shardFixture {
	t.Helper()
	authORB := orb.New()
	t.Cleanup(authORB.Shutdown)
	if _, err := authORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	auth := NewShardAuthority(nil)
	ServeShardMap(authORB, auth)
	authRef := ShardMapAt(authORB.Endpoints()...)

	fx := &shardFixture{authORB: authORB, auth: auth, authRef: authRef, hosts: map[string]*shardHost{}}
	ctx := context.Background()
	for _, id := range ids {
		h := newShardHost(t, id, authRef)
		fx.hosts[id] = h
		if _, err := fx.auth.Add(h.clusterMember(id)); err != nil {
			t.Fatalf("add %s: %v", id, err)
		}
		_ = ctx
	}
	for id, h := range fx.hosts {
		if err := h.member.Sync(context.Background()); err != nil {
			t.Fatalf("sync %s: %v", id, err)
		}
	}
	return fx
}

// newClientORB returns a bare client-side ORB.
func newClientORB(t *testing.T) *orb.ORB {
	t.Helper()
	o := orb.New()
	t.Cleanup(o.Shutdown)
	return o
}

func TestShardMapClientVerbs(t *testing.T) {
	fx := newShardFixture(t)
	ctx := context.Background()
	c := NewShardMapClient(newClientORB(t), fx.authRef)

	m, err := c.Fetch(ctx)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if m.Epoch != 0 || len(m.Members) != 0 {
		t.Fatalf("initial map = epoch %d, %d members", m.Epoch, len(m.Members))
	}

	epoch, err := c.Add(ctx, cluster.Member{ID: "a", Endpoints: []string{"127.0.0.1:1"}, Weight: 1})
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if epoch != 1 {
		t.Fatalf("Add epoch = %d, want 1", epoch)
	}
	if epoch, err = c.Drain(ctx, "a"); err != nil || epoch != 2 {
		t.Fatalf("Drain = %d, %v", epoch, err)
	}
	if epoch, err = c.Remove(ctx, "a"); err != nil || epoch != 3 {
		t.Fatalf("Remove = %d, %v", epoch, err)
	}
	if _, err = c.Remove(ctx, "a"); err == nil {
		t.Fatal("Remove of absent member succeeded")
	}
	m, err = c.Fetch(ctx)
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if m.Epoch != 3 || len(m.Members) != 0 {
		t.Fatalf("final map = epoch %d, %d members", m.Epoch, len(m.Members))
	}
}

func TestShardMapWatchWakesOnBump(t *testing.T) {
	fx := newShardFixture(t)
	c := NewShardMapClient(newClientORB(t), fx.authRef)
	ctx := context.Background()

	// A watch at the current epoch with a short poll returns unchanged.
	m, err := c.Watch(ctx, 0, 50*time.Millisecond)
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	if m.Epoch != 0 {
		t.Fatalf("unchanged watch epoch = %d", m.Epoch)
	}

	// A watch parked behind a bump wakes with the new map.
	var wg sync.WaitGroup
	wg.Add(1)
	var got *cluster.Map
	var gotErr error
	go func() {
		defer wg.Done()
		got, gotErr = c.Watch(ctx, 0, 5*time.Second)
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := fx.auth.Add(cluster.Member{ID: "a", Endpoints: []string{"127.0.0.1:1"}, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if gotErr != nil {
		t.Fatalf("parked Watch: %v", gotErr)
	}
	if got.Epoch != 1 || len(got.Members) != 1 {
		t.Fatalf("parked watch map = epoch %d, %d members", got.Epoch, len(got.Members))
	}
}

func TestWrongShardEpoch(t *testing.T) {
	if _, ok := WrongShardEpoch(errors.New("nope")); ok {
		t.Fatal("parsed epoch from a plain error")
	}
	if _, ok := WrongShardEpoch(orb.Systemf(orb.CodeTransient, "epoch=9")); ok {
		t.Fatal("parsed epoch from a non-WrongShard system error")
	}
	err := wrongShard(42, "m1", "key")
	epoch, ok := WrongShardEpoch(err)
	if !ok || epoch != 42 {
		t.Fatalf("WrongShardEpoch = %d, %v", epoch, ok)
	}
	// Wrapped redirects still parse (clients see them through Invoke
	// wrappers).
	epoch, ok = WrongShardEpoch(errors.Join(errors.New("ctx"), err))
	if !ok || epoch != 42 {
		t.Fatalf("wrapped WrongShardEpoch = %d, %v", epoch, ok)
	}
}

func TestShardedBeginRoutesToOwner(t *testing.T) {
	fx := newShardFixture(t, "m1", "m2", "m3")
	ctx := context.Background()

	client := newClientORB(t)
	router := NewShardRouter(client, fx.authRef)

	const begins = 30
	for i := 0; i < begins; i++ {
		name := nameForIndex(i)
		proxy, err := router.BeginActivity(ctx, name)
		if err != nil {
			t.Fatalf("BeginActivity(%q): %v", name, err)
		}
		if _, err := proxy.Complete(ctx, core.CompletionSuccess); err != nil {
			t.Fatalf("Complete(%q): %v", name, err)
		}
	}

	// Every member only ever began names it owns, and together they
	// began all of them.
	m := router.Map()
	var total uint64
	for id, h := range fx.hosts {
		got := h.factory.Begins()
		var want uint64
		for i := 0; i < begins; i++ {
			if owner, ok := m.Owner(nameForIndex(i)); ok && owner.ID == id {
				want++
			}
		}
		if got != want {
			t.Errorf("member %s began %d activities, ring says %d", id, got, want)
		}
		total += got
	}
	if total != begins {
		t.Fatalf("fleet began %d activities, want %d", total, begins)
	}
	if st := router.Stats(); st.Redirects != 0 {
		t.Fatalf("stable map produced %d redirects", st.Redirects)
	}
}

func nameForIndex(i int) string {
	return "activity-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i/26))
}

func TestShardRouterHealsOnWrongShard(t *testing.T) {
	fx := newShardFixture(t, "m1", "m2")
	ctx := context.Background()

	client := newClientORB(t)
	router := NewShardRouter(client, fx.authRef)
	if _, err := router.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	staleEpoch := router.Map().Epoch

	// Grow the fleet behind the router's back and let members catch up;
	// the router still holds the 2-member map.
	h3 := newShardHost(t, "m3", fx.authRef)
	fx.hosts["m3"] = h3
	if _, err := fx.auth.Add(h3.clusterMember("m3")); err != nil {
		t.Fatal(err)
	}
	for _, h := range fx.hosts {
		if err := h.member.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if router.Map().Epoch != staleEpoch {
		t.Fatal("router refreshed prematurely")
	}

	// Find a name the stale map routes to a member that no longer owns
	// it; the begin must still land exactly once, on the new owner.
	stale := router.Map()
	fresh := fx.auth.Current()
	var moved string
	for i := 0; i < 4096; i++ {
		name := nameForIndex(i)
		so, _ := stale.Owner(name)
		fo, _ := fresh.Owner(name)
		if so.ID != fo.ID {
			moved = name
			break
		}
	}
	if moved == "" {
		t.Fatal("no key moved when m3 joined")
	}

	proxy, err := router.BeginActivity(ctx, moved)
	if err != nil {
		t.Fatalf("BeginActivity through stale map: %v", err)
	}
	if _, err := proxy.Complete(ctx, core.CompletionSuccess); err != nil {
		t.Fatal(err)
	}
	st := router.Stats()
	if st.Redirects == 0 {
		t.Fatal("stale routing produced no WrongShard redirect")
	}
	if router.Map().Epoch <= staleEpoch {
		t.Fatalf("router map epoch %d did not advance past %d", router.Map().Epoch, staleEpoch)
	}
	var total uint64
	for _, h := range fx.hosts {
		total += h.factory.Begins()
	}
	if total != 1 {
		t.Fatalf("fleet began %d activities for one redirected begin, want exactly 1", total)
	}
	fo, _ := fresh.Owner(moved)
	if got := fx.hosts[fo.ID].factory.Begins(); got != 1 {
		t.Fatalf("new owner %s began %d, want 1", fo.ID, got)
	}
}

func TestDrainingMemberRedirectsAndQuiesces(t *testing.T) {
	fx := newShardFixture(t, "m1", "m2")
	ctx := context.Background()

	client := newClientORB(t)
	router := NewShardRouter(client, fx.authRef)
	if _, err := router.Refresh(ctx); err != nil {
		t.Fatal(err)
	}

	// Start an activity owned by m1 and keep it in flight.
	m := router.Map()
	var m1Name string
	for i := 0; i < 4096; i++ {
		if owner, ok := m.Owner(nameForIndex(i)); ok && owner.ID == "m1" {
			m1Name = nameForIndex(i)
			break
		}
	}
	if m1Name == "" {
		t.Fatal("m1 owns nothing")
	}
	inflight, err := router.BeginActivity(ctx, m1Name)
	if err != nil {
		t.Fatal(err)
	}

	// Drain m1 through the authority; its watch-less member syncs
	// explicitly here (Run covers the live path).
	if _, err := fx.auth.Drain("m1"); err != nil {
		t.Fatal(err)
	}
	if err := fx.hosts["m1"].member.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if err := fx.hosts["m2"].member.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	if !fx.hosts["m1"].svc.Draining() {
		t.Fatal("OnDrain hook did not drain the core service")
	}

	// New begins for m1's old names heal over to m2 (the stale router
	// redirects through WrongShard).
	before2 := fx.hosts["m2"].factory.Begins()
	proxy, err := router.BeginActivity(ctx, m1Name)
	if err != nil {
		t.Fatalf("BeginActivity during drain: %v", err)
	}
	if _, err := proxy.Complete(ctx, core.CompletionSuccess); err != nil {
		t.Fatal(err)
	}
	if got := fx.hosts["m2"].factory.Begins(); got != before2+1 {
		t.Fatalf("m2 began %d (was %d): drained begin did not move", got, before2)
	}

	// The in-flight activity still completes on m1, and then m1
	// quiesces.
	qctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	err = fx.hosts["m1"].svc.WaitQuiesced(qctx)
	cancel()
	if err == nil {
		t.Fatal("m1 quiesced with an activity in flight")
	}
	if _, err := inflight.Complete(ctx, core.CompletionSuccess); err != nil {
		t.Fatalf("completing in-flight activity on draining member: %v", err)
	}
	qctx2, cancel2 := context.WithTimeout(ctx, 5*time.Second)
	defer cancel2()
	if err := fx.hosts["m1"].svc.WaitQuiesced(qctx2); err != nil {
		t.Fatalf("WaitQuiesced after drain completed: %v", err)
	}
}

// TestShardLocalDrainRedirects covers the window where a member's core
// service drained before its map marks it draining: a begin for a key
// the member still owns answers the member's WrongShard redirect at its
// map epoch, and nothing begins.
func TestShardLocalDrainRedirects(t *testing.T) {
	fx := newShardFixture(t, "m1", "m2")
	h := fx.hosts["m1"]
	cur := h.member.router.Map()
	var name string
	for i := 0; i < 4096; i++ {
		if owner, ok := cur.Owner(nameForIndex(i)); ok && owner.ID == "m1" {
			name = nameForIndex(i)
			break
		}
	}
	if name == "" {
		t.Fatal("m1 owns nothing")
	}
	h.svc.Drain()

	e := cdr.NewEncoder(32)
	e.WriteString(name)
	_, err := newClientORB(t).Invoke(context.Background(), h.factory.Ref(), "begin", e.Bytes())
	epoch, ok := WrongShardEpoch(err)
	if !ok {
		t.Fatalf("begin on a locally drained owner = %v, want WRONG_SHARD", err)
	}
	if epoch != cur.Epoch {
		t.Fatalf("redirect epoch = %d, want m1's map epoch %d", epoch, cur.Epoch)
	}
	if !strings.Contains(err.Error(), "owner=<draining>") {
		t.Fatalf("redirect %v does not name the drained owner", err)
	}
	if got := h.factory.Begins(); got != 0 {
		t.Fatalf("m1 began %d activities while drained", got)
	}
	if got := h.svc.Live(); got != 0 {
		t.Fatalf("m1 holds %d live activities while drained", got)
	}
}

func TestShardMemberRunFollowsMap(t *testing.T) {
	fx := newShardFixture(t, "m1")
	h := fx.hosts["m1"]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		h.member.Run(ctx)
	}()

	if _, err := fx.auth.Drain("m1"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if h.svc.Draining() {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !h.svc.Draining() {
		t.Fatal("Run never observed the drain")
	}
	cancel()
	<-ran
}

func TestShardRouterResolveRetry(t *testing.T) {
	fx := newShardFixture(t, "m1")
	ctx := context.Background()

	// The router bootstraps with a dead authority reference; the
	// resolver hands it the live one.
	dead := orb.NewIOR(ShardMapTypeID, ShardMapKey, "127.0.0.1:1")
	var resolved int
	router := NewShardRouter(newClientORB(t), dead, WithAuthorityResolver(
		func(context.Context) (orb.IOR, error) {
			resolved++
			return fx.authRef, nil
		}))
	m, err := router.Refresh(ctx)
	if err != nil {
		t.Fatalf("Refresh through resolver: %v", err)
	}
	if resolved != 1 {
		t.Fatalf("resolver ran %d times, want 1", resolved)
	}
	if _, ok := m.Member("m1"); !ok {
		t.Fatal("resolved map missing m1")
	}
	// Subsequent refreshes use the resolved reference directly.
	if _, err := router.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	if resolved != 1 {
		t.Fatalf("resolver ran again (%d) with a healthy reference", resolved)
	}
}
