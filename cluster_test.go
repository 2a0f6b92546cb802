// Sharded-fleet integration suite: consistent-hash routing over the
// orb facade and internal/remote's shard router, the naming-rebind-vs-epoch-bump race, and the
// kill-one-shard chaos scenario — a real member process SIGKILLed
// mid-2PC whose prepared branches must converge exactly once through
// its warm standby while the rest of the ring keeps serving.
package activityservice_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/internal/cluster"
	iots "github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/remote"
	"github.com/extendedtx/activityservice/orb"
)

// shardNode is one in-process fleet member: ORB, activity service,
// shard guard, sharded factory.
type shardNode struct {
	orb     *orb.ORB
	svc     *activityservice.Service
	member  *remote.ShardMember
	factory *remote.ActivityFactory
}

func newShardNode(t *testing.T, id string, authRef orb.IOR) *shardNode {
	t.Helper()
	node := orb.New()
	t.Cleanup(node.Shutdown)
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	svc := activityservice.New()
	member := orb.NewShardMember(node, id, authRef, orb.WithOnDrain(svc.Drain))
	factory := orb.ServeActivityFactory(node, svc, orb.WithFactoryShard(member))
	return &shardNode{orb: node, svc: svc, member: member, factory: factory}
}

// joinFleet adds the node to the map and syncs every member onto the
// new epoch.
func joinFleet(t *testing.T, auth *remote.ShardAuthority, nodes map[string]*shardNode, id string) {
	t.Helper()
	n := nodes[id]
	if _, err := auth.Add(orb.ClusterMember{ID: id, Endpoints: n.orb.Endpoints(), Weight: 1}); err != nil {
		t.Fatal(err)
	}
	for _, m := range nodes {
		if err := m.member.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

func clusterKey(i int) string { return fmt.Sprintf("order-%04d", i) }

// TestClusterShardedBeginComplete drives begins through the shard
// router across a four-member fleet and checks the work landed exactly
// where the ring says, then grows the fleet and checks the router heals
// onto the new ownership through WrongShard redirects alone.
func TestClusterShardedBeginComplete(t *testing.T) {
	ctx := context.Background()
	authORB := orb.New()
	t.Cleanup(authORB.Shutdown)
	if _, err := authORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	auth := orb.NewShardAuthority(nil)
	orb.ServeShardMap(authORB, auth)
	authRef, _ := authORB.IOR(orb.ShardMapKey)

	nodes := map[string]*shardNode{}
	for _, id := range []string{"n1", "n2", "n3", "n4"} {
		nodes[id] = newShardNode(t, id, authRef)
		joinFleet(t, auth, nodes, id)
	}

	client := orb.New()
	t.Cleanup(client.Shutdown)
	router := remote.NewShardRouter(client, authRef)

	const ops = 40
	for i := 0; i < ops; i++ {
		proxy, err := router.BeginActivity(ctx, clusterKey(i))
		if err != nil {
			t.Fatalf("begin %d: %v", i, err)
		}
		if _, err := proxy.Complete(ctx, activityservice.CompletionSuccess); err != nil {
			t.Fatalf("complete %d: %v", i, err)
		}
	}
	m := router.Map()
	var total uint64
	for id, n := range nodes {
		want := uint64(0)
		for i := 0; i < ops; i++ {
			if owner, ok := m.Owner(clusterKey(i)); ok && owner.ID == id {
				want++
			}
		}
		if got := n.factory.Begins(); got != want {
			t.Errorf("member %s began %d, ring says %d", id, got, want)
		}
		total += n.factory.Begins()
	}
	if total != ops {
		t.Fatalf("fleet began %d, want %d", total, ops)
	}

	// Grow the fleet behind the router's back: moved keys must heal via
	// WrongShard redirects, each executing exactly once.
	nodes["n5"] = newShardNode(t, "n5", authRef)
	joinFleet(t, auth, nodes, "n5")
	before := total
	for i := ops; i < 2*ops; i++ {
		proxy, err := router.BeginActivity(ctx, clusterKey(i))
		if err != nil {
			t.Fatalf("begin %d after grow: %v", i, err)
		}
		if _, err := proxy.Complete(ctx, activityservice.CompletionSuccess); err != nil {
			t.Fatal(err)
		}
	}
	total = 0
	for _, n := range nodes {
		total += n.factory.Begins()
	}
	if total != before+ops {
		t.Fatalf("fleet began %d after grow, want %d (no double executions)", total, before+ops)
	}
	if router.Map().Epoch != auth.Current().Epoch {
		t.Fatalf("router epoch %d never converged to authority epoch %d",
			router.Map().Epoch, auth.Current().Epoch)
	}
}

// TestClusterRebindRace races a naming rebind against a shard-map epoch
// bump: the client holds BOTH a stale map and a stale authority IOR
// (the authority moved hosts after the client bootstrapped). A routed
// begin must converge — WrongShard redirect, failed refetch through the
// dead authority reference, naming re-resolve, fresh map, retry — and
// the idempotent begin must execute exactly once across the fleet.
func TestClusterRebindRace(t *testing.T) {
	ctx := context.Background()

	// First-generation authority host, also serving the name service.
	authORB1 := orb.New()
	if _, err := authORB1.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	auth := orb.NewShardAuthority(nil)
	orb.ServeShardMap(authORB1, auth)
	authRef1, _ := authORB1.IOR(orb.ShardMapKey)

	nsORB := orb.New()
	t.Cleanup(nsORB.Shutdown)
	ns := orb.NewNameServer()
	ns.Serve(nsORB)
	if _, err := nsORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ns.Bind("shard-map", authRef1)
	nsRef, _ := nsORB.IOR("naming")

	nodes := map[string]*shardNode{}
	for _, id := range []string{"r1", "r2"} {
		nodes[id] = newShardNode(t, id, authRef1)
		joinFleet(t, auth, nodes, id)
	}

	// The client bootstraps from naming: resolve the authority, cache
	// the map. Its resolver re-reads naming on refresh failure.
	client := orb.New()
	t.Cleanup(client.Shutdown)
	nc := orb.NewNameClient(client, nsRef)
	resolver := func(ctx context.Context) (orb.IOR, error) { return nc.Resolve(ctx, "shard-map") }
	router := remote.NewShardRouter(client, authRef1, remote.WithAuthorityResolver(resolver))
	if _, err := router.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	staleEpoch := router.Map().Epoch

	// The race: the fleet grows (epoch bump) AND the authority moves to
	// a new host; naming is rebound to the successor. The client still
	// holds the old map and the old authority reference.
	nodes["r3"] = newShardNode(t, "r3", authRef1)
	joinFleet(t, auth, nodes, "r3")
	authORB2 := orb.New()
	t.Cleanup(authORB2.Shutdown)
	if _, err := authORB2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	auth2 := orb.NewShardAuthority(auth.Current())
	orb.ServeShardMap(authORB2, auth2)
	authRef2, _ := authORB2.IOR(orb.ShardMapKey)
	ns.Bind("shard-map", authRef2) // rebind wins over the dead generation
	authORB1.Shutdown()            // first-generation authority is gone

	// Pick a key the stale map routes to the wrong member.
	stale := router.Map()
	fresh := auth2.Current()
	var moved string
	for i := 0; i < 4096; i++ {
		so, _ := stale.Owner(clusterKey(i))
		fo, _ := fresh.Owner(clusterKey(i))
		if so.ID != fo.ID {
			moved = clusterKey(i)
			break
		}
	}
	if moved == "" {
		t.Fatal("no key moved when r3 joined")
	}

	proxy, err := router.BeginActivity(ctx, moved)
	if err != nil {
		t.Fatalf("begin through stale map + stale authority ref: %v", err)
	}
	if _, err := proxy.Complete(ctx, activityservice.CompletionSuccess); err != nil {
		t.Fatal(err)
	}

	var total uint64
	for _, n := range nodes {
		total += n.factory.Begins()
	}
	if total != 1 {
		t.Fatalf("fleet began %d activities for one raced begin, want exactly 1", total)
	}
	fo, _ := fresh.Owner(moved)
	if got := nodes[fo.ID].factory.Begins(); got != 1 {
		t.Fatalf("new owner %s began %d, want 1 (begin landed elsewhere)", fo.ID, got)
	}
	if router.Map().Epoch <= staleEpoch {
		t.Fatalf("router epoch %d did not advance past stale %d", router.Map().Epoch, staleEpoch)
	}
	if st := router.Stats(); st.Redirects == 0 {
		t.Fatal("race healed without a WrongShard redirect — test lost its subject")
	}
}

// TestClusterKillOneShard is the kill-one-shard chaos scenario. A
// three-member ring: two live in-process members and one "doomed"
// member — a real replicated coordinator process driving a 2PC against
// participants hosted here. The doomed process is SIGKILLed right after
// its commit decision is forced (and replicated); while it dies, the
// live members keep serving routed begins. The doomed member's warm
// standby then takes over its WAL replica and must converge both
// prepared branches to committed exactly once. Finally the admin
// removes the dead member from the map and its keys heal onto the
// survivors.
func TestClusterKillOneShard(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	ctx := context.Background()

	authORB := orb.New()
	t.Cleanup(authORB.Shutdown)
	if _, err := authORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	auth := orb.NewShardAuthority(nil)
	orb.ServeShardMap(authORB, auth)
	authRef, _ := authORB.IOR(orb.ShardMapKey)

	nodes := map[string]*shardNode{}
	for _, id := range []string{"live-1", "live-2"} {
		nodes[id] = newShardNode(t, id, authRef)
		joinFleet(t, auth, nodes, id)
	}

	// The doomed member: a coordinator-group leader process with a warm
	// standby following its WAL (a group of two; the standby has no peers,
	// so it takes over alone). Its in-flight 2PC prepares the parent's
	// survivor participants, forces + replicates the commit decision,
	// then SIGKILLs itself before any participant hears the verdict.
	f := newCrashFixture(t)
	s := newGroupStandby(t, "doomed-standby")
	var doomedEndpoints []string
	runReplicatedUntilKilled(t, groupEnv("group", "decision", f.walPath, f.refs, s), func(endpoints []string) {
		doomedEndpoints = endpoints
		// Register the doomed process in the ring the moment it reports
		// its endpoints — it is a fleet member while it dies.
		if _, err := auth.Add(orb.ClusterMember{ID: "doomed", Endpoints: doomedEndpoints, Weight: 1}); err != nil {
			t.Error(err)
			return
		}
		for _, n := range nodes {
			if err := n.member.Sync(context.Background()); err != nil {
				t.Error(err)
			}
		}
		s.start(t, endpoints, nil)
	})
	if f.a.applies.Load()+f.b.applies.Load() != 0 {
		t.Fatal("participant committed before the doomed member's phase two")
	}

	// While the doomed member is dead, the rest of the ring serves: every
	// key the live members own begins and completes normally.
	client := orb.New()
	t.Cleanup(client.Shutdown)
	router := remote.NewShardRouter(client, authRef)
	if _, err := router.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	m := router.Map()
	served := 0
	var doomedKey string
	for i := 0; i < 4096 && served < 10; i++ {
		owner, ok := m.Owner(clusterKey(i))
		if !ok {
			t.Fatal("no owner")
		}
		if owner.ID == "doomed" {
			if doomedKey == "" {
				doomedKey = clusterKey(i)
			}
			continue
		}
		proxy, err := router.BeginActivity(ctx, clusterKey(i))
		if err != nil {
			t.Fatalf("live member begin %q while doomed dies: %v", clusterKey(i), err)
		}
		if _, err := proxy.Complete(ctx, activityservice.CompletionSuccess); err != nil {
			t.Fatal(err)
		}
		served++
	}
	if served != 10 {
		t.Fatalf("only %d live-owned begins served", served)
	}
	if doomedKey == "" {
		t.Fatal("doomed member owns no keys in the ring")
	}

	// The standby takes over the doomed member's replica: exactly one
	// durable decision, both participants converge to committed exactly
	// once.
	stats := s.waitTakeover(t)
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 ||
		stats.ResourcesMissing != 0 || stats.ResourcesFailed != 0 {
		t.Fatalf("takeover pass = %+v, want 1 decision, 2 committed", stats)
	}
	if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
		t.Fatalf("applies = %d/%d, want exactly once each", f.a.applies.Load(), f.b.applies.Load())
	}
	if f.a.commitCalls.Load() != 1 || f.b.commitCalls.Load() != 1 {
		t.Fatalf("commit deliveries = %d/%d, want 1/1", f.a.commitCalls.Load(), f.b.commitCalls.Load())
	}
	// The fate is answerable through the standby's recovery surface.
	rcl := orb.New()
	t.Cleanup(rcl.Shutdown)
	cl := remote.NewRecoveryClient(rcl, remote.RecoveryAt(s.orb.Endpoints()...))
	for _, name := range f.refs {
		st, err := cl.ReplayCompletion(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if st != iots.StatusCommitted {
			t.Fatalf("fate of %s via standby = %s, want committed", name, st)
		}
	}

	// Resharding: the admin removes the dead member; after a refresh its
	// arcs belong to the survivors and its keys serve again.
	if _, err := auth.Remove("doomed"); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := n.member.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := router.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	beforeTotal := nodes["live-1"].factory.Begins() + nodes["live-2"].factory.Begins()
	proxy, err := router.BeginActivity(ctx, doomedKey)
	if err != nil {
		t.Fatalf("begin %q after removing dead member: %v", doomedKey, err)
	}
	if _, err := proxy.Complete(ctx, activityservice.CompletionSuccess); err != nil {
		t.Fatal(err)
	}
	if got := nodes["live-1"].factory.Begins() + nodes["live-2"].factory.Begins(); got != beforeTotal+1 {
		t.Fatalf("formerly doomed key did not land on a survivor (begins %d -> %d)", beforeTotal, got)
	}
	if owner, ok := router.Map().Owner(doomedKey); !ok || owner.ID == "doomed" {
		t.Fatalf("doomed member still owns %q after removal", doomedKey)
	}
}

// TestClusterDrainLosesNothing drains a member mid-stream: activities
// begun on it before the drain complete there, begins arriving after
// redirect to the survivors, and the drained member quiesces once its
// last in-flight activity finishes.
func TestClusterDrainLosesNothing(t *testing.T) {
	ctx := context.Background()
	authORB := orb.New()
	t.Cleanup(authORB.Shutdown)
	if _, err := authORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	auth := orb.NewShardAuthority(nil)
	orb.ServeShardMap(authORB, auth)
	authRef, _ := authORB.IOR(orb.ShardMapKey)

	nodes := map[string]*shardNode{}
	for _, id := range []string{"d1", "d2"} {
		nodes[id] = newShardNode(t, id, authRef)
		joinFleet(t, auth, nodes, id)
	}
	client := orb.New()
	t.Cleanup(client.Shutdown)
	router := remote.NewShardRouter(client, authRef)

	// Begin (and hold open) several activities owned by d1.
	m, err := router.Refresh(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Watch the map: the drain should reach this router as a shard_watch
	// change notification, not as a WrongShard round trip.
	rctx, rcancel := context.WithCancel(ctx)
	t.Cleanup(rcancel)
	go router.Run(rctx)
	var inflight []*orb.ActivityProxy
	var d1Keys []string
	for i := 0; i < 4096 && len(inflight) < 5; i++ {
		if owner, ok := m.Owner(clusterKey(i)); ok && owner.ID == "d1" {
			proxy, err := router.BeginActivity(ctx, clusterKey(i))
			if err != nil {
				t.Fatal(err)
			}
			inflight = append(inflight, proxy)
			d1Keys = append(d1Keys, clusterKey(i))
		}
	}
	if len(inflight) < 5 {
		t.Fatal("d1 owns too few keys")
	}

	drainEpoch, err := auth.Drain("d1")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := n.member.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}

	// The watch loop prefetches the drained map before any begin has to
	// discover it the hard way.
	deadline := time.Now().Add(5 * time.Second)
	for router.Map().Epoch < drainEpoch {
		if time.Now().After(deadline) {
			t.Fatalf("router never prefetched drain epoch %d (at %d)", drainEpoch, router.Map().Epoch)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// New begins for d1's keys aim straight at d2 and execute exactly once.
	d2Before := nodes["d2"].factory.Begins()
	for _, key := range d1Keys[:2] {
		proxy, err := router.BeginActivity(ctx, key)
		if err != nil {
			t.Fatalf("begin %q during drain: %v", key, err)
		}
		if _, err := proxy.Complete(ctx, activityservice.CompletionSuccess); err != nil {
			t.Fatal(err)
		}
	}
	if got := nodes["d2"].factory.Begins(); got != d2Before+2 {
		t.Fatalf("drained begins moved %d, want 2", got-d2Before)
	}
	// Zero redirects: the prefetched epoch meant no begin ever hit the
	// draining member.
	if st := router.Stats(); st.Redirects != 0 || st.Prefetches == 0 {
		t.Fatalf("watching router stats = %+v, want 0 redirects and >0 prefetches", st)
	}

	// In-flight activities complete on d1; the last completion quiesces.
	qctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	if err := nodes["d1"].svc.WaitQuiesced(qctx); err == nil {
		cancel()
		t.Fatal("d1 quiesced with activities in flight")
	}
	cancel()
	for _, proxy := range inflight {
		if _, err := proxy.Complete(ctx, activityservice.CompletionSuccess); err != nil {
			t.Fatalf("completing in-flight on draining member: %v", err)
		}
	}
	qctx2, cancel2 := context.WithTimeout(ctx, 10*time.Second)
	defer cancel2()
	if err := nodes["d1"].svc.WaitQuiesced(qctx2); err != nil {
		t.Fatalf("drained member never quiesced: %v", err)
	}
	if nodes["d1"].svc.Live() != 0 {
		t.Fatalf("d1 has %d live activities after quiesce", nodes["d1"].svc.Live())
	}
}

// shardRouterRoute returns one routing decision of a router holding a
// cached eight-member map, cycling over 64 keys — the path
// BenchmarkShardRouterRoute times.
func shardRouterRoute(tb testing.TB) func() {
	authORB := orb.New()
	tb.Cleanup(authORB.Shutdown)
	if _, err := authORB.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	members := make([]orb.ClusterMember, 8)
	for i := range members {
		members[i] = orb.ClusterMember{
			ID:        fmt.Sprintf("m%d", i),
			Endpoints: []string{fmt.Sprintf("127.0.0.1:%d", 7400+i)},
			Weight:    1,
		}
	}
	m, err := cluster.NewMap(members...)
	if err != nil {
		tb.Fatal(err)
	}
	auth := orb.NewShardAuthority(m)
	orb.ServeShardMap(authORB, auth)
	authRef, _ := authORB.IOR(orb.ShardMapKey)

	client := orb.New()
	tb.Cleanup(client.Shutdown)
	router := remote.NewShardRouter(client, authRef)
	if _, err := router.Refresh(context.Background()); err != nil {
		tb.Fatal(err)
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = clusterKey(i)
	}
	ctx := context.Background()
	i := 0
	return func() {
		if _, _, err := router.RouteRef(ctx, orb.ActivityFactoryTypeID, orb.ActivityFactoryKey, keys[i%len(keys)]); err != nil {
			tb.Fatal(err)
		}
		i++
	}
}

// BenchmarkShardRouterRoute measures the router's cached-map routing
// path (key hash -> ring walk -> reference mint) — the per-invocation
// overhead sharding adds before the wire. TestAllocsShardRouterRoute
// gates its allocations.
func BenchmarkShardRouterRoute(b *testing.B) {
	route := shardRouterRoute(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		route()
	}
}
