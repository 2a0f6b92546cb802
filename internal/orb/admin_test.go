package orb

import (
	"context"
	"slices"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// TestAdminScrapeServerAndEndpointStats drives the whole admin surface
// over the wire: a daemon with admission control serves the well-known
// orb-admin key; a remote scraper reads its ServerStats, makes the daemon
// dial a third node so it grows a client pool, then finds the daemon's
// pooled endpoints and their stats among the scraped samples.
func TestAdminScrapeServerAndEndpointStats(t *testing.T) {
	ctx := context.Background()

	// The daemon under observation.
	daemon := New(WithMaxInflight(8))
	defer daemon.Shutdown()
	ServeAdmin(daemon)
	ep1, err := daemon.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := daemon.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// A third node the daemon talks to as a client.
	peer, peerEp := startReplica(t, "peer-obj")
	if _, err := daemon.Invoke(ctx, NewIOR("IDL:test/Replica:1.0", "peer-obj", peerEp), "work", nil); err != nil {
		t.Fatal(err)
	}
	if peer.calls.Load() != 1 {
		t.Fatal("daemon's outgoing call never reached the peer")
	}

	// The scraper is a separate process's-worth of ORB.
	scraper := New()
	t.Cleanup(scraper.Shutdown)
	admin := NewAdminClient(scraper, AdminAt(ep1, ep2))

	st, ok, err := admin.ServerStats(ctx)
	if err != nil || !ok {
		t.Fatalf("ServerStats: ok=%v err=%v", ok, err)
	}
	if st.Endpoint != ep1 || len(st.Endpoints) != 2 || st.Endpoints[1] != ep2 {
		t.Fatalf("scraped endpoints = %q %v, want %q and %q", st.Endpoint, st.Endpoints, ep1, ep2)
	}
	if st.MaxInflight != 8 || st.QueueDepth != 16 || st.ShedAfter != 100*time.Millisecond {
		t.Fatalf("scraped admission config = %+v, want 8 slots, 16 queued, 100ms", st)
	}
	// Admin scrapes bypass the admission gate, so they never count as
	// dispatched; a regular inbound call does.
	if st.Dispatched != 0 {
		t.Fatalf("scraped Dispatched = %d before any regular traffic; admin scrapes must bypass admission", st.Dispatched)
	}
	echoRef := daemon.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	echoRef, _ = daemon.IOR(echoRef.Key)
	if _, err := scraper.Invoke(ctx, NewIOR(echoRef.TypeID, echoRef.Key, ep1), "echo", encodeEchoArg("hi")); err != nil {
		t.Fatal(err)
	}
	if st, _, _ := admin.ServerStats(ctx); st.Dispatched != 1 {
		t.Fatalf("Dispatched = %d after one regular call, want 1", st.Dispatched)
	}

	ss, err := admin.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var pooled []string
	for _, s := range ss {
		if s.Name == "orb.endpoint.conns" {
			pooled = append(pooled, s.Label)
		}
	}
	if len(pooled) != 1 || pooled[0] != peerEp {
		t.Fatalf("pooled endpoints = %v, want [%s]", pooled, peerEp)
	}
	local, _ := daemon.EndpointStats(peerEp)
	for _, f := range local.fields() {
		if v, ok := ss.Get("orb.endpoint."+f.name, peerEp); !ok || v != f.get() {
			t.Fatalf("scraped %s = %d (present %v), local EndpointStats %d", f.name, v, ok, f.get())
		}
	}
	if conns, _ := ss.Get("orb.endpoint.conns", peerEp); conns == 0 {
		t.Fatal("scraped pool has no live connection")
	}
	if down, _ := ss.Get("orb.endpoint.down", peerEp); down != 0 {
		t.Fatal("scraped pool reports the peer down")
	}

	// Miss case: no samples for an endpoint the daemon never dialed.
	if _, ok := ss.Get("orb.endpoint.conns", "tcp:127.0.0.1:1"); ok {
		t.Fatal("scrape reports a pool for an endpoint never dialed")
	}
}

// TestAdminScrapeBareORB pins what a scrape of an ORB hosting nothing
// shows: no server samples (it is not listening, so ServerStats reports
// false), and no recovery, relay or replication samples — an absent
// source is absent samples, not an error.
func TestAdminScrapeBareORB(t *testing.T) {
	ctx := context.Background()
	bare := New()
	defer bare.Shutdown()
	ServeAdmin(bare)
	scraper := New()
	defer scraper.Shutdown()
	admin := NewAdminClient(scraper, AdminAt(bare.Endpoints()...))
	ss, err := admin.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 0 {
		t.Fatalf("bare ORB scrape = %+v, want no samples", ss)
	}
	if _, ok, err := admin.ServerStats(ctx); ok || err != nil {
		t.Fatalf("bare ORB ServerStats: ok=%v err=%v, want false/nil", ok, err)
	}
}

// TestSetMetricsReplacesAndRemoves pins the one registration hook: a
// source's samples are prefixed by its name, registering a name again
// replaces the source instead of adding a copy, sources report in name
// order, and a nil source is removed.
func TestSetMetricsReplacesAndRemoves(t *testing.T) {
	o := New()
	defer o.Shutdown()
	source := func(v int64) func(emit func(Sample)) {
		return func(emit func(Sample)) { emit(Sample{Name: "v", Label: "x", Value: v}) }
	}
	o.SetMetrics("b", source(1))
	o.SetMetrics("a", source(2))
	o.SetMetrics("b", source(3))
	want := Samples{{Name: "a.v", Label: "x", Value: 2}, {Name: "b.v", Label: "x", Value: 3}}
	if got := o.Metrics(); !slices.Equal(got, want) {
		t.Fatalf("samples = %+v, want %+v", got, want)
	}
	o.SetMetrics("a", nil)
	if got := o.Metrics(); !slices.Equal(got, want[1:]) {
		t.Fatalf("samples after removing a = %+v, want %+v", got, want[1:])
	}
}

// TestAdminRejectsUnknownOperation pins the failure surface.
func TestAdminRejectsUnknownOperation(t *testing.T) {
	daemon := New()
	defer daemon.Shutdown()
	ref := ServeAdmin(daemon)
	if _, err := daemon.Invoke(context.Background(), ref, "drop_tables", nil); !IsSystem(err, CodeBadOperation) {
		t.Fatalf("err = %v, want BAD_OPERATION", err)
	}
}

// TestAdminScrapeBypassesAdmission pins the observability-under-overload
// contract: with the daemon's one dispatch slot saturated by a stuck
// servant, a ServerStats scrape must still answer instead of being shed
// by the very gate it reports on.
func TestAdminScrapeBypassesAdmission(t *testing.T) {
	ctx := context.Background()
	daemon := New(WithMaxInflight(1))
	defer daemon.Shutdown()
	ServeAdmin(daemon)
	release := make(chan struct{})
	defer close(release)
	slowRef := daemon.RegisterServant("IDL:test/Stuck:1.0", ServantFunc(
		func(ctx context.Context, _ string, _ *cdr.Decoder) ([]byte, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, nil
		}))
	ep, err := daemon.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	slowRef, _ = daemon.IOR(slowRef.Key)

	filler := New()
	t.Cleanup(filler.Shutdown)
	go filler.Invoke(ctx, slowRef, "stall", nil) // occupies the only slot
	deadline := time.Now().Add(2 * time.Second)
	for {
		if st, ok := daemon.ServerStats(); ok && st.Inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("filler call never occupied the dispatch slot")
		}
		time.Sleep(time.Millisecond)
	}

	scraper := New()
	t.Cleanup(scraper.Shutdown)
	admin := NewAdminClient(scraper, AdminAt(ep))
	st, ok, err := admin.ServerStats(ctx)
	if err != nil || !ok {
		t.Fatalf("scrape under saturation: ok=%v err=%v, want an answer past the gate", ok, err)
	}
	if st.Inflight != 1 || st.MaxInflight != 1 {
		t.Fatalf("scraped stats = %+v, want the saturated gauge", st)
	}
}

// TestAffinityScopedByPrimaryProfile pins that two objects sharing a
// well-known key on different server groups keep independent affinities.
func TestAffinityScopedByPrimaryProfile(t *testing.T) {
	refA := NewIOR(AdminTypeID, AdminKey, "tcp:a1:1", "tcp:a2:1")
	refB := NewIOR(AdminTypeID, AdminKey, "tcp:b1:1", "tcp:b2:1")
	if ka, kb := affinityKey(refA), affinityKey(refB); ka == kb {
		t.Fatalf("affinity keys collide: %q", ka)
	}
	o := New()
	defer o.Shutdown()
	o.recordAffinity("tcp:a2:1", affinityKey(refA))
	o.recordAffinity("tcp:b1:1", affinityKey(refB))
	if got := o.affinityFor(affinityKey(refA)); got != "tcp:a2:1" {
		t.Fatalf("group A affinity = %q after group B recorded, want tcp:a2:1", got)
	}
}

// encodeEchoArg builds the echo servant's single-string request body.
func encodeEchoArg(s string) []byte {
	e := cdr.NewEncoder(32)
	e.WriteString(s)
	return e.Bytes()
}
