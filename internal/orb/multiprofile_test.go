package orb

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// replicaNode is one node of a replicated servant: an ORB serving a
// counting servant under a fixed key.
type replicaNode struct {
	orb   *ORB
	calls atomic.Int32
}

// startReplica serves a servant under key on a fresh ORB and returns the
// node plus its bound endpoint.
func startReplica(t *testing.T, key string) (*replicaNode, string) {
	t.Helper()
	n := &replicaNode{orb: New()}
	t.Cleanup(n.orb.Shutdown)
	n.orb.RegisterServantWithKey(key, "IDL:test/Replica:1.0", ServantFunc(
		func(_ context.Context, op string, _ *cdr.Decoder) ([]byte, error) {
			n.calls.Add(1)
			return []byte("ok"), nil
		}))
	ep, err := n.orb.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return n, ep
}

// isolatedClient returns a client ORB with its own health registry (so
// tests do not share verdicts through the process-wide default) and fast
// reconnect backoff.
func isolatedClient(t *testing.T, opts ...ORBOption) *ORB {
	t.Helper()
	opts = append([]ORBOption{
		WithHealthRegistry(NewHealthRegistry()),
		WithReconnectBackoff(5*time.Millisecond, 20*time.Millisecond),
		WithCallTimeout(2 * time.Second),
	}, opts...)
	client := New(opts...)
	t.Cleanup(client.Shutdown)
	return client
}

// TestMultiProfileFailoverToBackup is the heart of the redesign: a
// two-profile reference keeps working through the loss of its primary
// endpoint, transparently, within a single Invoke.
func TestMultiProfileFailoverToBackup(t *testing.T) {
	primary, ep1 := startReplica(t, "svc")
	backup, ep2 := startReplica(t, "svc")
	ref := NewIOR("IDL:test/Replica:1.0", "svc", ep1, ep2)
	client := isolatedClient(t)
	ctx := context.Background()

	// Healthy primary: the first profile serves.
	if _, err := client.Invoke(ctx, ref, "work", nil); err != nil {
		t.Fatal(err)
	}
	if p, b := primary.calls.Load(), backup.calls.Load(); p != 1 || b != 0 {
		t.Fatalf("healthy routing: primary=%d backup=%d, want 1/0", p, b)
	}

	// Kill the primary and wait for the client's pooled connection to it
	// to die, so the next invoke must re-dial (and fail over) rather than
	// race the connection teardown.
	primary.orb.Shutdown()
	waitForConns(t, client, ep1, 0)

	if _, err := client.Invoke(ctx, ref, "work", nil); err != nil {
		t.Fatalf("invoke during primary outage: %v (failover should be transparent)", err)
	}
	if b := backup.calls.Load(); b != 1 {
		t.Fatalf("backup served %d calls, want 1 (failed over)", b)
	}

	// The dead profile's health gate is open; the selector now prefers the
	// backup outright, so further invokes do not pay the dead dial.
	st, ok := client.EndpointStats(ep1)
	if !ok || !st.Down {
		t.Fatalf("primary stats = %+v, want down", st)
	}
	start := time.Now()
	if _, err := client.Invoke(ctx, ref, "work", nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("invoke with downed primary took %s, want fast path through backup", elapsed)
	}
	if b := backup.calls.Load(); b != 2 {
		t.Fatalf("backup served %d calls, want 2", b)
	}
}

// TestMultiProfileStickyAffinity pins the replica-affinity contract: after
// failing over to the backup, invocations for that key keep landing on the
// backup even once the primary endpoint is healthy again — the replica
// that answered earlier phases of a protocol keeps receiving later ones.
func TestMultiProfileStickyAffinity(t *testing.T) {
	primary, ep1 := startReplica(t, "svc")
	backup, ep2 := startReplica(t, "svc")
	ref := NewIOR("IDL:test/Replica:1.0", "svc", ep1, ep2)
	client := isolatedClient(t)
	ctx := context.Background()

	primary.orb.Shutdown()
	if _, err := client.Invoke(ctx, ref, "work", nil); err != nil {
		t.Fatal(err)
	}
	if b := backup.calls.Load(); b != 1 {
		t.Fatalf("backup served %d calls, want 1", b)
	}

	// Resurrect the primary endpoint (a fresh ORB on the same address,
	// same key) and let the down window expire.
	revived := &replicaNode{orb: New()}
	t.Cleanup(revived.orb.Shutdown)
	revived.orb.RegisterServantWithKey("svc", "IDL:test/Replica:1.0", ServantFunc(
		func(context.Context, string, *cdr.Decoder) ([]byte, error) {
			revived.calls.Add(1)
			return []byte("ok"), nil
		}))
	if _, err := revived.orb.Listen(endpointHost(ep1)); err != nil {
		t.Skipf("cannot rebind %s: %v", ep1, err)
	}
	time.Sleep(40 * time.Millisecond) // > max reconnect backoff

	for i := 0; i < 5; i++ {
		if _, err := client.Invoke(ctx, ref, "work", nil); err != nil {
			t.Fatal(err)
		}
	}
	if r := revived.calls.Load(); r != 0 {
		t.Fatalf("revived primary served %d calls; affinity should stick to the backup", r)
	}
	if b := backup.calls.Load(); b != 6 {
		t.Fatalf("backup served %d calls, want 6", b)
	}
}

// TestMultiProfileSharedHealthRegistry proves dial verdicts are shared:
// after one client ORB discovers a dead endpoint, a second client ORB
// wired to the same registry fails fast against it without dialing.
func TestMultiProfileSharedHealthRegistry(t *testing.T) {
	ref := deadEndpoint(t)
	hr := NewHealthRegistry()
	transport := &flakyTransport{} // counts dials; delegates to TCP
	mk := func() *ORB {
		o := New(
			WithHealthRegistry(hr),
			WithTransport(transport),
			WithReconnectBackoff(300*time.Millisecond, 300*time.Millisecond),
		)
		t.Cleanup(o.Shutdown)
		return o
	}
	a, b := mk(), mk()
	ctx := context.Background()

	if _, err := a.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
		t.Fatalf("first client: err = %v, want TRANSIENT", err)
	}
	dialsAfterA := transport.dialCount()
	if dialsAfterA != 1 {
		t.Fatalf("dials after first client = %d, want 1", dialsAfterA)
	}

	start := time.Now()
	if _, err := b.Invoke(ctx, ref, "ping", nil); !IsSystem(err, CodeTransient) {
		t.Fatalf("second client: err = %v, want TRANSIENT", err)
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("second client took %s, want shared-verdict fast fail", elapsed)
	}
	if got := transport.dialCount(); got != dialsAfterA {
		t.Fatalf("second client dialed (%d -> %d); the shared registry should have failed it fast", dialsAfterA, got)
	}
	if v := hr.Verdict(ref.Endpoint()); !v.Down || v.Failures == 0 {
		t.Fatalf("registry verdict = %+v, want down with failures", v)
	}
}

// TestMultiProfileMultiListener pins the server half: an ORB listening on
// several addresses mints references carrying every bound endpoint as a
// profile, each of which serves.
func TestMultiProfileMultiListener(t *testing.T) {
	server := New()
	defer server.Shutdown()
	ref := server.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	ep1, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if eps := server.Endpoints(); len(eps) != 2 || eps[0] != ep1 || eps[1] != ep2 {
		t.Fatalf("Endpoints() = %v, want [%s %s]", eps, ep1, ep2)
	}
	ref, _ = server.IOR(ref.Key)
	if got := ref.Endpoints(); len(got) != 2 || got[0] != ep1 || got[1] != ep2 {
		t.Fatalf("minted profiles = %v, want both listeners", got)
	}

	// Each profile works on its own.
	for i, ep := range ref.Endpoints() {
		client := isolatedClient(t)
		single := NewIOR(ref.TypeID, ref.Key, ep)
		if got, err := echoCall(t, client, single, fmt.Sprintf("via-%d", i)); err != nil || got != fmt.Sprintf("via-%d", i) {
			t.Fatalf("profile %d (%s): got %q err %v", i, ep, got, err)
		}
	}

	// ServerStats aggregates over both listeners.
	st, ok := server.ServerStats()
	if !ok || len(st.Endpoints) != 2 {
		t.Fatalf("server stats = %+v, want 2 listener endpoints", st)
	}
}

// TestMultiProfileAdvertisedEndpoints pins WithAdvertised: minted IORs
// carry the advertised endpoints (normalized to "tcp:" form), not the
// bound ones.
func TestMultiProfileAdvertisedEndpoints(t *testing.T) {
	server := New(WithAdvertised("lb.example:7411", "tcp:lb2.example:7411"))
	defer server.Shutdown()
	ref := server.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	if _, err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = server.IOR(ref.Key)
	got := ref.Endpoints()
	want := []string{"tcp:lb.example:7411", "tcp:lb2.example:7411"}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("advertised profiles = %v, want %v", got, want)
	}
}

// TestMultiProfileSelectorPrefersClosedBreaker pins the breaker-aware pick
// from the ROADMAP: the primary dials fine but resets every request (so
// the dial health gate never opens — only the breaker sees the failures);
// once its circuit opens, the selector routes new invocations through the
// backup profile without burning the primary's half-open probe budget on
// regular traffic.
func TestMultiProfileSelectorPrefersClosedBreaker(t *testing.T) {
	primary, ep1 := startReplica(t, "svc")
	backup, ep2 := startReplica(t, "svc")
	// A second replicated object on the same endpoints, with no affinity
	// history, proves the routing decision comes from the breaker verdict.
	var primaryOther, backupOther atomic.Int32
	for _, n := range []struct {
		node  *replicaNode
		calls *atomic.Int32
	}{{primary, &primaryOther}, {backup, &backupOther}} {
		calls := n.calls
		n.node.orb.RegisterServantWithKey("other", "IDL:test/Replica:1.0", ServantFunc(
			func(context.Context, string, *cdr.Decoder) ([]byte, error) {
				calls.Add(1)
				return []byte("ok"), nil
			}))
	}
	ref := NewIOR("IDL:test/Replica:1.0", "svc", ep1, ep2)
	otherRef := NewIOR("IDL:test/Replica:1.0", "other", ep1, ep2)
	chaos := NewChaosTransport(nil)
	// The primary endpoint accepts connections but resets every request,
	// so the dial gate stays closed and only the breaker sees failures.
	chaos.Inject(ChaosRule{Addr: ep1, Stage: StageRequest, Reset: true})
	client := isolatedClient(t, WithTransport(chaos), WithCircuitBreaker(1, 10*time.Second))
	ctx := context.Background()

	// The invoke fails over within the call; the primary's breaker feeds
	// on the reset send and opens at the threshold.
	if _, err := client.Invoke(ctx, ref, "work", nil); err != nil {
		t.Fatal(err)
	}
	st, _ := client.EndpointStats(ep1)
	if st.Breaker != BreakerOpen {
		t.Fatalf("primary breaker = %s, want open (stats %+v)", st.Breaker, st)
	}
	probesBefore := st.BreakerProbes

	// Fresh key, no affinity: the open breaker alone must steer the
	// selector to the backup, without consuming half-open probes.
	for i := 0; i < 4; i++ {
		if _, err := client.Invoke(ctx, otherRef, "work", nil); err != nil {
			t.Fatal(err)
		}
	}
	if p, b := primaryOther.Load(), backupOther.Load(); p != 0 || b != 4 {
		t.Fatalf("fresh-key routing: primary=%d backup=%d, want 0/4 via the open-breaker verdict", p, b)
	}
	if b := backup.calls.Load(); b != 1 {
		t.Fatalf("backup served %d 'svc' calls, want 1", b)
	}
	if st, _ := client.EndpointStats(ep1); st.BreakerProbes != probesBefore {
		t.Fatalf("regular traffic consumed %d half-open probes; the selector should bypass an open breaker",
			st.BreakerProbes-probesBefore)
	}
}

// waitForConns polls until the client's pool for endpoint holds exactly n
// connections.
func waitForConns(t *testing.T, client *ORB, endpoint string, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		st, ok := client.EndpointStats(endpoint)
		if (ok && st.Conns == n) || (!ok && n == 0) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool for %s never reached %d conns: %+v", endpoint, n, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMultiProfileIORStringRoundTrip pins the one stringified form,
// "IOR:<ep>[,<ep>…]|<type>|<key>": the single-profile string every earlier
// version emitted is its one-element case and still parses and
// re-stringifies byte-identically; a multi-profile reference lists its
// endpoints comma-separated under the same prefix, and no other prefix
// parses.
func TestMultiProfileIORStringRoundTrip(t *testing.T) {
	single := "IOR:tcp:10.1.2.3:7411|IDL:ActivityService/Action:1.0|act-42"
	ref, err := ParseIOR(single)
	if err != nil {
		t.Fatal(err)
	}
	want := NewIOR("IDL:ActivityService/Action:1.0", "act-42", "tcp:10.1.2.3:7411")
	if !ref.Equal(want) {
		t.Fatalf("parsed %+v, want %+v", ref, want)
	}
	if got := ref.String(); got != single {
		t.Fatalf("re-stringified %q, want %q", got, single)
	}

	multi := NewIOR("IDL:T:1.0", "k", "tcp:a:1", "tcp:b:2", "tcp:c:3")
	if got := multi.String(); got != "IOR:tcp:a:1,tcp:b:2,tcp:c:3|IDL:T:1.0|k" {
		t.Fatalf("multi form = %q", got)
	}
	parsed, err := ParseIOR(multi.String())
	if err != nil || !parsed.Equal(multi) {
		t.Fatalf("multi round trip: %+v err %v", parsed, err)
	}

	for _, bad := range []string{
		"IOR9:tcp:a:1,tcp:b:2|IDL:T:1.0|k", // any prefix but "IOR:"
		"IOR:tcp:a:1,|IDL:T:1.0|k",         // empty profile
		"IOR:|IDL:T:1.0|k",                 // no profile
	} {
		if _, err := ParseIOR(bad); !errors.Is(err, ErrBadIOR) {
			t.Errorf("ParseIOR(%q) = %v, want ErrBadIOR", bad, err)
		}
	}
}

// TestMultiProfileIORCDRRoundTrip pins the one CDR layout — TypeID, Key,
// endpoint list, no magic or version word — and that a reference embedded
// mid-stream between other fields decodes without disturbing them.
func TestMultiProfileIORCDRRoundTrip(t *testing.T) {
	for _, ref := range []IOR{
		NewIOR("IDL:T:1.0", "key-1", "tcp:10.0.0.1:9"),
		NewIOR("IDL:T:1.0", "key-2", "tcp:a:1", "tcp:b:2"),
	} {
		layout := cdr.NewEncoder(64)
		layout.WriteString("before")
		layout.WriteString(ref.TypeID)
		layout.WriteString(ref.Key)
		layout.WriteStringList(ref.Endpoints())
		layout.WriteString("after")

		e := cdr.NewEncoder(64)
		e.WriteString("before")
		ref.Encode(e)
		e.WriteString("after")
		if string(e.Bytes()) != string(layout.Bytes()) {
			t.Fatalf("encoding of %s diverged from the pinned layout:\n got: %x\nwant: %x", ref, e.Bytes(), layout.Bytes())
		}

		d := cdr.NewDecoder(e.Bytes())
		if s := d.ReadString(); s != "before" {
			t.Fatalf("prefix = %q", s)
		}
		got := DecodeIOR(d)
		if d.Err() != nil || !got.Equal(ref) {
			t.Fatalf("decode = %+v err %v, want %+v", got, d.Err(), ref)
		}
		if s := d.ReadString(); s != "after" || d.Err() != nil {
			t.Fatalf("suffix = %q err %v", s, d.Err())
		}
	}
}

// TestMultiProfileNameRebindStaleRef covers the stale-reference lifecycle
// against the name service: a client resolves a multi-profile reference,
// the server rebinds the name to a replacement object on fresh endpoints
// and the old ones die; the held reference now fails, and re-resolving
// through the (still reachable) name service yields a working reference —
// the resolve-retry path operators are told to implement.
func TestMultiProfileNameRebindStaleRef(t *testing.T) {
	ctx := context.Background()

	// Naming runs on its own node so it survives the app nodes dying.
	nsNode := New()
	defer nsNode.Shutdown()
	ns := NewNameServer()
	ns.Serve(nsNode)
	nsEp, err := nsNode.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// Generation 1 of the service: two listeners, bound under one name.
	gen1, gen1ep := startReplica(t, "svc")
	gen1ref := NewIOR("IDL:test/Replica:1.0", "svc", gen1ep)

	client := isolatedClient(t)
	naming := NewNameClient(client, NameServiceAt(nsEp))
	if err := naming.Bind(ctx, "services/replicated", gen1ref); err != nil {
		t.Fatal(err)
	}
	held, err := naming.Resolve(ctx, "services/replicated")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke(ctx, held, "work", nil); err != nil {
		t.Fatal(err)
	}

	// Generation 2 replaces generation 1: new nodes, new multi-profile
	// reference, rebound under the same name; generation 1 dies.
	gen2a, ep2a := startReplica(t, "svc")
	gen2b, ep2b := startReplica(t, "svc")
	gen2ref := NewIOR("IDL:test/Replica:1.0", "svc", ep2a, ep2b)
	if err := naming.Bind(ctx, "services/replicated", gen2ref); err != nil {
		t.Fatal(err)
	}
	gen1.orb.Shutdown()
	waitForConns(t, client, gen1ep, 0)

	// The held reference is stale: every profile is dead.
	if _, err := client.Invoke(ctx, held, "work", nil); !IsSystem(err, CodeTransient) {
		t.Fatalf("stale ref: err = %v, want TRANSIENT", err)
	}

	// Resolve-retry: a fresh resolve returns the rebound reference, which
	// works (and carries both new profiles).
	fresh, err := naming.Resolve(ctx, "services/replicated")
	if err != nil {
		t.Fatal(err)
	}
	if !fresh.Equal(gen2ref) {
		t.Fatalf("re-resolved %+v, want %+v", fresh, gen2ref)
	}
	if _, err := client.Invoke(ctx, fresh, "work", nil); err != nil {
		t.Fatalf("invoke after resolve-retry: %v", err)
	}
	if a, b := gen2a.calls.Load(), gen2b.calls.Load(); a+b != 1 {
		t.Fatalf("generation-2 calls = %d+%d, want exactly 1", a, b)
	}
}
