package orb

import (
	"fmt"
	"testing"
	"time"
)

// seedRTT plants a pool for endpoint with the given RTT EWMA, as if rtt
// had been observed on real calls.
func seedRTT(t *testing.T, o *ORB, endpoint string, rtt time.Duration) {
	t.Helper()
	p, err := o.pool(endpointHost(endpoint), endpoint)
	if err != nil {
		t.Fatalf("pool(%s): %v", endpoint, err)
	}
	p.rttNanos.Store(int64(rtt))
}

// TestSelectEndpointsRanksByRTT pins the latency-aware ordering: healthy
// profiles with a measured round trip come nearest-first, never-measured
// ones follow in reference order, and the sticky-affinity endpoint still
// overrides everything while healthy.
func TestSelectEndpointsRanksByRTT(t *testing.T) {
	o := New()
	defer o.Shutdown()

	far := "tcp:10.0.0.1:1"
	near := "tcp:10.0.0.2:2"
	mid := "tcp:10.0.0.3:3"
	freshA := "tcp:10.0.0.4:4"
	freshB := "tcp:10.0.0.5:5"
	seedRTT(t, o, far, 80*time.Millisecond)
	seedRTT(t, o, near, 2*time.Millisecond)
	seedRTT(t, o, mid, 10*time.Millisecond)

	ref := NewIOR("IDL:T:1.0", "obj", far, near, mid, freshA, freshB)
	got, _ := o.selectEndpoints(ref, affinityKey(ref))
	want := []string{near, mid, far, freshA, freshB}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("selector order %v, want %v", got, want)
	}

	// Sticky affinity outranks the RTT order while the endpoint is healthy.
	o.recordAffinity(far, affinityKey(ref))
	got, aff := o.selectEndpoints(ref, affinityKey(ref))
	if aff != far {
		t.Fatalf("consulted affinity %q, want %q", aff, far)
	}
	want = []string{far, near, mid, freshA, freshB}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("selector order with affinity %v, want %v", got, want)
	}
}

// TestSelectEndpointsRTTUnhealthyLast pins that the RTT ranking never
// promotes an endpoint past the health partition: a near-but-down
// endpoint still sorts behind every healthy one.
func TestSelectEndpointsRTTUnhealthyLast(t *testing.T) {
	o := New()
	defer o.Shutdown()

	down := "tcp:10.1.0.1:1"
	up := "tcp:10.1.0.2:2"
	seedRTT(t, o, down, 1*time.Millisecond)
	seedRTT(t, o, up, 50*time.Millisecond)
	// Mark the near endpoint down, as a failed dial would.
	p, _ := o.pool(endpointHost(down), down)
	p.mu.Lock()
	p.dialFailures = 1
	p.downUntil = time.Now().Add(time.Minute)
	p.mu.Unlock()

	ref := NewIOR("IDL:T:1.0", "obj", down, up)
	got, _ := o.selectEndpoints(ref, affinityKey(ref))
	want := []string{up, down}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("selector order %v, want %v", got, want)
	}
}

// TestAffinityLRUEviction pins the recency-based affinity bound: filling
// the map past maxAffinityEntries evicts the least-recently-used binding,
// not the whole map, and consulting a binding freshens it.
func TestAffinityLRUEviction(t *testing.T) {
	o := New()
	defer o.Shutdown()

	ep := "tcp:10.2.0.1:1"
	for i := 0; i < maxAffinityEntries; i++ {
		o.recordAffinity(ep, fmt.Sprintf("key-%d", i))
	}
	// Freshen key-0 (the oldest) by consulting it, then insert one more.
	if got := o.affinityFor("key-0"); got != ep {
		t.Fatalf("affinityFor(key-0) = %q before eviction", got)
	}
	o.recordAffinity(ep, "overflow-key")

	// key-1 is now the LRU victim; key-0 and the rest must survive.
	if got := o.affinityFor("key-1"); got != "" {
		t.Fatal("LRU victim key-1 survived the bound")
	}
	if got := o.affinityFor("key-0"); got != ep {
		t.Fatal("recently-consulted key-0 was evicted")
	}
	if got := o.affinityFor("overflow-key"); got != ep {
		t.Fatal("newly-recorded binding missing")
	}
	if got := o.affinityFor(fmt.Sprintf("key-%d", maxAffinityEntries-1)); got != ep {
		t.Fatal("recent binding evicted by LRU overflow")
	}
	if n := len(o.affinity); n != maxAffinityEntries {
		t.Fatalf("affinity map holds %d entries, want %d", n, maxAffinityEntries)
	}
	if n := o.affOrder.Len(); n != maxAffinityEntries {
		t.Fatalf("affinity list holds %d entries, want %d", n, maxAffinityEntries)
	}

	// Re-recording an existing key updates in place (no growth, new endpoint).
	o.recordAffinity("tcp:10.2.0.2:2", "overflow-key")
	if got := o.affinityFor("overflow-key"); got != "tcp:10.2.0.2:2" {
		t.Fatalf("re-recorded binding = %q", got)
	}
	if n := len(o.affinity); n != maxAffinityEntries {
		t.Fatalf("re-record grew the map to %d entries", n)
	}
}
