package remote

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
)

// sampleTree builds a three-level membership: root → two children, first
// child has two leaves.
func sampleTree() *relayNode {
	return &relayNode{
		index: 0, key: "a0", endpoints: []string{"tcp:h0:1"},
		children: []*relayNode{
			{
				index: 1, key: "a1", endpoints: []string{"tcp:h1:1", "tcp:h1:2"},
				children: []*relayNode{
					{index: 3, key: "a3", endpoints: []string{"tcp:h3:1"}},
					{index: 4, key: "a4", endpoints: []string{"tcp:h4:1"}},
				},
			},
			{index: 2, key: "a2", endpoints: []string{"tcp:h2:1"}},
		},
	}
}

func TestRelayBatchRoundTrip(t *testing.T) {
	root := sampleTree()
	me := cdr.NewEncoder(128)
	encodeRelayNode(me, root)
	membership := me.Bytes()
	plantID := plantIDOf(membership)

	sig := core.Signal{Name: "prepare", SetName: "2pc", Data: int64(7)}
	retry := core.RetryPolicy{Attempts: 3, Backoff: 5 * time.Millisecond}

	e := cdr.NewEncoder(256)
	if err := encodeRelayBatch(e, sig, relayBatchFull, plantID, retry, membership); err != nil {
		t.Fatal(err)
	}
	got, err := decodeRelayBatch(cdr.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.sig != sig {
		t.Fatalf("signal = %+v, want %+v", got.sig, sig)
	}
	if got.kind != relayBatchFull || got.plantID != plantID || got.retry != retry {
		t.Fatalf("header = kind %d plant %q retry %+v", got.kind, got.plantID, got.retry)
	}
	assertTreeEqual(t, got.root, root)

	// Ref batches carry no membership and decode with a nil root.
	e2 := cdr.NewEncoder(64)
	if err := encodeRelayBatch(e2, sig, relayBatchRef, plantID, retry, nil); err != nil {
		t.Fatal(err)
	}
	ref, err := decodeRelayBatch(cdr.NewDecoder(e2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ref.root != nil || ref.plantID != plantID {
		t.Fatalf("ref batch = %+v", ref)
	}
	if len(e2.Bytes()) >= len(e.Bytes()) {
		t.Fatalf("ref batch (%d bytes) not smaller than full batch (%d bytes)", len(e2.Bytes()), len(e.Bytes()))
	}
}

// span appends every node of the subtree to dst in preorder.
func (n *relayNode) span(dst []*relayNode) []*relayNode {
	dst = append(dst, n)
	for _, c := range n.children {
		dst = c.span(dst)
	}
	return dst
}

func assertTreeEqual(t *testing.T, got, want *relayNode) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("tree = %v, want %v", got, want)
		}
		return
	}
	if got.index != want.index || got.key != want.key {
		t.Fatalf("node = %+v, want %+v", got, want)
	}
	if len(got.endpoints) != len(want.endpoints) {
		t.Fatalf("endpoints = %v, want %v", got.endpoints, want.endpoints)
	}
	for i := range got.endpoints {
		if got.endpoints[i] != want.endpoints[i] {
			t.Fatalf("endpoints = %v, want %v", got.endpoints, want.endpoints)
		}
	}
	if len(got.children) != len(want.children) {
		t.Fatalf("children = %d, want %d", len(got.children), len(want.children))
	}
	for i := range got.children {
		assertTreeEqual(t, got.children[i], want.children[i])
	}
}

func TestRelayResultsRoundTrip(t *testing.T) {
	in := []relayResult{
		{index: 2, attempts: 1, outcome: core.Outcome{Name: "prepared", Data: "rw"}},
		{index: 5, attempts: 3, errText: "participant refused"},
	}
	e := cdr.NewEncoder(128)
	if err := encodeRelayResults(e, in); err != nil {
		t.Fatal(err)
	}
	out, err := decodeRelayResults(cdr.NewDecoder(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d results, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("result %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestRelayMembershipDepthAndCountGuards(t *testing.T) {
	// A membership deeper than maxRelayDepth must be rejected.
	deep := &relayNode{index: 0, key: "k", endpoints: []string{"tcp:h:1"}}
	n := deep
	for i := 1; i <= maxRelayDepth+1; i++ {
		c := &relayNode{index: i, key: "k", endpoints: []string{"tcp:h:1"}}
		n.children = []*relayNode{c}
		n = c
	}
	e := cdr.NewEncoder(1024)
	encodeRelayNode(e, deep)
	var d cdr.Decoder
	d.Reset(e.Bytes())
	if _, err := decodeRelayNode(&d, 0); err == nil || !strings.Contains(err.Error(), "deeper") {
		t.Fatalf("deep membership error = %v", err)
	}

	// A hostile child count far beyond the remaining bytes must be
	// rejected before allocation.
	h := cdr.NewEncoder(64)
	h.WriteUint32(0)
	h.WriteString("k")
	h.WriteStringList([]string{"tcp:h:1"})
	h.WriteUint32(1 << 30)
	d.Reset(h.Bytes())
	if _, err := decodeRelayNode(&d, 0); err == nil || !strings.Contains(err.Error(), "children") {
		t.Fatalf("hostile count error = %v", err)
	}
}

// relayFixture hosts participants and a relay servant on one in-process
// ORB and a sender on another.
type relayFixture struct {
	host   *orb.ORB
	sender *orb.ORB
}

func newRelayFixture(t *testing.T) *relayFixture {
	t.Helper()
	host := orb.New()
	t.Cleanup(host.Shutdown)
	sender := orb.New()
	t.Cleanup(sender.Shutdown)
	ServeRelay(host)
	return &relayFixture{host: host, sender: sender}
}

// exportCounting exports a participant that counts deliveries and acks
// with "ack:<signal>".
func (fx *relayFixture) exportCounting(counter *atomic.Int32) orb.IOR {
	ref := ExportAction(fx.host, core.ActionFunc(func(_ context.Context, sig core.Signal) (core.Outcome, error) {
		counter.Add(1)
		return core.Outcome{Name: "ack:" + sig.Name}, nil
	}))
	ref, _ = fx.host.IOR(ref.Key)
	return ref
}

func TestRelayServantDeliversSubtree(t *testing.T) {
	fx := newRelayFixture(t)
	ctx := context.Background()

	// Five participants on the host node, arranged root → {child(2 leaves), leaf}.
	var counts [5]atomic.Int32
	refs := make([]orb.IOR, 5)
	for i := range refs {
		refs[i] = fx.exportCounting(&counts[i])
	}
	node := func(i int, children ...*core.TreeNode) *core.TreeNode {
		return &core.TreeNode{
			Member:   core.TreeMember{Index: i, Label: "p", Action: ImportAction(fx.sender, refs[i])},
			Children: children,
		}
	}
	tree := node(0, node(1, node(3), node(4)), node(2))

	deliverer := ImportAction(fx.sender, refs[0]).(core.SubtreeDeliverer)
	results, err := deliverer.DeliverSubtree(ctx, core.Signal{Name: "go", SetName: "s"}, tree, core.RetryPolicy{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("got %d results, want 5", len(results))
	}
	seen := map[int]bool{}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("member %d failed: %v", r.Index, r.Err)
		}
		if r.Outcome.Name != "ack:go" {
			t.Fatalf("member %d outcome = %q", r.Index, r.Outcome.Name)
		}
		seen[r.Index] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[i] {
			t.Fatalf("no result for member %d", i)
		}
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("member %d delivered %d times, want 1", i, got)
		}
	}
}

func TestRelayPlantCacheRefRoundTrips(t *testing.T) {
	fx := newRelayFixture(t)
	ctx := context.Background()

	var count atomic.Int32
	ref := fx.exportCounting(&count)
	tree := &core.TreeNode{Member: core.TreeMember{Index: 0, Action: ImportAction(fx.sender, ref)}}
	deliverer := ImportAction(fx.sender, ref).(core.SubtreeDeliverer)

	// First round plants the membership; later rounds ride the plant id.
	for round := 0; round < 3; round++ {
		results, err := deliverer.DeliverSubtree(ctx, core.Signal{Name: "r", SetName: "s"}, tree, core.RetryPolicy{Attempts: 1})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(results) != 1 || results[0].Err != nil {
			t.Fatalf("round %d results = %+v", round, results)
		}
	}
	if got := count.Load(); got != 3 {
		t.Fatalf("delivered %d times, want 3", got)
	}
}

func TestRelayUnknownPlantFallsBackToFull(t *testing.T) {
	fx := newRelayFixture(t)
	ctx := context.Background()

	var count atomic.Int32
	ref := fx.exportCounting(&count)
	tree := &core.TreeNode{Member: core.TreeMember{Index: 0, Action: ImportAction(fx.sender, ref)}}
	deliverer := ImportAction(fx.sender, ref).(core.SubtreeDeliverer)

	// Forge the sender-side planted record so the first send is a ref the
	// relay has never seen: the sender must replant and still deliver.
	me := cdr.NewEncoder(128)
	root, err := wireTree(tree)
	if err != nil {
		t.Fatal(err)
	}
	encodeRelayNode(me, root)
	markPlanted(orb.NewIOR(RelayTypeID, RelayKey, root.endpoints...).Endpoint(), plantIDOf(me.Bytes()))

	results, err := deliverer.DeliverSubtree(ctx, core.Signal{Name: "r", SetName: "s"}, tree, core.RetryPolicy{Attempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Err != nil {
		t.Fatalf("results = %+v", results)
	}
	if got := count.Load(); got != 1 {
		t.Fatalf("delivered %d times, want 1", got)
	}
}

func TestRelayReportsParticipantFailure(t *testing.T) {
	fx := newRelayFixture(t)
	ctx := context.Background()

	var good atomic.Int32
	okRef := fx.exportCounting(&good)
	badRef := ExportAction(fx.host, core.ActionFunc(func(context.Context, core.Signal) (core.Outcome, error) {
		return core.Outcome{}, errors.New("participant refused")
	}))
	badRef, _ = fx.host.IOR(badRef.Key)

	tree := &core.TreeNode{
		Member: core.TreeMember{Index: 0, Action: ImportAction(fx.sender, okRef)},
		Children: []*core.TreeNode{
			{Member: core.TreeMember{Index: 1, Action: ImportAction(fx.sender, badRef)}},
		},
	}
	deliverer := ImportAction(fx.sender, okRef).(core.SubtreeDeliverer)
	results, err := deliverer.DeliverSubtree(ctx, core.Signal{Name: "p", SetName: "s"}, tree, core.RetryPolicy{Attempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	byIndex := map[int]core.SubtreeResult{}
	for _, r := range results {
		byIndex[r.Index] = r
	}
	if r := byIndex[0]; r.Err != nil || r.Outcome.Name != "ack:p" {
		t.Fatalf("member 0 = %+v", r)
	}
	r := byIndex[1]
	if r.Err == nil || !strings.Contains(r.Err.Error(), "participant refused") {
		t.Fatalf("member 1 err = %v", r.Err)
	}
	if r.Attempts != 2 {
		t.Fatalf("member 1 attempts = %d, want 2 (retry exhausted at the relay)", r.Attempts)
	}
}

// TestRelayRefusesForgedPlantID sends a full batch claiming tree A's plant
// id but carrying tree B's membership. The relay must refuse it without
// planting anything; otherwise the first full batch for an id would win,
// and A's later reference rounds — commit included — would reach B's
// members instead.
func TestRelayRefusesForgedPlantID(t *testing.T) {
	host := orb.New()
	t.Cleanup(host.Shutdown)
	sender := orb.New()
	t.Cleanup(sender.Shutdown)
	relay := &relayServant{o: host, plants: make(map[string][]*core.TreeNode)}
	host.RegisterServantWithKey(RelayKey, RelayTypeID, relay)
	fx := &relayFixture{host: host, sender: sender}
	ctx := context.Background()

	// Tree A: a0 → {a1, a2}; tree B: b0 → {b1}.
	var countsA [3]atomic.Int32
	var countsB [2]atomic.Int32
	build := func(counts []atomic.Int32) *core.TreeNode {
		nodes := make([]*core.TreeNode, len(counts))
		for i := range counts {
			nodes[i] = &core.TreeNode{Member: core.TreeMember{Index: i, Action: ImportAction(sender, fx.exportCounting(&counts[i]))}}
		}
		nodes[0].Children = nodes[1:]
		return nodes[0]
	}
	treeA, treeB := build(countsA[:]), build(countsB[:])
	membership := func(tree *core.TreeNode) []byte {
		root, err := wireTree(tree)
		if err != nil {
			t.Fatal(err)
		}
		me := cdr.NewEncoder(128)
		encodeRelayNode(me, root)
		return me.Bytes()
	}
	memA, memB := membership(treeA), membership(treeB)

	e := cdr.NewEncoder(256)
	sig := core.Signal{Name: "commit", SetName: "2pc"}
	if err := encodeRelayBatch(e, sig, relayBatchFull, plantIDOf(memA), core.RetryPolicy{Attempts: 1}, memB); err != nil {
		t.Fatal(err)
	}
	relayRef := orb.NewIOR(RelayTypeID, RelayKey, host.Endpoints()...)
	if _, err := sender.Invoke(ctx, relayRef, relayOp, e.Bytes()); !orb.IsSystem(err, orb.CodeMarshal) {
		t.Errorf("forged full batch: err = %v, want MARSHAL", err)
	}
	relay.mu.Lock()
	planted := len(relay.plants)
	relay.mu.Unlock()
	if planted != 0 {
		t.Errorf("forged batch planted %d memberships, want 0", planted)
	}
	// Had the forged batch been accepted it would have delivered to B
	// itself; what matters below is where A's own rounds land.
	for i := range countsB {
		countsB[i].Store(0)
	}

	deliverer := treeA.Member.Action.(core.SubtreeDeliverer)
	for round := 1; round <= 3; round++ {
		if _, err := deliverer.DeliverSubtree(ctx, sig, treeA, core.RetryPolicy{Attempts: 1}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range countsB {
			if got := countsB[i].Load(); got != 0 {
				t.Fatalf("round %d: tree B member %d received %d signals meant for tree A", round, i, got)
			}
		}
	}
	for i := range countsA {
		if got := countsA[i].Load(); got != 3 {
			t.Fatalf("tree A member %d received %d signals, want 3", i, got)
		}
	}
}

// FuzzDecodeRelayBatch hardens the relay batch decoder against arbitrary
// frames: it must never panic, never allocate absurdly, and anything it
// accepts must re-encode and re-decode to the same header.
func FuzzDecodeRelayBatch(f *testing.F) {
	seed := func(sig core.Signal, kind byte, retry core.RetryPolicy, root *relayNode) {
		var membership []byte
		if root != nil {
			me := cdr.NewEncoder(128)
			encodeRelayNode(me, root)
			membership = me.Bytes()
		}
		e := cdr.NewEncoder(256)
		if err := encodeRelayBatch(e, sig, kind, plantIDOf(membership), retry, membership); err != nil {
			f.Fatal(err)
		}
		f.Add(cdr.Clone(e.Bytes()))
	}
	seed(core.Signal{Name: "prepare", SetName: "2pc"}, relayBatchFull, core.RetryPolicy{Attempts: 2}, sampleTree())
	seed(core.Signal{Name: "commit", SetName: "2pc", Data: "x"}, relayBatchRef, core.RetryPolicy{Attempts: 1, Backoff: time.Millisecond}, nil)
	seed(core.Signal{Name: "n", SetName: "s", Data: int64(-1)}, relayBatchFull, core.RetryPolicy{}, &relayNode{index: 0, key: "k", endpoints: []string{"inproc:x"}})
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00, 0x00, 0x01, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		var d cdr.Decoder
		d.Reset(data)
		b, err := decodeRelayBatch(&d)
		if err != nil {
			return
		}
		// Accepted batches must round-trip: re-encode the decoded view and
		// decode it again to the same header and span.
		var membership []byte
		if b.root != nil {
			me := cdr.NewEncoder(128)
			encodeRelayNode(me, b.root)
			membership = me.Bytes()
		}
		e := cdr.NewEncoder(256)
		if err := encodeRelayBatch(e, b.sig, b.kind, b.plantID, b.retry, membership); err != nil {
			t.Fatalf("re-encode accepted batch: %v", err)
		}
		var d2 cdr.Decoder
		d2.Reset(e.Bytes())
		b2, err := decodeRelayBatch(&d2)
		if err != nil {
			t.Fatalf("re-decode accepted batch: %v", err)
		}
		if b2.sig.Name != b.sig.Name || b2.kind != b.kind || b2.plantID != b.plantID || b2.retry != b.retry {
			t.Fatalf("round-trip mismatch: %+v vs %+v", b2, b)
		}
		if (b.root == nil) != (b2.root == nil) {
			t.Fatalf("round-trip membership mismatch")
		}
		if b.root != nil && len(b.root.span(nil)) != len(b2.root.span(nil)) {
			t.Fatalf("round-trip span mismatch")
		}
	})
}

// TestRelayPlantCacheTelemetry pins the plant-cache counters the "relay"
// metrics source reports: ref-batch rounds count hits, a forged unknown
// ref counts a miss, and overflow past the cap counts evictions — all
// visible through an orb-admin scrape over the ORB.
func TestRelayPlantCacheTelemetry(t *testing.T) {
	fx := newRelayFixture(t)
	ctx := context.Background()
	orb.ServeAdmin(fx.host)

	var count atomic.Int32
	ref := fx.exportCounting(&count)
	tree := &core.TreeNode{Member: core.TreeMember{Index: 0, Action: ImportAction(fx.sender, ref)}}
	deliverer := ImportAction(fx.sender, ref).(core.SubtreeDeliverer)

	// Round 1 plants; rounds 2 and 3 ride the plant id (2 hits).
	for round := 0; round < 3; round++ {
		if _, err := deliverer.DeliverSubtree(ctx, core.Signal{Name: "r", SetName: "s"}, tree, core.RetryPolicy{Attempts: 1}); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}

	admin := orb.NewAdminClient(fx.sender, orb.AdminAt(fx.host.Endpoints()...))
	relay := func(name string) int64 {
		t.Helper()
		ss, err := admin.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := ss.Get("relay."+name, "")
		if !ok {
			t.Fatalf("scrape has no relay.%s: %+v", name, ss)
		}
		return v
	}
	if got := relay("capacity"); got != relayPlantCacheCap {
		t.Fatalf("scrape capacity %d, want %d", got, relayPlantCacheCap)
	}
	if plants, hits, misses := relay("plants"), relay("hits"), relay("misses"); plants != 1 || hits != 2 || misses != 0 {
		t.Fatalf("after 3 rounds: plants=%d hits=%d misses=%d, want 1/2/0", plants, hits, misses)
	}

	// A forged sender-side plant record for a tree the relay has never
	// seen forces one unknown-ref miss (the sender replants and the
	// delivery still lands).
	var count2 atomic.Int32
	ref2 := fx.exportCounting(&count2)
	tree2 := &core.TreeNode{Member: core.TreeMember{Index: 0, Action: ImportAction(fx.sender, ref2)}}
	me := cdr.NewEncoder(128)
	root2, err := wireTree(tree2)
	if err != nil {
		t.Fatal(err)
	}
	encodeRelayNode(me, root2)
	markPlanted(orb.NewIOR(RelayTypeID, RelayKey, root2.endpoints...).Endpoint(), plantIDOf(me.Bytes()))
	if _, err := deliverer.DeliverSubtree(ctx, core.Signal{Name: "r2", SetName: "s"}, tree2, core.RetryPolicy{Attempts: 1}); err != nil {
		t.Fatal(err)
	}
	if misses := relay("misses"); misses != 1 {
		t.Fatalf("misses = %d after unknown ref, want 1", misses)
	}

	// Overflowing the cache counts evictions.
	s := &relayServant{o: fx.host, plants: make(map[string][]*core.TreeNode)}
	for i := 0; i < relayPlantCacheCap+5; i++ {
		s.plant(fmt.Sprintf("plant-%d", i), nil)
	}
	var local orb.Samples
	s.metrics(func(x orb.Sample) { local = append(local, x) })
	evictions, _ := local.Get("evictions", "")
	plants, _ := local.Get("plants", "")
	if evictions != 5 || plants != relayPlantCacheCap {
		t.Fatalf("evictions=%d plants=%d, want 5/%d", evictions, plants, relayPlantCacheCap)
	}

	// An ORB with no relay answers without relay samples, not an error.
	bare := orb.New()
	t.Cleanup(bare.Shutdown)
	orb.ServeAdmin(bare)
	ss, err := orb.NewAdminClient(fx.sender, orb.AdminAt(bare.Endpoints()...)).Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ss.Get("relay.capacity", ""); ok {
		t.Fatalf("bare ORB reports relay samples: %+v", ss)
	}
}
