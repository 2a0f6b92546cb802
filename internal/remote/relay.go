package remote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
)

// Relay servant identity. Every node that participates in tree-structured
// fan-out hosts exactly one relay servant under the well-known RelayKey, so
// a relay is addressable knowing only the node's endpoints — the same way
// CORBA's standard object keys make per-host services discoverable.
const (
	// RelayTypeID is the interface id of the relay servant.
	RelayTypeID = "IDL:ActivityService/Relay:1.0"
	// RelayKey is the well-known object key the relay servant registers
	// under on every relay-capable node.
	RelayKey = "relay"
	// relayOp is the relay servant's only operation: deliver a signal to a
	// subtree batch and aggregate the outcomes.
	relayOp = "relay_deliver"
)

// Relay batch kinds: the first octet after the signal encoding says whether
// the frame carries the subtree membership inline or refers to one the
// relay already planted.
const (
	// relayBatchFull carries the membership blob inline; the relay checks
	// that the blob hashes to the claimed plant id and caches it there.
	relayBatchFull byte = 1
	// relayBatchRef carries only the plant id of a previously planted
	// membership. A relay that does not know the plant (restarted, evicted)
	// raises unknown-plant and the sender falls back to a full batch.
	relayBatchRef byte = 2
)

// maxRelayDepth bounds membership-tree recursion against hostile frames.
const maxRelayDepth = 32

// relayPlantCacheCap bounds the number of memberships a relay keeps.
// Eviction is LRU: a plant is refreshed every time a reference batch hits
// it, so the plants a live protocol reuses each round stay resident and
// only abandoned memberships age out. The cap must cover a busy interior
// site's working set — with the default planner one site can relay every
// interior subtree of a large tree (fanout/branching plants, ~512 at
// fanout 4096) — so it is sized well above that; it only guards against
// unbounded growth from departed coordinators.
const relayPlantCacheCap = 1024

// unknownPlantDetail is the detail text of the unknown-plant exception;
// senders match it to distinguish "resend full membership" from real
// failures.
const unknownPlantDetail = "unknown relay plant"

// relayNode is the wire form of one subtree vertex: the member's
// registration index (preserved end-to-end so collation stays in
// registration order), the Action servant's key and endpoints, and the
// child subtrees this member relays to.
//
// Aliasing contract: decodeRelayNode returns a fully owned tree — every
// string is copied off the stream by ReadString and no field aliases the
// frame buffer — so decoded nodes may be retained freely (the plant cache
// depends on this).
type relayNode struct {
	index     int
	key       string
	endpoints []string
	children  []*relayNode
}

// encodeRelayNode writes one subtree in wire form.
func encodeRelayNode(e *cdr.Encoder, n *relayNode) {
	e.WriteUint32(uint32(n.index))
	e.WriteString(n.key)
	e.WriteStringList(n.endpoints)
	e.WriteUint32(uint32(len(n.children)))
	for _, c := range n.children {
		encodeRelayNode(e, c)
	}
}

// decodeRelayNode reads one subtree, guarding depth and child counts
// against hostile input. The returned tree is an owned copy — every string
// is copied off the stream, nothing aliases the frame buffer.
func decodeRelayNode(d *cdr.Decoder, depth int) (*relayNode, error) {
	if depth > maxRelayDepth {
		return nil, fmt.Errorf("remote: relay membership deeper than %d", maxRelayDepth)
	}
	n := &relayNode{}
	n.index = int(d.ReadUint32())
	n.key = d.ReadString()
	n.endpoints = d.ReadStringList()
	count := d.ReadUint32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	// Each child needs at least index+key+list+count on the wire; 8 bytes
	// is a safe floor that rejects absurd counts before allocating.
	if int(count) > d.Remaining()/8 {
		return nil, fmt.Errorf("remote: relay membership claims %d children with %d bytes left", count, d.Remaining())
	}
	for i := 0; i < int(count); i++ {
		c, err := decodeRelayNode(d, depth+1)
		if err != nil {
			return nil, err
		}
		n.children = append(n.children, c)
	}
	return n, nil
}

// relayBatch is a decoded relay_deliver request.
type relayBatch struct {
	sig     core.Signal
	kind    byte
	plantID string
	retry   core.RetryPolicy
	root    *relayNode // nil for relayBatchRef
}

// encodeRelayBatch writes one relay_deliver request body. The signal is
// encoded first, which puts Signal.Name in the body's first CDR string —
// the layout the chaos transport's Signal matcher relies on. membership is
// the standalone blob produced by encodeRelayNode at stream base; carrying
// it as an opaque octet sequence keeps its internal CDR alignment
// independent of where it lands in the outer frame, so its bytes — and
// therefore the plant id hashed from them — are stable across rounds.
func encodeRelayBatch(e *cdr.Encoder, sig core.Signal, kind byte, plantID string, retry core.RetryPolicy, membership []byte) error {
	if err := sig.Encode(e); err != nil {
		return err
	}
	e.WriteOctet(kind)
	e.WriteString(plantID)
	e.WriteUint32(uint32(retry.Attempts))
	e.WriteInt64(int64(retry.Backoff))
	if kind == relayBatchFull {
		e.WriteBytes(membership)
	}
	return nil
}

// decodeRelayBatch reads one relay_deliver request body. The returned
// batch owns all of its memory: the signal's strings are copies, the
// membership blob is re-decoded into an owned relayNode tree, and nothing
// aliases the frame buffer, so a batch may be retained past the dispatch
// that decoded it.
func decodeRelayBatch(d *cdr.Decoder) (relayBatch, error) {
	var b relayBatch
	sig, err := core.DecodeSignal(d)
	if err != nil {
		return relayBatch{}, err
	}
	b.sig = sig
	b.kind = d.ReadOctet()
	b.plantID = d.ReadString()
	b.retry.Attempts = int(d.ReadUint32())
	b.retry.Backoff = time.Duration(d.ReadInt64())
	if err := d.Err(); err != nil {
		return relayBatch{}, err
	}
	switch b.kind {
	case relayBatchRef:
		return b, nil
	case relayBatchFull:
	default:
		return relayBatch{}, fmt.Errorf("remote: relay batch kind %d", b.kind)
	}
	blob := d.ReadBytes() // lent; fully consumed by the nested decode below
	if err := d.Err(); err != nil {
		return relayBatch{}, err
	}
	if id := plantIDOf(blob); id != b.plantID {
		return relayBatch{}, fmt.Errorf("remote: relay batch claims plant %s for membership %s", b.plantID, id)
	}
	var md cdr.Decoder
	md.Reset(blob)
	root, err := decodeRelayNode(&md, 0)
	if err != nil {
		return relayBatch{}, err
	}
	// Only a canonical blob — no trailing bytes, no stray padding — is
	// accepted, so the tree re-encodes to the very bytes its id hashes.
	me := cdr.NewEncoder(len(blob))
	encodeRelayNode(me, root)
	if !bytes.Equal(me.Bytes(), blob) {
		return relayBatch{}, fmt.Errorf("remote: relay membership is not canonical (%d bytes, %d decoded)", len(blob), len(me.Bytes()))
	}
	b.root = root
	return b, nil
}

// relayResult is one member's outcome in a relay_deliver reply.
type relayResult struct {
	index    int
	attempts int
	outcome  core.Outcome
	errText  string // "" on success
}

// encodeRelayResults writes the aggregated reply.
func encodeRelayResults(e *cdr.Encoder, results []relayResult) error {
	e.WriteUint32(uint32(len(results)))
	for _, r := range results {
		e.WriteUint32(uint32(r.index))
		e.WriteUint32(uint32(r.attempts))
		if r.errText == "" {
			e.WriteOctet(1)
			if err := r.outcome.Encode(e); err != nil {
				return err
			}
			continue
		}
		e.WriteOctet(0)
		e.WriteString(r.errText)
	}
	return nil
}

// decodeRelayResults reads an aggregated reply. Owned, like every decode
// in this file.
func decodeRelayResults(d *cdr.Decoder) ([]relayResult, error) {
	count := d.ReadUint32()
	if err := d.Err(); err != nil {
		return nil, err
	}
	// index+attempts+status is 9 bytes minimum per entry.
	if int(count) > d.Remaining()/9+1 {
		return nil, fmt.Errorf("remote: relay reply claims %d results with %d bytes left", count, d.Remaining())
	}
	results := make([]relayResult, 0, count)
	for i := 0; i < int(count); i++ {
		var r relayResult
		r.index = int(d.ReadUint32())
		r.attempts = int(d.ReadUint32())
		ok := d.ReadOctet()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if ok != 0 {
			out, err := core.DecodeOutcome(d)
			if err != nil {
				return nil, err
			}
			r.outcome = out
		} else {
			r.errText = d.ReadString()
			if err := d.Err(); err != nil {
				return nil, err
			}
		}
		results = append(results, r)
	}
	return results, nil
}

// plantIDOf derives the plant id: the SHA-256 of the membership blob, so
// identical plans hash to identical ids no matter which coordinator sent
// them.
func plantIDOf(membership []byte) string {
	sum := sha256.Sum256(membership)
	return hex.EncodeToString(sum[:])
}

// relayServant hosts the relay_deliver operation: it runs core's fan-out
// engine over its span — its own member and each child subtree, child
// relays receiving sub-batches — and aggregates every member's outcome into
// one reply. It also keeps the plant cache that makes coordinator traffic
// sub-linear: a membership arrives once (full batch) and every later round
// references it by plant id.
type relayServant struct {
	o *orb.ORB

	// Plant-cache telemetry, the "relay" metrics source, so operators
	// can size relayPlantCacheCap: sustained
	// evictions paired with ref-batch misses mean live trees are being
	// pushed out and re-planted every round.
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64

	mu     sync.Mutex
	plants map[string][]*core.TreeNode // plant id → delivery forest
	order  []string                    // LRU order, most recently used last
}

// ServeRelay activates the relay servant on o under RelayKey and returns
// its reference. Call it once per ORB that should act as an interior node
// of relay trees. The servant also registers its plant-cache telemetry as
// o's "relay" metrics source.
func ServeRelay(o *orb.ORB) orb.IOR {
	s := &relayServant{
		o:      o,
		plants: make(map[string][]*core.TreeNode),
	}
	o.SetMetrics("relay", s.metrics)
	return o.RegisterServantWithKey(RelayKey, RelayTypeID, s)
}

// metrics emits the plant-cache telemetry.
func (s *relayServant) metrics(emit func(orb.Sample)) {
	s.mu.Lock()
	n := len(s.plants)
	s.mu.Unlock()
	emit(orb.Sample{Name: "plants", Value: int64(n)})
	emit(orb.Sample{Name: "capacity", Value: relayPlantCacheCap})
	emit(orb.Sample{Name: "hits", Value: int64(s.hits.Load())})
	emit(orb.Sample{Name: "misses", Value: int64(s.misses.Load())})
	emit(orb.Sample{Name: "evictions", Value: int64(s.evictions.Load())})
}

// plant stores a membership's delivery forest under its id, evicting
// least-recently-used plants past the cap.
func (s *relayServant) plant(id string, forest []*core.TreeNode) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.plants[id]; ok {
		s.touch(id)
		return
	}
	for len(s.plants) >= relayPlantCacheCap {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.plants, oldest)
		s.evictions.Add(1)
	}
	s.plants[id] = forest
	s.order = append(s.order, id)
}

// lookup returns a planted forest, refreshing its LRU position and
// counting the hit or miss.
func (s *relayServant) lookup(id string) ([]*core.TreeNode, bool) {
	s.mu.Lock()
	forest, ok := s.plants[id]
	if ok {
		s.touch(id)
	}
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return forest, ok
}

// touch moves id to the most-recently-used end of the eviction order.
// Callers hold s.mu.
func (s *relayServant) touch(id string) {
	for i, v := range s.order {
		if v == id {
			s.order = append(append(s.order[:i], s.order[i+1:]...), id)
			return
		}
	}
}

// Dispatch implements orb.Servant.
func (s *relayServant) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	if op != relayOp {
		return nil, orb.Systemf(orb.CodeBadOperation, "Relay has no operation %q", op)
	}
	batch, err := decodeRelayBatch(in)
	if err != nil {
		return nil, orb.Systemf(orb.CodeMarshal, "relay_deliver: %v", err)
	}
	var forest []*core.TreeNode
	if batch.kind == relayBatchRef {
		var ok bool
		if forest, ok = s.lookup(batch.plantID); !ok {
			return nil, orb.Systemf(orb.CodeObjectNotExist, "%s %s", unknownPlantDetail, batch.plantID)
		}
	} else {
		forest = s.forestOf(batch.root)
		s.plant(batch.plantID, forest)
	}
	delivered := core.DeliverForest(ctx, batch.sig, forest, batch.retry)
	results := make([]relayResult, len(delivered))
	for i, r := range delivered {
		results[i] = relayResult{index: r.Index, attempts: r.Attempts, outcome: r.Outcome}
		if r.Err != nil {
			results[i].errText = errText(r.Err)
		}
	}
	e := cdr.NewEncoder(64 * len(results))
	if err := encodeRelayResults(e, results); err != nil {
		return nil, orb.Systemf(orb.CodeMarshal, "encode relay results: %v", err)
	}
	return e.Bytes(), nil
}

// forestOf builds, once per planted membership, the forest this relay
// delivers every round: its own member as a childless root, delivered
// directly, then each child subtree. A child with children of its own is a
// relayChild, so the engine forwards its span as one sub-batch. Every
// member's Action proxy is minted here and reused by later rounds.
func (s *relayServant) forestOf(root *relayNode) []*core.TreeNode {
	forest := []*core.TreeNode{{Member: s.member(root)}}
	for _, c := range root.children {
		node := s.subtree(c)
		if len(c.children) > 0 {
			me := cdr.NewEncoder(256)
			encodeRelayNode(me, c)
			node.Member.Action = &relayChild{
				remoteAction: node.Member.Action.(*remoteAction),
				relay:        orb.NewIOR(RelayTypeID, RelayKey, c.endpoints...),
				membership:   me.Bytes(),
				plantID:      plantIDOf(me.Bytes()),
			}
		}
		forest = append(forest, node)
	}
	return forest
}

// subtree converts a wire subtree into engine nodes with member proxies.
func (s *relayServant) subtree(n *relayNode) *core.TreeNode {
	node := &core.TreeNode{Member: s.member(n)}
	for _, c := range n.children {
		node.Children = append(node.Children, s.subtree(c))
	}
	return node
}

// member is the tree member for one wire node: its registration index and
// a proxy for its Action servant.
func (s *relayServant) member(n *relayNode) core.TreeMember {
	ref := orb.NewIOR(ActionTypeID, n.key, n.endpoints...)
	return core.TreeMember{Index: n.index, Action: &remoteAction{orb: s.o, ref: ref}}
}

// relayChild is a relay's cached proxy for a child that relays further: it
// delivers to the child's Action directly when the engine re-adopts it,
// and forwards the child's span to the child's relay servant with the
// membership encoded once, at plant time.
type relayChild struct {
	*remoteAction
	relay      orb.IOR
	membership []byte
	plantID    string
}

// DeliverSubtree implements core.SubtreeDeliverer. The engine only hands
// it the subtree it was planted for, so the cached membership stands in
// for node.
func (c *relayChild) DeliverSubtree(ctx context.Context, sig core.Signal, _ *core.TreeNode, retry core.RetryPolicy) ([]core.SubtreeResult, error) {
	return sendRelayBatch(ctx, c.orb, c.relay, sig, retry, c.membership, c.plantID)
}

// relayError is a member's delivery failure as a relay reported it. Its
// text crosses further relay hops unchanged, so the coordinator sees the
// failure worded as the member's own relay worded it.
type relayError string

// Error implements error.
func (e relayError) Error() string { return "remote: relay delivery: " + string(e) }

// errText renders a member's delivery failure for a relay reply. It is
// never empty, since an empty text reads as success; a failure a child
// relay reported crosses this hop unchanged.
func errText(err error) string {
	if re, ok := err.(relayError); ok && re != "" {
		return string(re)
	}
	if s := err.Error(); s != "" {
		return s
	}
	return "delivery failed"
}

// relayAddressable is implemented by Action proxies that can be described
// to a relay on the wire: the servant key and endpoint list of the remote
// Action. Only trees whose every member is addressable can be delivered as
// batches; anything else falls back to direct delivery via the
// coordinator's re-adoption path.
type relayAddressable interface {
	relayAddress() (key string, endpoints []string)
}

// relayAddress implements relayAddressable for the Action proxy.
func (r *remoteAction) relayAddress() (string, []string) {
	endpoints := make([]string, len(r.ref.Profiles))
	for i, p := range r.ref.Profiles {
		endpoints[i] = p.Endpoint
	}
	return r.ref.Key, endpoints
}

// RelayInfo implements core.SubtreeDeliverer: the proxy's node identity is
// its primary endpoint, and its RTT is the client ORB's live EWMA for that
// endpoint (zero until measured, which the planner treats as nearest).
func (r *remoteAction) RelayInfo() core.RelayInfo {
	ep := r.ref.Endpoint()
	return core.RelayInfo{Node: ep, RTT: r.orb.EndpointRTT(ep)}
}

// planted tracks which (relay endpoint, plant id) pairs this process has
// already delivered a full membership for, so later rounds can send the
// plant id alone. It is advisory: a relay that restarted or evicted the
// plant raises unknown-plant and the sender falls back to a full batch
// (and the entry is simply re-confirmed).
var (
	plantedMu sync.Mutex
	planted   = make(map[string]struct{})
)

// plantedKey keys the planted map by the relay's primary endpoint and the
// plant id.
func plantedKey(endpoint, plantID string) string {
	return endpoint + "\x00" + plantID
}

// wasPlanted reports whether a full membership was already sent.
func wasPlanted(endpoint, plantID string) bool {
	plantedMu.Lock()
	defer plantedMu.Unlock()
	_, ok := planted[plantedKey(endpoint, plantID)]
	return ok
}

// markPlanted records a successfully delivered full membership.
func markPlanted(endpoint, plantID string) {
	plantedMu.Lock()
	defer plantedMu.Unlock()
	if len(planted) >= 4096 { // advisory cache; reset rather than grow forever
		planted = make(map[string]struct{})
	}
	planted[plantedKey(endpoint, plantID)] = struct{}{}
}

// isUnknownPlant reports whether err is the relay's unknown-plant
// exception, the signal to resend the full membership.
func isUnknownPlant(err error) bool {
	return orb.IsSystem(err, orb.CodeObjectNotExist) && strings.Contains(err.Error(), unknownPlantDetail)
}

// DeliverSubtree implements core.SubtreeDeliverer: it ships the subtree
// rooted at this proxy to the member's relay servant as one batch and
// returns the aggregated per-member results. After the first round the
// membership travels as a plant-id reference — a constant-size frame — so
// the coordinator's bytes per round stay O(roots), not O(fanout).
func (r *remoteAction) DeliverSubtree(ctx context.Context, sig core.Signal, node *core.TreeNode, retry core.RetryPolicy) ([]core.SubtreeResult, error) {
	root, err := wireTree(node)
	if err != nil {
		return nil, err
	}
	me := cdr.NewEncoder(256)
	encodeRelayNode(me, root)
	membership := me.Bytes()
	target := orb.NewIOR(RelayTypeID, RelayKey, root.endpoints...)
	return sendRelayBatch(ctx, r.orb, target, sig, retry, membership, plantIDOf(membership))
}

// sendRelayBatch delivers sig and the membership to the relay at target
// and returns its per-member results. The batch travels as a constant-size
// plant-id reference when this process already planted the membership
// there, falling back to a full (re)plant when the relay does not know the
// id (restarted, evicted). Both coordinator-to-root and relay-to-relay hops
// go through here, so every edge of the tree pays the full membership once
// and a reference thereafter.
func sendRelayBatch(ctx context.Context, o *orb.ORB, target orb.IOR, sig core.Signal, retry core.RetryPolicy, membership []byte, plantID string) ([]core.SubtreeResult, error) {
	endpoint := target.Endpoint()
	invoke := func(kind byte) ([]byte, error) {
		e := cdr.NewEncoder(len(membership) + 128)
		if err := encodeRelayBatch(e, sig, kind, plantID, retry, membership); err != nil {
			return nil, fmt.Errorf("remote: encode relay batch: %w", err)
		}
		return o.Invoke(ctx, target, relayOp, e.Bytes())
	}
	kind := relayBatchFull
	if wasPlanted(endpoint, plantID) {
		kind = relayBatchRef
	}
	body, err := invoke(kind)
	if err != nil && kind == relayBatchRef && isUnknownPlant(err) {
		body, err = invoke(relayBatchFull)
	}
	if err != nil {
		return nil, fmt.Errorf("remote: relay_deliver on %s: %w", endpoint, err)
	}
	markPlanted(endpoint, plantID)

	raw, err := decodeRelayResults(cdr.NewDecoder(body))
	if err != nil {
		return nil, fmt.Errorf("remote: decode relay results: %w", err)
	}
	results := make([]core.SubtreeResult, len(raw))
	for i, rr := range raw {
		results[i] = core.SubtreeResult{Index: rr.index, Attempts: rr.attempts, Outcome: rr.outcome}
		if rr.errText != "" {
			results[i].Err = relayError(rr.errText)
		}
	}
	return results, nil
}

// wireTree converts a planner tree into wire form, requiring every member
// to be a relay-addressable proxy. A member that is not (a local action, a
// wrapped proxy) fails the whole subtree, which the coordinator then
// re-adopts and delivers directly — correct, just flat.
func wireTree(node *core.TreeNode) (*relayNode, error) {
	ra, ok := node.Member.Action.(relayAddressable)
	if !ok {
		return nil, fmt.Errorf("remote: member %q (index %d) is not relay-addressable", node.Member.Label, node.Member.Index)
	}
	key, endpoints := ra.relayAddress()
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("remote: member %q (index %d) has no endpoints", node.Member.Label, node.Member.Index)
	}
	n := &relayNode{index: node.Member.Index, key: key, endpoints: endpoints}
	for _, c := range node.Children {
		cn, err := wireTree(c)
		if err != nil {
			return nil, err
		}
		n.children = append(n.children, cn)
	}
	return n, nil
}
