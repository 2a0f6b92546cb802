package remote

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/ots"
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
// the frame carries a subtree membership inline, refers to one the relay
// already planted, or names a same-host run of a serial broadcast by its
// servants' keys.
const (
	// relayBatchFull carries the membership blob inline; the relay checks
	// that the blob hashes to the claimed plant id and caches it there.
	relayBatchFull byte = 1
	// relayBatchRef carries only the plant id of a previously planted
	// membership. A relay that does not know the plant (restarted, evicted)
	// raises unknown-plant and the sender falls back to a full batch.
	relayBatchRef byte = 2
	// relayBatchKeys and relayBatchResources are the keyed kind's
	// predecessors, which a coordinator one release old still sends: the
	// keys alone, and the keys then a bool that stops the run at
	// ots.OutcomeAbort. The relay serves both as keyed batches; nothing
	// here sends them.
	relayBatchKeys      byte = 3
	relayBatchResources byte = 4
	// relayBatchKeyed carries the servant keys of a same-host run of a
	// serial broadcast (core.EndpointBatcher), in run order, then the
	// outcome the run stops at, "" for none: no endpoints, no plant id,
	// never planted, since a per-activity membership is never reused. The
	// relay delivers the run itself, in order, and refuses the batch if it
	// serves neither an Action nor a resource under one of the keys.
	relayBatchKeyed byte = 5
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
	// Each child needs at least index+key+list+count on the wire; 8 bytes
	// is a safe floor that rejects absurd counts before allocating.
	count := d.ReadCount(8)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("remote: relay membership children: %w", err)
	}
	for i := 0; i < count; i++ {
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
	root    *relayNode // relayBatchFull only
	keys    []string   // keyed kinds only
	stop    string     // keyed kinds only: the outcome the run stops at, "" for none
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
	if kind != relayBatchRef {
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
	case relayBatchFull, relayBatchKeys, relayBatchResources, relayBatchKeyed:
	default:
		return relayBatch{}, fmt.Errorf("remote: relay batch kind %d", b.kind)
	}
	blob := d.ReadBytes() // lent; fully consumed by the nested decode below
	if err := d.Err(); err != nil {
		return relayBatch{}, err
	}
	if b.kind != relayBatchFull {
		return decodeRelayKeys(b, blob)
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

// keyedBlob is the membership blob of a keyed batch of kind: the run's
// servant keys, in run order, then its stop outcome as kind carries it —
// a string in a keyed batch, a bool meaning ots.OutcomeAbort in a
// relayBatchResources one, nothing in a relayBatchKeys one.
func keyedBlob(kind byte, keys []string, stop string) []byte {
	n := 12 + len(stop) // the key count, then stop's length, nul and padding
	for _, k := range keys {
		n += 8 + len(k)
	}
	e := cdr.NewEncoder(n)
	e.WriteStringList(keys)
	switch kind {
	case relayBatchKeyed:
		e.WriteString(stop)
	case relayBatchResources:
		e.WriteBool(stop != "")
	}
	return e.Bytes()
}

// decodeRelayKeys completes b, a batch of a keyed kind, from its membership
// blob. Like a full batch's, the blob must be canonical; it must also name
// at least one key, and the batch no plant. The keys are owned copies.
func decodeRelayKeys(b relayBatch, blob []byte) (relayBatch, error) {
	if b.plantID != "" {
		return relayBatch{}, fmt.Errorf("remote: endpoint batch names plant %q", b.plantID)
	}
	var md cdr.Decoder
	md.Reset(blob)
	b.keys = md.ReadStringList()
	switch b.kind {
	case relayBatchKeyed:
		b.stop = md.ReadString()
	case relayBatchResources:
		if md.ReadBool() {
			b.stop = ots.OutcomeAbort
		}
	}
	if err := md.Err(); err != nil {
		return relayBatch{}, fmt.Errorf("remote: endpoint batch keys: %w", err)
	}
	if len(b.keys) == 0 {
		return relayBatch{}, fmt.Errorf("remote: endpoint batch names no member")
	}
	if !bytes.Equal(keyedBlob(b.kind, b.keys, b.stop), blob) {
		return relayBatch{}, fmt.Errorf("remote: endpoint batch keys are not canonical (%d bytes)", len(blob))
	}
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

// encodeRelayReply is the body of a relay_deliver reply: one result per
// delivered member, each failure worded by errText.
func encodeRelayReply(delivered []core.SubtreeResult) ([]byte, error) {
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

// decodeRelayResults reads an aggregated reply. Owned, like every decode
// in this file.
func decodeRelayResults(d *cdr.Decoder) ([]relayResult, error) {
	// index+attempts+status is 9 bytes minimum per entry.
	count := d.ReadCount(9)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("remote: relay reply results: %w", err)
	}
	results := make([]relayResult, 0, count)
	for i := 0; i < count; i++ {
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
// references it by plant id. A keyed batch bypasses both: the servant
// delivers it to this ORB's own servants in order (deliverKeyed).
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

// relayInstallMu serialises ServeRelay, so concurrent first exports on one
// ORB install one relay servant.
var relayInstallMu sync.Mutex

// ServeRelay activates the relay servant on o under RelayKey and returns
// its reference. The servant also registers its plant-cache telemetry as
// o's "relay" metrics source. ExportAction calls it on first use; a later
// call returns the servant already active, plant cache and metrics intact.
func ServeRelay(o *orb.ORB) orb.IOR {
	relayInstallMu.Lock()
	defer relayInstallMu.Unlock()
	if sv, _ := o.Servant(RelayKey); sv != nil {
		if _, ok := sv.(*relayServant); ok {
			ref, _ := o.IOR(RelayKey)
			return ref
		}
	}
	s := &relayServant{
		o:      o,
		plants: make(map[string][]*core.TreeNode),
	}
	o.SetMetrics("relay", s.metrics)
	return o.RegisterServantWithKey(RelayKey, RelayTypeID, s)
}

// installRelay serves a relay on o unless a servant already holds
// RelayKey: the per-export check costs one map lookup.
func installRelay(o *orb.ORB) {
	if _, ok := o.Servant(RelayKey); !ok {
		ServeRelay(o)
	}
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
	if batch.keys != nil {
		return s.deliverKeyed(ctx, batch)
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
	return encodeRelayReply(core.DeliverForest(ctx, batch.sig, forest, batch.retry))
}

// deliverKeyed serves a batch of a keyed kind. Its members are all Actions
// or all resources, as a kind-3 or kind-4 frame names them, and as the
// first key's servant names them in a keyed one. It resolves every key to
// a servant of that type this ORB serves, refusing the batch before
// delivering anything if one is not, then delivers the run in order
// through the servants (core.DeliverRun), so a member never runs two
// signals at once, and stops after the first member that answers b.stop
// or fails. A resource member runs the operation the signal names, which
// must be prepare, commit or rollback, and a prepare runs once. A
// member's failure is worded as its direct call would have reported it.
func (s *relayServant) deliverKeyed(ctx context.Context, b relayBatch) ([]byte, error) {
	run := make([]core.Action, len(b.keys))
	resources := b.kind == relayBatchResources
	for i, key := range b.keys {
		sv, _ := s.o.Servant(key)
		if i == 0 && b.kind == relayBatchKeyed {
			_, resources = sv.(*resourceServant)
		}
		switch m := sv.(type) {
		case *actionServant:
			if !resources {
				run[i] = m
			}
		case *resourceServant:
			if resources {
				run[i] = resourceMember{m}
			}
		}
		switch {
		case run[i] != nil:
		case resources:
			return nil, orb.Systemf(orb.CodeObjectNotExist, "relay serves no resource %q", key)
		default:
			return nil, orb.Systemf(orb.CodeObjectNotExist, "relay serves no action %q", key)
		}
	}
	retry := b.retry
	if resources {
		switch b.sig.Name {
		case ots.SignalPrepare:
			retry.Attempts = 1
		case ots.SignalCommit, ots.SignalRollback:
		default:
			return nil, orb.Systemf(orb.CodeBadOperation, "relay runs no resource operation %q", b.sig.Name)
		}
	}
	delivered := core.DeliverRun(ctx, b.sig, run, b.stop, retry)
	for i, r := range delivered {
		if !resources && r.Err != nil {
			delivered[i].Err = processSignalError(b.keys[i], r.Err)
		}
	}
	return encodeRelayReply(delivered)
}

// resourceMember is a resource servant as a keyed batch runs it: the
// operation named by the signal, its reply body the outcome's data. A
// prepare that votes neither commit nor read-only answers
// ots.OutcomeAbort, where a stopping batch stops.
type resourceMember struct{ *resourceServant }

// ProcessSignal implements core.Action.
func (m resourceMember) ProcessSignal(_ context.Context, sig core.Signal) (core.Outcome, error) {
	body, err := m.call(sig.Name)
	if err != nil {
		return core.Outcome{}, err
	}
	out := core.Outcome{Data: body}
	if sig.Name == ots.SignalPrepare {
		if vote, err := decodeVote(body); err != nil || vote != ots.VoteCommit && vote != ots.VoteReadOnly {
			out.Name = ots.OutcomeAbort
		}
	}
	return out, nil
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
	kind := relayBatchFull
	if wasPlanted(endpoint, plantID) {
		kind = relayBatchRef
	}
	body, err := invokeRelay(ctx, o, target, sig, kind, plantID, retry, membership)
	if err != nil && kind == relayBatchRef && isUnknownPlant(err) {
		body, err = invokeRelay(ctx, o, target, sig, relayBatchFull, plantID, retry, membership)
	}
	if err != nil {
		return nil, err
	}
	markPlanted(endpoint, plantID)
	return decodeRelayReply(body, func(text string) error { return relayError(text) })
}

// invokeRelay encodes one relay_deliver request and invokes it on the
// relay servant at target, returning the reply body.
func invokeRelay(ctx context.Context, o *orb.ORB, target orb.IOR, sig core.Signal, kind byte, plantID string, retry core.RetryPolicy, membership []byte) ([]byte, error) {
	e := cdr.NewEncoder(len(membership) + 128)
	if err := encodeRelayBatch(e, sig, kind, plantID, retry, membership); err != nil {
		return nil, fmt.Errorf("remote: encode relay batch: %w", err)
	}
	body, err := o.Invoke(ctx, target, relayOp, e.Bytes())
	if err != nil {
		return nil, fmt.Errorf("remote: relay_deliver on %s: %w", target.Endpoint(), err)
	}
	return body, nil
}

// decodeRelayReply reads a relay_deliver reply into owned per-member
// results, turning each failure's text into an error with wrap.
func decodeRelayReply(body []byte, wrap func(text string) error) ([]core.SubtreeResult, error) {
	raw, err := decodeRelayResults(cdr.NewDecoder(body))
	if err != nil {
		return nil, fmt.Errorf("remote: decode relay results: %w", err)
	}
	results := make([]core.SubtreeResult, len(raw))
	for i, rr := range raw {
		results[i] = core.SubtreeResult{Index: rr.index, Attempts: rr.attempts, Outcome: rr.outcome}
		if rr.errText != "" {
			results[i].Err = wrap(rr.errText)
		}
	}
	return results, nil
}

// BatchEndpoint implements core.EndpointBatcher: the proxy's primary
// endpoint.
func (r *remoteAction) BatchEndpoint() string { return r.ref.Endpoint() }

// DeliverBatch implements core.EndpointBatcher: it sends the run's keys and
// stop outcome to the relay servant on this proxy's endpoints as one keyed
// batch. Every member of run must be an Action proxy.
func (r *remoteAction) DeliverBatch(ctx context.Context, sig core.Signal, run []core.Action, stop string, retry core.RetryPolicy) ([]core.SubtreeResult, error) {
	keys := make([]string, len(run))
	for i, a := range run {
		ra, ok := a.(*remoteAction)
		if !ok {
			return nil, fmt.Errorf("remote: endpoint batch member %d is not an Action proxy", i)
		}
		keys[i] = ra.ref.Key
	}
	return sendKeyed(ctx, r.orb, orb.NewIOR(RelayTypeID, RelayKey, r.ref.Endpoints()...), sig, keys, stop, retry)
}

// sendKeyed has the relay at target deliver sig to the run of its servants
// under keys as one keyed batch, stopping at stop, and returns one result
// per member it delivered to, each failure worded as the host worded it:
// as the member's direct call reads.
func sendKeyed(ctx context.Context, o *orb.ORB, target orb.IOR, sig core.Signal, keys []string, stop string, retry core.RetryPolicy) ([]core.SubtreeResult, error) {
	body, err := invokeRelay(ctx, o, target, sig, relayBatchKeyed, "", retry, keyedBlob(relayBatchKeyed, keys, stop))
	if err != nil {
		return nil, err
	}
	return decodeRelayReply(body, errors.New)
}

// wireTree converts a planner tree into wire form, requiring every member
// to be an Action proxy, which the relay reaches by key and endpoints. A
// member that is not (a local action, a wrapped proxy) fails the whole
// subtree, which the coordinator then re-adopts and delivers directly —
// correct, just flat.
func wireTree(node *core.TreeNode) (*relayNode, error) {
	ra, ok := node.Member.Action.(*remoteAction)
	if !ok {
		return nil, fmt.Errorf("remote: member %q (index %d) is not an Action proxy", node.Member.Label, node.Member.Index)
	}
	endpoints := ra.ref.Endpoints()
	if len(endpoints) == 0 {
		return nil, fmt.Errorf("remote: member %q (index %d) has no endpoints", node.Member.Label, node.Member.Index)
	}
	n := &relayNode{index: node.Member.Index, key: ra.ref.Key, endpoints: endpoints}
	for _, c := range node.Children {
		cn, err := wireTree(c)
		if err != nil {
			return nil, err
		}
		n.children = append(n.children, cn)
	}
	return n, nil
}
