package core

import (
	"cmp"
	"context"
	"slices"
	"strings"
	"time"
)

// DefaultBranching is the relay-tree fan-out used when a tree
// DeliveryPolicy does not set one.
const DefaultBranching = 4

// RelayInfo is the network identity a relay-capable Action reports for
// tree planning: where it lives and how far away it looks.
type RelayInfo struct {
	// Node is the action's primary endpoint ("tcp:host:port" or
	// "inproc:id"). Actions on the same node cluster into the same
	// subtrees.
	Node string
	// RTT is the measured round-trip estimate to the node, zero when
	// unknown. The planner places low-RTT nodes near the root.
	RTT time.Duration
}

// TreeMember is one participant of a relay tree: its position in
// registration order (which collation preserves), its trace label, its
// relay identity, and the registered Action itself so deliverers can
// resolve references and the coordinator can redeliver directly.
type TreeMember struct {
	// Index is the participant's position in registration order.
	Index int
	// Label is the registration's trace label. Only relay-capable members
	// of a tree-mode broadcast carry it; others leave it empty.
	Label string
	// Node is the participant's primary endpoint (RelayInfo.Node).
	Node string
	// RTT is the measured round-trip estimate (RelayInfo.RTT).
	RTT time.Duration
	// Action is the registered action.
	Action Action
}

// TreeNode is one vertex of a relay tree: the member that relays for the
// subtree, and the child subtrees it forwards to.
type TreeNode struct {
	// Member is the participant acting as this subtree's relay.
	Member TreeMember
	// Children are the subtrees this node forwards to.
	Children []*TreeNode
}

// Span returns the number of members in the subtree rooted at n.
func (n *TreeNode) Span() int {
	total := 1
	for _, c := range n.Children {
		total += c.Span()
	}
	return total
}

// preorder appends every node of the subtree rooted at n to dst, in
// preorder.
func (n *TreeNode) preorder(dst []*TreeNode) []*TreeNode {
	dst = append(dst, n)
	for _, c := range n.Children {
		dst = c.preorder(dst)
	}
	return dst
}

// rttClass quantizes an RTT estimate into a doubling bucket: 0 for ≤500µs
// (or unknown), then one class per doubling. Stable under measurement
// noise, still separating near from far.
func rttClass(rtt time.Duration) int {
	class := 0
	for bound := 500 * time.Microsecond; rtt > bound; bound *= 2 {
		class++
	}
	return class
}

// planTree is the relay-tree planner: a deterministic greedy k-nearest
// construction over the members' measured RTTs. Members are ordered by
// (RTT class, Node, Index) — no randomness, so the same inputs always
// produce the same tree, which the differential harness and the relay
// plant cache both depend on. The k lowest-latency members become roots;
// the rest split into one even, contiguous run per root, and each run is
// laid out under its root as a k-ary heap: the root adopts the run's first
// k members and run member j adopts members k(j+1) … k(j+2)-1. Low-RTT
// relays therefore sit near the coordinator, where they are traversed on
// every path; members of the same latency class on the same node
// (usually: the same site) cluster into the same subtree; and every root
// relays once there are more members than roots, since a childless root is
// delivered directly.
//
// RTTs are quantized into doubling latency classes (≤500µs, ≤1ms, ≤2ms, …)
// rather than compared raw: live EWMA estimates jitter between rounds, and
// a plan that reshuffled on every µs of noise would defeat the relay plant
// cache that makes repeated rounds cheap. Within a class the node string
// breaks ties, so co-located members stay adjacent.
//
// planTree reorders nodes in place, links their Children, and returns the
// at most branching roots. Roots and children are capacity-capped views of
// nodes, so appending to one copies instead of overwriting its neighbours.
func planTree(nodes []*TreeNode, branching int) []*TreeNode {
	slices.SortFunc(nodes, func(a, b *TreeNode) int {
		return cmp.Or(
			cmp.Compare(rttClass(a.Member.RTT), rttClass(b.Member.RTT)),
			strings.Compare(a.Member.Node, b.Member.Node),
			cmp.Compare(a.Member.Index, b.Member.Index))
	})
	k := min(branching, len(nodes))
	roots, rest := nodes[:k:k], nodes[k:]
	for i, root := range roots {
		run := rest[i*len(rest)/k : (i+1)*len(rest)/k]
		root.Children = capped(run, 0, branching)
		for j, n := range run {
			n.Children = capped(run, branching*(j+1), branching)
		}
	}
	return roots
}

// capped returns at most n nodes of run from index lo on, capacity-capped;
// nil when lo is past the end.
func capped(run []*TreeNode, lo, n int) []*TreeNode {
	if lo >= len(run) {
		return nil
	}
	hi := min(lo+n, len(run))
	return run[lo:hi:hi]
}

// forestFor lays one concurrent broadcast out as a forest over regs. In
// tree mode the relay-capable registrations are planned into relay
// subtrees, which lead the forest so their batches start first; every other
// registration — all of them in parallel mode — is a childless root,
// delivered directly.
func forestFor(regs []registration, policy DeliveryPolicy) []*TreeNode {
	nodes := make([]TreeNode, len(regs))
	direct := make([]*TreeNode, 0, len(regs))
	var relays []*TreeNode
	for i, reg := range regs {
		n := &nodes[i]
		n.Member = TreeMember{Index: i, Action: reg.action}
		if sd, ok := reg.action.(SubtreeDeliverer); ok && policy.Mode == DeliverTree {
			info := sd.RelayInfo()
			n.Member.Label, n.Member.Node, n.Member.RTT = reg.name(), info.Node, info.RTT
			relays = append(relays, n)
		} else {
			direct = append(direct, n)
		}
	}
	if len(relays) == 0 {
		return direct
	}
	branching := policy.Branching
	if branching <= 0 {
		branching = DefaultBranching
	}
	return append(planTree(relays, branching), direct...)
}

// SubtreeResult is one member's outcome reported up the relay tree,
// preserving the participant's registration identity so collation stays
// byte-identical to direct delivery.
type SubtreeResult struct {
	// Index is the member's registration index (TreeMember.Index).
	Index int
	// Attempts is how many at-least-once delivery attempts the relay made.
	Attempts int
	// Outcome is the action's response when Err is nil.
	Outcome Outcome
	// Err is the delivery failure after the relay exhausted its attempts.
	Err error
}

// SubtreeDeliverer is the optional interface of relay-capable Actions: a
// proxy whose host can accept a whole subtree batch, deliver the signal to
// its own span, forward to child relays and aggregate the outcomes. Tree
// delivery only routes batches through actions implementing it; everything
// else, and a subtree root with no children, is delivered directly.
type SubtreeDeliverer interface {
	// RelayInfo reports the action's node identity for tree planning.
	RelayInfo() RelayInfo
	// DeliverSubtree delivers sig to every member of the subtree rooted at
	// node, applying retry per member, and returns one result per member.
	// An error (or a member missing from the results) means that part of
	// the subtree was not delivered; the caller re-adopts it and
	// redelivers directly, so subtree delivery — like all delivery — is at
	// least once and actions must stay idempotent.
	DeliverSubtree(ctx context.Context, sig Signal, node *TreeNode, retry RetryPolicy) ([]SubtreeResult, error)
}

// DeliverForest delivers sig over a forest of relay subtrees with the
// engine a tree-mode broadcast runs: every root concurrently, a childless
// root directly through retry's at-least-once loop, a root with children
// as one batch to its relay, re-adopting whatever the batch misses. It
// returns one result per member, in forest preorder. Relay servants call it
// to deliver their span.
func DeliverForest(ctx context.Context, sig Signal, roots []*TreeNode, retry RetryPolicy) []SubtreeResult {
	retry.Attempts = max(retry.Attempts, 1)
	f := startFanOut(ctx, sig, retry, roots)
	f.wg.Wait()
	out := make([]SubtreeResult, len(f.nodes))
	for p, n := range f.nodes {
		r := f.results[p]
		out[p] = SubtreeResult{Index: n.Member.Index, Attempts: r.attempts, Outcome: r.outcome, Err: r.err}
	}
	return out
}
