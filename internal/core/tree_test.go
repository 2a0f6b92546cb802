package core

import (
	"fmt"
	"testing"
	"time"
)

// TestGreedyNearestPlannerPartitions checks planTree's invariants across
// sizes and branching factors: every member appears in exactly one
// subtree, no node exceeds the branching factor, at most k roots, and the
// construction is deterministic.
func TestGreedyNearestPlannerPartitions(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 8, 9, 64, 257, 1000} {
		for _, k := range []int{1, 2, 3, 4, 8} {
			t.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(t *testing.T) {
				nodes := func() []*TreeNode {
					out := make([]*TreeNode, n)
					for i := range out {
						out[i] = &TreeNode{Member: TreeMember{
							Index: i,
							Node:  fmt.Sprintf("tcp:site%d:1", i%7),
							RTT:   time.Duration(i%5) * 700 * time.Microsecond,
						}}
					}
					return out
				}
				roots := planTree(nodes(), k)
				if len(roots) > k {
					t.Fatalf("%d roots, branching %d", len(roots), k)
				}
				seen := map[int]int{}
				var walk func(node *TreeNode)
				walk = func(node *TreeNode) {
					if len(node.Children) > k {
						t.Fatalf("node %d has %d children, branching %d", node.Member.Index, len(node.Children), k)
					}
					seen[node.Member.Index]++
					for _, c := range node.Children {
						walk(c)
					}
				}
				total := 0
				for _, r := range roots {
					walk(r)
					total += r.Span()
				}
				if total != n {
					t.Fatalf("spans sum to %d, want %d", total, n)
				}
				for i := 0; i < n; i++ {
					if seen[i] != 1 {
						t.Fatalf("member %d appears %d times", i, seen[i])
					}
				}

				// Determinism: replanning the same members yields the same
				// preorder index sequence.
				var seq, seq2 []*TreeNode
				for _, r := range roots {
					seq = r.preorder(seq)
				}
				for _, r := range planTree(nodes(), k) {
					seq2 = r.preorder(seq2)
				}
				if len(seq) != len(seq2) {
					t.Fatalf("replan changed size")
				}
				for i := range seq {
					if a, b := seq[i].Member.Index, seq2[i].Member.Index; a != b {
						t.Fatalf("replan diverged at %d: %d vs %d", i, a, b)
					}
				}
			})
		}
	}
}

// TestRTTClassQuantizes pins the doubling latency classes the planner
// sorts by.
func TestRTTClassQuantizes(t *testing.T) {
	cases := []struct {
		rtt  time.Duration
		want int
	}{
		{0, 0},
		{400 * time.Microsecond, 0},
		{500 * time.Microsecond, 0},
		{600 * time.Microsecond, 1},
		{time.Millisecond, 1},
		{2 * time.Millisecond, 2},
		{3 * time.Millisecond, 3},
		{100 * time.Millisecond, 8},
	}
	for _, c := range cases {
		if got := rttClass(c.rtt); got != c.want {
			t.Errorf("rttClass(%v) = %d, want %d", c.rtt, got, c.want)
		}
	}
}
