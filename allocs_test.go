//go:build !race

package activityservice_test

import (
	"fmt"
	"testing"

	"github.com/extendedtx/activityservice"
)

// TestAllocsShardRouterRoute gates BenchmarkShardRouterRoute: routing from
// a cached map allocates no more than the reference it mints.
func TestAllocsShardRouterRoute(t *testing.T) {
	got := testing.AllocsPerRun(200, shardRouterRoute(t))
	if got > 2 {
		t.Errorf("%.0f allocs/op, budget 2", got)
	}
}

// TestAllocsTwoPhaseCommit gates BenchmarkFig08TwoPhaseCommit's
// 8-participant commit: an activity's core bookkeeping (registry entry,
// one registration map, signal sets) stays a handful of allocations on
// top of the per-participant work.
func TestAllocsTwoPhaseCommit(t *testing.T) {
	got := testing.AllocsPerRun(200, twoPhaseCommit(t, 8))
	if got > 35 {
		t.Errorf("%.0f allocs/op, budget 35", got)
	}
}

// TestAllocsTreeFanout gates BenchmarkTreeFanout's tree configurations:
// after the warm-up round the relay hot path — ref batch encode, servant
// dispatch, result aggregation — stays within budget instead of growing
// per-member allocations.
func TestAllocsTreeFanout(t *testing.T) {
	for _, c := range []struct {
		fanout, max int
	}{{64, 2000}, {256, 7500}} {
		t.Run(fmt.Sprintf("fanout=%d/sites=4/tree", c.fanout), func(t *testing.T) {
			got := testing.AllocsPerRun(50, treeFanout(t, c.fanout, 4, activityservice.Tree(8)))
			if int(got) > c.max {
				t.Errorf("%.0f allocs/op, budget %d", got, c.max)
			}
		})
	}
}

// TestAllocsRemoteFanout gates BenchmarkRemoteFanout's hot configuration:
// parallel delivery to 64 remote actions over a 16-connection pool.
func TestAllocsRemoteFanout(t *testing.T) {
	got := testing.AllocsPerRun(100, remoteFanout(t, 64, 16, activityservice.Parallel()))
	if got > 1500 {
		t.Errorf("%.0f allocs/op, budget 1500", got)
	}
}
