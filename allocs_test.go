//go:build !race

package activityservice_test

import (
	"fmt"
	"testing"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/twopc"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// TestAllocsShardRouterRoute gates BenchmarkShardRouterRoute: routing from
// a cached map allocates no more than the reference it mints.
func TestAllocsShardRouterRoute(t *testing.T) {
	got := testing.AllocsPerRun(200, shardRouterRoute(t))
	if got > 2 {
		t.Errorf("%.0f allocs/op, budget 2", got)
	}
}

// TestAllocsTwoPhaseCommit gates BenchmarkFig08TwoPhaseCommit's commits
// at 3 allocs/op, for 8 participants and for 1: the activity, which holds
// its first set name's entry, with the registered set and its fig. 7
// state (1); the transaction, which holds its signal set and the room
// for eight staged ResourceActions (1); and the registrations, grown once
// by the run that enrols them (1). The run's action slice lives on the
// stack, trace labels are not formatted without a recorder, no map is
// made and a broadcast's snapshot is not a copy. Alternating the two
// sizes on one coordinator costs each what it costs alone: nothing
// carries over between transactions.
func TestAllocsTwoPhaseCommit(t *testing.T) {
	for _, participants := range []int{1, 8} {
		t.Run(fmt.Sprintf("participants=%d", participants), func(t *testing.T) {
			got := testing.AllocsPerRun(200, twoPhaseCommit(t, participants))
			if got > 3 {
				t.Errorf("%.0f allocs/op, budget 3", got)
			}
		})
	}
	t.Run("alternating", func(t *testing.T) {
		coord := twopc.NewCoordinator(activityservice.New())
		one, eight := twoPhaseCommitOn(t, coord, 1), twoPhaseCommitOn(t, coord, 8)
		got := testing.AllocsPerRun(200, func() { one(); eight() })
		if got > 6 {
			t.Errorf("%.0f allocs per pair of commits, budget 6", got)
		}
	})
}

// TestAllocsOTSCommit gates the transaction service's top-level commit —
// Begin, RegisterResource per no-op participant, Commit(true) — at 6
// allocs/op for 2 participants and 8 for 8 with no log, and at 10 and 12
// with an in-memory decision log, whose decision and done records cost
// four more. durable-2pc and replicated-2pc commit through this path.
func TestAllocsOTSCommit(t *testing.T) {
	for _, c := range []struct {
		log          bool
		participants int
		budget       float64
	}{{false, 2, 6}, {false, 8, 8}, {true, 2, 10}, {true, 8, 12}} {
		t.Run(fmt.Sprintf("log=%v/participants=%d", c.log, c.participants), func(t *testing.T) {
			var opts []ots.Option
			if c.log {
				opts = append(opts, ots.WithLog(ots.NewMemoryLog()))
			}
			svc := ots.NewService(opts...)
			got := testing.AllocsPerRun(200, func() {
				tx := svc.Begin()
				for range c.participants {
					if err := tx.RegisterResource(okResource{}); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(true); err != nil {
					t.Fatal(err)
				}
			})
			if got > c.budget {
				t.Errorf("%.0f allocs/op, budget %.0f", got, c.budget)
			}
		})
	}
}

// TestAllocsBatchedResourceCommit gates a top-level commit over two
// resources exported on one ORB and imported through another: prepare and
// commit each reach the host as one resource batch, so the budget covers
// two calls, coordinator and host side both. The proxies' recovery names
// and relay references are built once, at import. It reads 55.
func TestAllocsBatchedResourceCommit(t *testing.T) {
	host := orb.New()
	defer host.Shutdown()
	if _, err := host.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client := orb.New()
	defer client.Shutdown()
	var res []ots.NamedResource
	for range 2 {
		ref := orb.ExportResource(host, okResource{})
		ref, _ = host.IOR(ref.Key)
		res = append(res, orb.ImportResource(client, ref))
	}
	svc := ots.NewService()
	got := testing.AllocsPerRun(200, func() {
		tx := svc.Begin()
		for _, r := range res {
			if err := tx.RegisterResource(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Commit(true); err != nil {
			t.Fatal(err)
		}
	})
	if got > 56 {
		t.Errorf("%.0f allocs/op, budget 56", got)
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
