// Example chaos demonstrates the resilient ORB client transport: a remote
// two-phase commit running over a bounded connection pool while a
// ChaosTransport injects the failures a real network produces — latency,
// a connection reset between the two phases, and finally a dead peer that
// the per-endpoint health gate fails fast on.
//
// Run it with:
//
//	go run ./examples/chaos
package main

import (
	"context"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/twopc"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// resource is a 2PC participant that reports what the protocol did to it.
type resource struct {
	name                         string
	prepares, commits, rollbacks atomic.Int32
}

func (r *resource) Prepare() (ots.Vote, error) { r.prepares.Add(1); return ots.VoteCommit, nil }
func (r *resource) Commit() error              { r.commits.Add(1); return nil }
func (r *resource) Rollback() error            { r.rollbacks.Add(1); return nil }
func (r *resource) CommitOnePhase() error      { r.commits.Add(1); return nil }
func (r *resource) Forget() error              { return nil }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()

	// One node hosts the participants; they are reachable only over TCP.
	node := orb.New()
	defer node.Shutdown()
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	participants := []*resource{{name: "inventory"}, {name: "billing"}}
	refs := make([]orb.IOR, len(participants))
	for i, r := range participants {
		ref := orb.ExportAction(node, twopc.NewResourceAction(r))
		refs[i], _ = node.IOR(ref.Key)
	}

	// The coordinator's node dials TCP through a chaos transport, with a
	// bounded pool of 4 connections per endpoint (3 exclusive lanes and a
	// shared one) and quick reconnect backoff.
	chaos := orb.NewChaosTransport()
	client := orb.New(
		orb.WithTransport(chaos),
		orb.WithPoolSize(4),
		orb.WithCallTimeout(2*time.Second),
		orb.WithReconnectBackoff(50*time.Millisecond, 500*time.Millisecond),
	)
	defer client.Shutdown()

	svc := activityservice.New(activityservice.WithRetryPolicy(
		activityservice.RetryPolicy{Attempts: 3, Backoff: 10 * time.Millisecond}))
	coord := twopc.NewCoordinator(svc, twopc.WithDelivery(activityservice.Parallel()))

	commit := func(label string) error {
		tx, err := coord.Begin(label)
		if err != nil {
			return err
		}
		for _, ref := range refs {
			if err := tx.EnlistAction(orb.ImportAction(client, ref)); err != nil {
				return err
			}
		}
		start := time.Now()
		committed, err := tx.Commit(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("%-28s committed=%v in %s\n", label+":", committed, time.Since(start).Round(time.Millisecond))
		for _, r := range participants {
			fmt.Printf("  %-10s totals: prepares=%d commits=%d rollbacks=%d\n",
				r.name, r.prepares.Load(), r.commits.Load(), r.rollbacks.Load())
		}
		if st, ok := client.EndpointStats(refs[0].Endpoint()); ok {
			fmt.Printf("  pool: conns=%d lanes=%d pending=%d failures=%d down=%v\n",
				st.Conns, st.Lanes, st.Pending, st.Failures, st.Down)
		}
		return nil
	}

	// 1. A healthy distributed commit through the pooled transport.
	if err := commit("healthy network"); err != nil {
		return err
	}

	// 2. Inject 20ms of link latency on every request, plus a connection
	//    reset between the prepare and commit phases. The pool re-dials and
	//    at-least-once delivery re-drives phase two: the decision stands.
	chaos.Inject(orb.ChaosRule{Latency: 20 * time.Millisecond})
	chaos.Inject(orb.ChaosRule{
		Op: "process_signal", Stage: orb.StageRequest, After: 2, Count: 1, Reset: true,
	})
	if err := commit("slow link + reset mid-2PC"); err != nil {
		return err
	}
	chaos.Heal()

	// 3. Kill the participant node: once the pool notices, the first call
	//    eats the dial failure and the health gate fails every later call
	//    fast until the backoff window passes.
	node.Shutdown()
	time.Sleep(200 * time.Millisecond) // let the pool reap its dead connections
	proxy := orb.ImportAction(client, refs[0])
	if _, err := proxy.ProcessSignal(ctx, activityservice.Signal{Name: "ping", SetName: "s"}); err != nil {
		fmt.Printf("%-28s %v\n", "dead peer, first call:", err)
	}
	start := time.Now()
	if _, err := proxy.ProcessSignal(ctx, activityservice.Signal{Name: "ping", SetName: "s"}); err != nil {
		fmt.Printf("%-28s failed fast in %s\n  (%v)\n", "dead peer, second call:",
			time.Since(start).Round(time.Microsecond), err)
	}
	if st, ok := client.EndpointStats(refs[0].Endpoint()); ok {
		fmt.Printf("  pool: conns=%d failures=%d down=%v\n", st.Conns, st.Failures, st.Down)
	}
	return nil
}
