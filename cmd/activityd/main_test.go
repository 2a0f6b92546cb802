package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// TestDaemonDemoRoundTrip boots the daemon on an ephemeral port and runs
// the built-in client against it: factory resolution through naming,
// remote activity creation, remote enlistment and remote completion.
func TestDaemonDemoRoundTrip(t *testing.T) {
	if err := run(context.Background(), []string{"127.0.0.1:0"}, true, orbConfig{}, activityservice.DeliveryPolicy{}, false, false); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonDemoPooledParallel runs the same round trip with a pooled
// client transport and parallel signal fan-out enabled.
func TestDaemonDemoPooledParallel(t *testing.T) {
	if err := run(context.Background(), []string{"127.0.0.1:0"}, true, orbConfig{pool: 8}, activityservice.Parallel(), false, false); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonDemoMultiListenerAdmin runs the round trip against a daemon
// with two listeners (issued IORs carry both endpoints as profiles) and
// the admin servant enabled.
func TestDaemonDemoMultiListenerAdmin(t *testing.T) {
	if err := run(context.Background(), []string{"127.0.0.1:0", "127.0.0.1:0"}, true, orbConfig{}, activityservice.DeliveryPolicy{}, false, true); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonDemoRelayTree runs the round trip with the relay servant
// hosted and tree fan-out selected for remotely created activities.
func TestDaemonDemoRelayTree(t *testing.T) {
	if err := run(context.Background(), []string{"127.0.0.1:0"}, true, orbConfig{}, activityservice.Tree(4), true, false); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonDemoOverloadProtected runs the round trip with the full
// overload-protection surface switched on: admission control and pool
// warm-up on the daemon, breaker and retry budget active for its outgoing
// calls. A healthy round trip must be untouched by all of it.
func TestDaemonDemoOverloadProtected(t *testing.T) {
	cfg := orbConfig{
		pool:        4,
		warm:        2,
		maxInflight: 32,
		admitQueue:  16,
		shedAfter:   50 * time.Millisecond,
		breaker:     5,
		breakerOpen: time.Second,
		retryRate:   10,
		retryBurst:  5,
	}
	if err := run(context.Background(), []string{"127.0.0.1:0"}, true, cfg, activityservice.DeliveryPolicy{}, false, false); err != nil {
		t.Fatal(err)
	}
}

// flakyResource is a participant whose commits fail while it is down.
type flakyResource struct {
	mu      sync.Mutex
	down    bool
	commits int
}

func (r *flakyResource) Prepare() (ots.Vote, error) { return ots.VoteCommit, nil }

func (r *flakyResource) Commit() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.down {
		return errors.New("participant down")
	}
	r.commits++
	return nil
}

func (r *flakyResource) Rollback() error       { return nil }
func (r *flakyResource) CommitOnePhase() error { return r.Commit() }
func (r *flakyResource) Forget() error         { return nil }

func (r *flakyResource) setDown(down bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.down = down
}

func (r *flakyResource) committed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.commits
}

// TestDaemonGracefulStopSealsRecoveredDecisions stops a durable daemon
// right after a recovery pass sealed a decision. The pass's done record is
// lazy, so only the log's close on a graceful stop makes it durable:
// restarted on the same WAL, a recovery pass must replay nothing.
func TestDaemonGracefulStopSealsRecoveredDecisions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	parts := orb.New()
	defer parts.Shutdown()
	res := []*flakyResource{{down: true}, {down: true}}
	for i, r := range res {
		orb.ExportResourceWithKey(parts, fmt.Sprintf("participant-%d", i), r)
	}
	if _, err := parts.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// A commit whose deliveries fail leaves its decision unsealed.
	log, err := ots.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	tx := ots.NewService(ots.WithLog(log), ots.WithRetryPolicy(1, 0)).Begin()
	for i := range res {
		ref, _ := parts.IOR(fmt.Sprintf("participant-%d", i))
		if err := tx.RegisterResource(orb.ImportResource(parts, ref)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(true); !errors.Is(err, ots.ErrHeuristicHazard) {
		t.Fatalf("commit with every participant down = %v, want a heuristic hazard", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	stopped := make(chan error, 1)
	go func() {
		stopped <- run(ctx, []string{addr}, false, orbConfig{otsLog: path}, activityservice.DeliveryPolicy{}, false, false)
	}()

	// The boot pass finds the participants still down. Once they are back,
	// the wire recover verb re-drives the decision and buffers its done.
	client := orb.New()
	defer client.Shutdown()
	rc := orb.NewRecoveryClient(client, orb.RecoveryAt(addr))
	deadline := time.Now().Add(10 * time.Second)
	for {
		callCtx, cancel := context.WithTimeout(ctx, time.Second)
		totals, err := rc.Totals(callCtx)
		cancel()
		if err == nil && totals.Passes == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon boot recovery pass not seen: %+v, %v", totals, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, r := range res {
		r.setDown(false)
	}
	stats, err := rc.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 {
		t.Fatalf("wire recovery pass = %+v, want 1 decision, 2 committed", stats)
	}

	stop()
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}
	restarted, err := ots.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	again, err := ots.NewService(ots.WithLog(restarted)).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if again.DecisionsReplayed != 0 {
		t.Fatalf("restart replayed %d decisions, want 0 (the graceful stop lost their done records)", again.DecisionsReplayed)
	}
	for i, r := range res {
		if n := r.committed(); n != 1 {
			t.Fatalf("participant %d committed %d times, want 1", i, n)
		}
	}
}
