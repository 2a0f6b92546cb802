package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/internal/cdr"
	iots "github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/remote"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// TestDaemonDemoRoundTrip boots the daemon on an ephemeral port and runs
// the built-in client against it: factory resolution through naming,
// remote activity creation, remote enlistment and remote completion.
func TestDaemonDemoRoundTrip(t *testing.T) {
	if err := run(context.Background(), []string{"127.0.0.1:0"}, true, orbConfig{}, false); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonDemoPooledParallel runs the same round trip with a pooled
// client transport and parallel signal fan-out enabled.
func TestDaemonDemoPooledParallel(t *testing.T) {
	if err := run(context.Background(), []string{"127.0.0.1:0"}, true, orbConfig{pool: 8, fanout: "parallel"}, false); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonDemoMultiListenerAdmin runs the round trip against a daemon
// with two listeners (issued IORs carry both endpoints as profiles) and
// the admin servant enabled.
func TestDaemonDemoMultiListenerAdmin(t *testing.T) {
	if err := run(context.Background(), []string{"127.0.0.1:0", "127.0.0.1:0"}, true, orbConfig{}, true); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonDemoRelayTree runs the round trip with the relay servant
// hosted and tree fan-out selected for remotely created activities.
func TestDaemonDemoRelayTree(t *testing.T) {
	if err := run(context.Background(), []string{"127.0.0.1:0"}, true, orbConfig{fanout: "tree"}, false); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonDemoOverloadProtected runs the round trip with the full
// overload-protection surface switched on: admission control with a
// priority reservation on the daemon, and the breaker on its outgoing
// calls. A healthy round trip must be untouched by all of it.
func TestDaemonDemoOverloadProtected(t *testing.T) {
	cfg := orbConfig{
		pool:        4,
		maxInflight: 32,
		priority:    4,
		breaker:     5,
		breakerOpen: time.Second,
	}
	if err := run(context.Background(), []string{"127.0.0.1:0"}, true, cfg, false); err != nil {
		t.Fatal(err)
	}
}

// TestRunRejectsInertSettings proves run refuses a flag whose effect
// depends on another flag left unset, or a value it does not know,
// instead of silently ignoring it.
func TestRunRejectsInertSettings(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  orbConfig
		want string
	}{
		{"priority without max-inflight", orbConfig{priority: 4}, "-priority"},
		{"breaker-open without breaker", orbConfig{breakerOpen: time.Second}, "-breaker-open"},
		{"rejoin=false without ots-log", orbConfig{noRejoin: true}, "-rejoin=false"},
		{"unknown fanout", orbConfig{fanout: "star"}, "-fanout"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(context.Background(), []string{"127.0.0.1:0"}, true, tc.cfg, false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run = %v, want an error naming %s", err, tc.want)
			}
		})
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
		remote.ExportResourceWithKey(parts, fmt.Sprintf("participant-%d", i), r)
	}
	if _, err := parts.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// A commit whose deliveries fail leaves its decision unsealed.
	log, err := ots.OpenFileLog(path)
	if err != nil {
		t.Fatal(err)
	}
	tx := ots.NewService(ots.WithLog(log), iots.WithRetryPolicy(1, 0)).Begin()
	for i := range res {
		ref, _ := parts.IOR(fmt.Sprintf("participant-%d", i))
		if err := tx.RegisterResource(orb.ImportResource(parts, ref)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(true); !errors.Is(err, iots.ErrHeuristicHazard) {
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
		stopped <- run(ctx, []string{addr}, false, orbConfig{otsLog: path}, true)
	}()

	// The boot pass finds the participants still down (the admin scrape
	// shows it). Once they are back, the wire recover verb re-drives the
	// decision and buffers its done.
	client := orb.New()
	defer client.Shutdown()
	admin := orb.NewAdminClient(client, orb.AdminAt(addr))
	deadline := time.Now().Add(10 * time.Second)
	for {
		callCtx, cancel := context.WithTimeout(ctx, time.Second)
		ss, err := admin.Metrics(callCtx)
		cancel()
		if passes, _ := ss.Get("recovery.passes", ""); err == nil && passes == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon boot recovery pass not seen: %+v, %v", ss, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	rc := remote.NewRecoveryClient(client, remote.RecoveryAt(addr))
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

// TestDaemonPresumesAbortForRecoveredActivities begins an activity
// through a durable daemon's factory and stops the daemon without
// completing it. Restarted on the same log, the daemon finds the activity
// in its journal; nothing can reach it, so it must be presumed aborted,
// not left live: activity.live reads 0, and still 0 after a second restart
// (the abort was journaled).
func TestDaemonPresumesAbortForRecoveredActivities(t *testing.T) {
	path := filepath.Join(t.TempDir(), "group.wal")
	client := orb.New()
	defer client.Shutdown()
	for boot := range 3 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		ctx, stop := context.WithCancel(context.Background())
		stopped := make(chan error, 1)
		go func() {
			stopped <- run(ctx, []string{addr}, false, orbConfig{otsLog: path}, true)
		}()

		// The factory is named once the member leads, after its takeover.
		naming := orb.NewNameClient(client, orb.NameServiceAt(addr))
		var factory orb.IOR
		for deadline := time.Now().Add(10 * time.Second); ; {
			callCtx, cancel := context.WithTimeout(ctx, time.Second)
			factory, err = naming.Resolve(callCtx, "activityservice")
			cancel()
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("boot %d: resolve factory: %v", boot, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		want := int64(0)
		if boot == 0 {
			e := cdr.NewEncoder(32)
			e.WriteString("abandoned")
			if _, err := client.Invoke(ctx, factory, "begin", e.Bytes()); err != nil {
				t.Fatalf("begin: %v", err)
			}
			want = 1
		}
		ss, err := orb.NewAdminClient(client, orb.AdminAt(addr)).Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if live, _ := ss.Get("activity.live", ""); live != want {
			t.Errorf("boot %d: activity.live = %d, want %d", boot, live, want)
		}

		stop()
		if err := <-stopped; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDaemonRetiresCompletedActivities drives 2 000 remote activities
// (begin, four enrolments, complete) through a real daemon over TCP and
// requires it to hold none of them afterwards: the servant count is back
// where it started, and the service has no live activity.
func TestDaemonRetiresCompletedActivities(t *testing.T) {
	const cycles, actions = 2000, 4
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	ctx, stop := context.WithCancel(context.Background())
	stopped := make(chan error, 1)
	go func() {
		stopped <- run(ctx, []string{addr}, false, orbConfig{}, true)
	}()
	defer func() {
		stop()
		if err := <-stopped; err != nil {
			t.Error(err)
		}
	}()

	client := orb.New()
	defer client.Shutdown()
	if _, err := client.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// The factory is bound in naming once it is served, so a resolved
	// factory means the servant count below is the booted daemon's.
	naming := orb.NewNameClient(client, orb.NameServiceAt(addr))
	var factory orb.IOR
	for deadline := time.Now().Add(10 * time.Second); ; {
		factory, err = naming.Resolve(ctx, "activityservice")
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("resolve factory: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	admin := orb.NewAdminClient(client, orb.AdminAt(addr))
	scrape := func(name string) int64 {
		t.Helper()
		ss, err := admin.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		v, ok := ss.Get(name, "")
		if !ok {
			t.Fatalf("scrape has no %s: %+v", name, ss)
		}
		return v
	}
	servants := scrape("orb.server.servants")

	ack := activityservice.ActionFunc(func(context.Context, activityservice.Signal) (activityservice.Outcome, error) {
		return activityservice.Outcome{Name: "ok"}, nil
	})
	for i := range cycles {
		e := cdr.NewEncoder(32)
		e.WriteString(fmt.Sprintf("cycle-%d", i))
		body, err := client.Invoke(ctx, factory, "begin", e.Bytes())
		if err != nil {
			t.Fatalf("cycle %d: begin: %v", i, err)
		}
		d := cdr.NewDecoder(body)
		proxy := orb.NewActivityProxy(client, orb.DecodeIOR(d))
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
		var refs [actions]orb.IOR
		for k := range refs {
			if refs[k], err = proxy.AddAction(ctx, activityservice.DefaultCompletionSet, ack); err != nil {
				t.Fatalf("cycle %d: add_action: %v", i, err)
			}
		}
		out, err := proxy.Complete(ctx, activityservice.CompletionSuccess)
		if err != nil {
			t.Fatalf("cycle %d: complete: %v", i, err)
		}
		if out.Name != "completed" || out.Data != int64(actions) {
			t.Fatalf("cycle %d: outcome = %+v", i, out)
		}
		for _, ref := range refs {
			client.Deactivate(ref.Key)
		}
	}

	if got := scrape("orb.server.servants"); got != servants {
		t.Errorf("orb.server.servants = %d after %d activities, want %d (its value before them)", got, cycles, servants)
	}
	if got := scrape("activity.live"); got != 0 {
		t.Errorf("activity.live = %d, want 0", got)
	}
	if got := scrape("activity.begun"); got != cycles {
		t.Errorf("activity.begun = %d, want %d", got, cycles)
	}
}
