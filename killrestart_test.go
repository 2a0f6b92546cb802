// Kill-restart chaos harness: the coordinator process is killed with
// SIGKILL at injected points inside a distributed two-phase commit —
// after prepare, after the decision record is forced, mid-phase-two, and
// after the (lazy, not yet synced) done record — then restarted against
// the same write-ahead log. The participants live
// in THIS process and survive the kill, so the harness can observe
// exactly what each one was told before and after the crash. Recovery is
// driven end to end: WAL replay re-drives in-doubt branches, and the
// wire-level replay_completion servant answers restarted participants.
//
// These are real processes and a real kill(2): the coordinator never gets
// to run deferred cleanup, flush buffers, or say goodbye — exactly the
// failure the presumed-abort log protocol is designed for.
package activityservice_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/btp"
	"github.com/extendedtx/activityservice/internal/wal"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// remoteActionFactory names the action factory both the group superior and
// its successors register: params are a stringified IOR, recreated as a
// wire proxy — the activity journal's way of shipping enrolled members.
const remoteActionFactory = "remote-action"

// Environment contract between the parent test and the re-exec'd
// coordinator helper. IORs are joined with newlines: the stringified
// reference grammar uses '|' and ',' internally.
const (
	crashEnvMode    = "ACTIVITYSERVICE_CRASH_MODE"    // "commit", "group", "groupbtp" or "recover"
	crashEnvStage   = "ACTIVITYSERVICE_CRASH_STAGE"   // "prepared", "decision", "phase2", "done"
	crashEnvWAL     = "ACTIVITYSERVICE_CRASH_WAL"     // coordinator log path
	crashEnvIORs    = "ACTIVITYSERVICE_CRASH_IORS"    // participant resource refs, "\n"-joined
	crashEnvActions = "ACTIVITYSERVICE_CRASH_ACTIONS" // BTP inferior action refs, "\n"-joined
	crashEnvPeers   = "ACTIVITYSERVICE_CRASH_PEERS"   // group modes: the other members' replication endpoints, space-joined
)

// survivorResource is a participant hosted by the parent process. It
// persists nothing — the parent is never killed — but counts protocol
// verbs so the harness can assert exactly-once application: Commit is
// idempotent (redelivery is absorbed), and applies records how many times
// state actually changed.
type survivorResource struct {
	prepares    atomic.Int32
	commitCalls atomic.Int32
	applies     atomic.Int32
	rollbacks   atomic.Int32
	committed   atomic.Bool
}

func (r *survivorResource) Prepare() (ots.Vote, error) {
	r.prepares.Add(1)
	return ots.VoteCommit, nil
}

func (r *survivorResource) Commit() error {
	r.commitCalls.Add(1)
	if r.committed.CompareAndSwap(false, true) {
		r.applies.Add(1)
	}
	return nil
}

func (r *survivorResource) Rollback() error       { r.rollbacks.Add(1); return nil }
func (r *survivorResource) CommitOnePhase() error { return r.Commit() }
func (r *survivorResource) Forget() error         { return nil }

// crashStage maps the injected crash point to the pipeline stage at which
// the coordinator helper SIGKILLs itself.
func crashStage(name string) ots.Stage {
	switch name {
	case "prepared":
		return ots.StagePrepared
	case "decision":
		return ots.StageDecisionLogged
	case "phase2":
		return ots.StageCommitDelivered
	case "done":
		return ots.StageDone
	}
	return 0
}

// killAt returns the event hook that SIGKILLs this process the moment the
// commit pipeline reaches stage. The kill is raised from inside the
// synchronous hook, so the process dies at exactly the protocol point
// under test — no deferred recovery runs.
func killAt(stage ots.Stage) func(ots.Event) {
	return func(e ots.Event) {
		if e.Stage == stage {
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
			select {} // unreachable: SIGKILL is not deliverable to a handler
		}
	}
}

// commitAcrossEnvResources drives one 2PC over the participants named in
// crashEnvIORs; the kill hook installed on svc ends the process inside it.
func commitAcrossEnvResources(t *testing.T, node *orb.ORB, svc *ots.Service) {
	tx := svc.Begin()
	for _, s := range strings.Split(os.Getenv(crashEnvIORs), "\n") {
		ref, err := orb.ParseIOR(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.RegisterResource(orb.ImportResource(node, ref)); err != nil {
			t.Fatal(err)
		}
	}
	_ = tx.Commit(true)
	t.Fatal("coordinator survived its injected crash point")
}

// bootGroupLeader makes the helper a coordinator-group leader (term 1)
// whose electorate is itself plus the parent-side members named in
// crashEnvPeers, and reports its endpoints ("REPL ...") so the parent can
// point those members at it. The returned member's DecisionGate sizes
// itself from that peer list: each decision is held until a majority of
// the group durably has it, so a post-decision kill point is guaranteed to
// leave the decision on a survivor the election can pick.
func bootGroupLeader(t *testing.T, node *orb.ORB, log *wal.Log) *orb.GroupMember {
	g := orb.NewGroupMember(node, log, orb.GroupConfig{
		MemberID: "leader",
		Peers:    strings.Fields(os.Getenv(crashEnvPeers)),
	})
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := g.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	fmt.Printf("REPL %s\n", strings.Join(node.Endpoints(), " "))
	return g
}

// TestCrashRestartHelper is the coordinator process. It only runs when
// re-exec'd by the harness with the mode environment set.
//
// mode=commit: drive a two-participant 2PC against the parent's
// participants and SIGKILL self at the configured stage.
//
// mode=recover: restart against the same WAL, re-drive in-doubt branches,
// report pass stats on stdout, then serve wire-level recovery
// (replay_completion and the recover verb) until stdin closes.
//
// mode=group: like commit, but as a promoted coordinator-group leader
// (bootGroupLeader) committing through the group's decision gate.
//
// mode=groupbtp: a coordinator-group BTP superior whose activity journal
// shares the replicated log — it prepares the parent's inferiors through
// the real fig. 11 signal exchange, seals the confirm decision in the
// replicated log, and SIGKILLs itself between confirm deliveries; the
// successor re-activates the atom's structure from the journal, not just
// the confirm decision.
func TestCrashRestartHelper(t *testing.T) {
	mode := os.Getenv(crashEnvMode)
	if mode == "" {
		t.Skip("coordinator helper; runs only via re-exec")
	}
	log, err := ots.OpenFileLog(os.Getenv(crashEnvWAL))
	if err != nil {
		t.Fatal(err)
	}
	node := orb.New()
	defer node.Shutdown()

	switch mode {
	case "commit", "group":
		stage := crashStage(os.Getenv(crashEnvStage))
		if stage == 0 {
			t.Fatalf("bad crash stage %q", os.Getenv(crashEnvStage))
		}
		opts := []ots.Option{ots.WithLog(log), ots.WithRetryPolicy(1, 0), ots.WithEventHook(killAt(stage))}
		if mode == "group" {
			g := bootGroupLeader(t, node, log)
			opts = append(opts, ots.WithDecisionGate(g.DecisionGate(time.Second)))
		}
		commitAcrossEnvResources(t, node, ots.NewService(opts...))

	case "groupbtp":
		// BTP requires the superior to make its confirm decision durable
		// before any confirm goes out; this repo's durable-decision
		// substrate is the replicated OTS log, so the superior seals the
		// decision there with one branch per enrolled inferior (each
		// inferior's confirm bridge is registered as a recoverable
		// resource) and phase two delivers the confirms one inferior at a
		// time. The atom's begun record and its recoverable inferior
		// enrollments stream to the followers alongside the confirm
		// decision, so the elected successor can re-activate the
		// superior's live activity state — not just replay its
		// transaction log.
		g := bootGroupLeader(t, node, log)
		asvc := activityservice.New(activityservice.WithJournal(log))
		asvc.RegisterActionFactory(remoteActionFactory, func(params []byte) (activityservice.Action, error) {
			ref, err := orb.ParseIOR(string(params))
			if err != nil {
				return nil, err
			}
			return orb.ImportAction(node, ref), nil
		})
		atom, err := btp.NewAtom(asvc, "group-takeover")
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strings.Split(os.Getenv(crashEnvActions), "\n") {
			if _, err := atom.Activity().AddRecoverableAction(btp.PrepareSetName, remoteActionFactory, []byte(s)); err != nil {
				t.Fatal(err)
			}
			if _, err := atom.Activity().AddRecoverableAction(btp.CompleteSetName, remoteActionFactory, []byte(s)); err != nil {
				t.Fatal(err)
			}
		}
		if err := atom.Prepare(context.Background()); err != nil {
			t.Fatalf("btp prepare: %v", err)
		}
		commitAcrossEnvResources(t, node, ots.NewService(ots.WithLog(log),
			ots.WithRetryPolicy(1, 0),
			ots.WithDecisionGate(g.DecisionGate(time.Second)),
			ots.WithEventHook(killAt(ots.StageCommitDelivered))))

	case "recover":
		svc := ots.NewService(ots.WithLog(log), ots.WithRetryPolicy(2, 10*time.Millisecond))
		names, err := svc.InDoubtResources()
		if err != nil {
			t.Fatal(err)
		}
		if err := orb.BindRemoteResources(node, svc.Directory(), names); err != nil {
			t.Fatal(err)
		}
		stats, err := svc.Recover()
		if err != nil {
			t.Fatal(err)
		}
		orb.ServeRecovery(node, svc)
		if _, err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("STATS replayed=%d committed=%d missing=%d failed=%d\n",
			stats.DecisionsReplayed, stats.ResourcesCommitted,
			stats.ResourcesMissing, stats.ResourcesFailed)
		fmt.Printf("ENDPOINT %s\n", strings.Join(node.Endpoints(), " "))
		_, _ = io.Copy(io.Discard, os.Stdin) // serve until the parent hangs up

	default:
		t.Fatalf("bad mode %q", mode)
	}
}

// coordinatorEnv builds the child-process environment for one helper run.
func coordinatorEnv(mode, stage, walPath string, iors []string) []string {
	return append(os.Environ(),
		crashEnvMode+"="+mode,
		crashEnvStage+"="+stage,
		crashEnvWAL+"="+walPath,
		crashEnvIORs+"="+strings.Join(iors, "\n"),
	)
}

// runCoordinatorUntilKilled re-execs the helper in commit mode and
// asserts the process died from the self-inflicted SIGKILL — not from a
// clean exit or a test failure.
func runCoordinatorUntilKilled(t *testing.T, stage, walPath string, iors []string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashRestartHelper$")
	cmd.Env = coordinatorEnv("commit", stage, walPath, iors)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("coordinator exited cleanly, want SIGKILL; output:\n%s", out)
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("coordinator: %v; output:\n%s", err, out)
	}
	ws, ok := exitErr.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("coordinator exit = %v (signaled=%v), want SIGKILL; output:\n%s",
			err, ok && ws.Signaled(), out)
	}
}

// restartedCoordinator holds the recover-mode child and what it reported.
type restartedCoordinator struct {
	cmd       *exec.Cmd
	stdin     io.WriteCloser
	replayed  int
	committed int
	missing   int
	failed    int
	endpoints []string
}

// restartCoordinator re-execs the helper in recover mode against the same
// WAL, parses its recovery-pass report, and leaves it serving wire-level
// recovery until shutdown.
func restartCoordinator(t *testing.T, walPath string) *restartedCoordinator {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashRestartHelper$")
	cmd.Env = coordinatorEnv("recover", "", walPath, nil)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	rc := &restartedCoordinator{cmd: cmd, stdin: stdin}
	t.Cleanup(func() { rc.shutdown(t) })

	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "STATS "):
			if _, err := fmt.Sscanf(line, "STATS replayed=%d committed=%d missing=%d failed=%d",
				&rc.replayed, &rc.committed, &rc.missing, &rc.failed); err != nil {
				t.Fatalf("bad stats line %q: %v", line, err)
			}
		case strings.HasPrefix(line, "ENDPOINT "):
			rc.endpoints = strings.Fields(strings.TrimPrefix(line, "ENDPOINT "))
			if len(rc.endpoints) == 0 {
				t.Fatalf("restarted coordinator reported no endpoints")
			}
			go io.Copy(io.Discard, stdout) // drain test-framework chatter
			return rc
		}
	}
	_ = cmd.Wait()
	t.Fatal("restarted coordinator exited before serving recovery")
	return nil
}

func (rc *restartedCoordinator) shutdown(t *testing.T) {
	_ = rc.stdin.Close()
	if err := rc.cmd.Wait(); err != nil {
		t.Errorf("restarted coordinator exit: %v", err)
	}
}

// crashFixture hosts the surviving participants and the coordinator WAL.
type crashFixture struct {
	walPath string
	a, b    *survivorResource
	refs    []string
}

func newCrashFixture(t *testing.T) *crashFixture {
	t.Helper()
	node := orb.New()
	t.Cleanup(node.Shutdown)
	f := &crashFixture{
		walPath: filepath.Join(t.TempDir(), "coordinator.wal"),
		a:       &survivorResource{},
		b:       &survivorResource{},
	}
	refA := orb.ExportResourceWithKey(node, "survivor-a", f.a)
	refB := orb.ExportResourceWithKey(node, "survivor-b", f.b)
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	refA, _ = node.IOR(refA.Key)
	refB, _ = node.IOR(refB.Key)
	f.refs = []string{refA.String(), refB.String()}
	return f
}

// recoveryClient dials the restarted coordinator's wire recovery surface.
func recoveryClient(t *testing.T, rc *restartedCoordinator) *orb.RecoveryClient {
	t.Helper()
	client := orb.New()
	t.Cleanup(client.Shutdown)
	return orb.NewRecoveryClient(client, orb.RecoveryAt(rc.endpoints...))
}

// TestCrashRestart2PC is the chaos matrix: one subtest per injected kill
// point. Each subtest runs a real coordinator process to its crash point,
// restarts it, and asserts every prepared participant converges to the
// logged decision exactly once — via WAL replay for branches the restarted
// coordinator re-drives, and via wire-level replay_completion for
// participants asking after their fate.
func TestCrashRestart2PC(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	ctx := context.Background()

	t.Run("after-prepare", func(t *testing.T) {
		// Killed after both votes, before the decision record: nothing
		// durable exists, so restart must presume abort. The participants
		// learn their fate through replay_completion and roll back.
		f := newCrashFixture(t)
		runCoordinatorUntilKilled(t, "prepared", f.walPath, f.refs)
		if got := f.a.prepares.Load() + f.b.prepares.Load(); got != 2 {
			t.Fatalf("prepares before crash = %d, want 2", got)
		}
		if f.a.applies.Load()+f.b.applies.Load() != 0 {
			t.Fatal("participant committed before any durable decision")
		}

		rc := restartCoordinator(t, f.walPath)
		if rc.replayed != 0 {
			t.Fatalf("replayed = %d, want 0 (no decision survived)", rc.replayed)
		}
		cl := recoveryClient(t, rc)
		for i, name := range f.refs {
			st, err := cl.ReplayCompletion(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			if st != ots.StatusRolledBack {
				t.Fatalf("participant %d fate = %s, want rolled-back (presumed abort)", i, st)
			}
		}
		// The participants apply the answer: release by rolling back.
		if err := f.a.Rollback(); err != nil {
			t.Fatal(err)
		}
		if err := f.b.Rollback(); err != nil {
			t.Fatal(err)
		}
		if f.a.applies.Load() != 0 || f.b.applies.Load() != 0 || f.a.rollbacks.Load() != 1 {
			t.Fatalf("after presumed abort: applies=%d/%d rollbacks=%d/%d",
				f.a.applies.Load(), f.b.applies.Load(),
				f.a.rollbacks.Load(), f.b.rollbacks.Load())
		}
	})

	t.Run("after-decision", func(t *testing.T) {
		// Killed right after the commit record was forced: no participant
		// heard the verdict. Restart replays the decision from the WAL and
		// delivers commit to both — each applied exactly once.
		f := newCrashFixture(t)
		runCoordinatorUntilKilled(t, "decision", f.walPath, f.refs)
		if f.a.applies.Load()+f.b.applies.Load() != 0 {
			t.Fatal("participant committed before phase two began")
		}

		rc := restartCoordinator(t, f.walPath)
		if rc.replayed != 1 || rc.committed != 2 || rc.failed != 0 || rc.missing != 0 {
			t.Fatalf("recovery pass = replayed %d committed %d missing %d failed %d, want 1/2/0/0",
				rc.replayed, rc.committed, rc.missing, rc.failed)
		}
		if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
			t.Fatalf("applies = %d/%d, want exactly once each",
				f.a.applies.Load(), f.b.applies.Load())
		}
		cl := recoveryClient(t, rc)
		for _, name := range f.refs {
			st, err := cl.ReplayCompletion(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			if st != ots.StatusCommitted {
				t.Fatalf("fate of %s = %s, want committed", name, st)
			}
		}
		// The decision sealed: a second wire-driven pass replays nothing.
		again, err := cl.Recover(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if again.DecisionsReplayed != 0 {
			t.Fatalf("second pass replayed %d decisions, want 0", again.DecisionsReplayed)
		}
		if f.a.commitCalls.Load() != 1 || f.b.commitCalls.Load() != 1 {
			t.Fatalf("commit deliveries = %d/%d, want 1/1 (sealed decision not re-driven)",
				f.a.commitCalls.Load(), f.b.commitCalls.Load())
		}
	})

	t.Run("mid-phase2", func(t *testing.T) {
		// Killed after the first commit delivery: one participant already
		// committed, the other is in doubt. Restart re-drives the whole
		// decision; the already-committed participant absorbs the duplicate
		// (idempotent), the other commits — every branch applied once.
		f := newCrashFixture(t)
		runCoordinatorUntilKilled(t, "phase2", f.walPath, f.refs)
		if got := f.a.applies.Load() + f.b.applies.Load(); got != 1 {
			t.Fatalf("applies at crash = %d, want exactly 1 (first delivery landed)", got)
		}

		rc := restartCoordinator(t, f.walPath)
		if rc.replayed != 1 || rc.committed != 2 || rc.failed != 0 {
			t.Fatalf("recovery pass = replayed %d committed %d failed %d, want 1/2/0",
				rc.replayed, rc.committed, rc.failed)
		}
		if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
			t.Fatalf("applies = %d/%d, want exactly once each",
				f.a.applies.Load(), f.b.applies.Load())
		}
		if got := f.a.commitCalls.Load() + f.b.commitCalls.Load(); got != 3 {
			t.Fatalf("total commit deliveries = %d, want 3 (one pre-crash + full re-drive)", got)
		}
		cl := recoveryClient(t, rc)
		st, err := cl.ReplayCompletion(ctx, f.refs[1])
		if err != nil {
			t.Fatal(err)
		}
		if st != ots.StatusCommitted {
			t.Fatalf("in-doubt participant fate = %s, want committed", st)
		}
	})

	t.Run("after-done", func(t *testing.T) {
		// Killed right after the done record was appended: phase two
		// reached both participants, but the done record is lazy and no
		// sync followed, so it died with the process. Restart finds the
		// decision unsealed and re-drives it once; both participants
		// absorb the duplicate — each changed state exactly once.
		f := newCrashFixture(t)
		runCoordinatorUntilKilled(t, "done", f.walPath, f.refs)
		if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
			t.Fatalf("applies at crash = %d/%d, want 1/1 (phase two finished)",
				f.a.applies.Load(), f.b.applies.Load())
		}

		rc := restartCoordinator(t, f.walPath)
		if rc.replayed != 1 || rc.committed != 2 || rc.failed != 0 || rc.missing != 0 {
			t.Fatalf("recovery pass = replayed %d committed %d missing %d failed %d, want 1/2/0/0",
				rc.replayed, rc.committed, rc.missing, rc.failed)
		}
		if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
			t.Fatalf("applies = %d/%d, want exactly once each",
				f.a.applies.Load(), f.b.applies.Load())
		}
		if f.a.commitCalls.Load() != 2 || f.b.commitCalls.Load() != 2 {
			t.Fatalf("commit deliveries = %d/%d, want 2/2 (phase two + one re-drive)",
				f.a.commitCalls.Load(), f.b.commitCalls.Load())
		}
		// The re-drive sealed the decision: a second pass replays nothing.
		again, err := recoveryClient(t, rc).Recover(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if again.DecisionsReplayed != 0 {
			t.Fatalf("second pass replayed %d decisions, want 0", again.DecisionsReplayed)
		}
	})
}

// runReplicatedUntilKilled re-execs the helper as a coordinator-group
// leader (mode "group" or "groupbtp", per env), reports its replication
// endpoints as soon as the child prints them (so the caller can point its
// group members at it while the protocol is still running), and asserts
// the process died from the self-inflicted SIGKILL.
func runReplicatedUntilKilled(t *testing.T, env []string, onEndpoints func([]string)) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCrashRestartHelper$")
	cmd.Env = env
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	reported := false
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "REPL ") {
			endpoints := strings.Fields(strings.TrimPrefix(line, "REPL "))
			if len(endpoints) == 0 {
				t.Fatal("replicated coordinator reported no replication endpoints")
			}
			onEndpoints(endpoints)
			reported = true
			break
		}
	}
	if !reported {
		_ = cmd.Wait()
		t.Fatal("replicated coordinator exited before reporting replication endpoints")
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained until the kill
	err = cmd.Wait()
	if err == nil {
		t.Fatal("replicated coordinator exited cleanly, want SIGKILL")
	}
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("replicated coordinator: %v", err)
	}
	ws, ok := exitErr.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("replicated coordinator exit = %v (signaled=%v), want SIGKILL", err, ok && ws.Signaled())
	}
}

// TestStandbyTakeover2PC is the warm-standby-pair chaos matrix — a pair is
// a coordinator group of two: a real leader process whose peer list names
// the standby (so its decision gate holds each decision until the standby
// has it) is SIGKILLed at injected points inside a 2PC, and the standby in
// the parent process — started with no peers, the quorum-of-one
// configuration that takes over alone — must converge every prepared
// branch to the logged decision exactly once. The leader is never
// restarted, and participants holding the shared multi-profile recovery
// reference (leader profile first, standby profile second) must fail over
// to the standby transparently.
func TestStandbyTakeover2PC(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	ctx := context.Background()

	// failoverClient dials recovery through the dead leader's profile
	// first: convergence must arrive via transparent failover to the
	// standby profile.
	failoverClient := func(t *testing.T, leaderEndpoints []string, sb *groupStandby) *orb.RecoveryClient {
		t.Helper()
		client := orb.New()
		t.Cleanup(client.Shutdown)
		ref := orb.RecoveryAt(append(append([]string{}, leaderEndpoints...), sb.orb.Endpoints()...)...)
		return orb.NewRecoveryClient(client, ref)
	}

	run := func(t *testing.T, stage string) (*crashFixture, *groupStandby, []string) {
		t.Helper()
		f := newCrashFixture(t)
		sb := newGroupStandby(t, "standby")
		var leaderEndpoints []string
		runReplicatedUntilKilled(t, groupEnv("group", stage, f.walPath, f.refs, sb), func(endpoints []string) {
			leaderEndpoints = endpoints
			sb.start(t, endpoints, nil)
		})
		return f, sb, leaderEndpoints
	}

	t.Run("after-prepare", func(t *testing.T) {
		// Killed after the votes, before any decision record: nothing was
		// durable on the leader, so nothing reached the standby. Takeover
		// must presume abort.
		f, sb, leaderEndpoints := run(t, "prepared")
		if f.a.applies.Load()+f.b.applies.Load() != 0 {
			t.Fatal("participant committed before any durable decision")
		}
		stats := sb.waitTakeover(t)
		if stats.DecisionsReplayed != 0 {
			t.Fatalf("takeover replayed %d decisions, want 0 (none durable)", stats.DecisionsReplayed)
		}
		cl := failoverClient(t, leaderEndpoints, sb)
		for i, name := range f.refs {
			st, err := cl.ReplayCompletion(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			if st != ots.StatusRolledBack {
				t.Fatalf("participant %d fate via standby = %s, want rolled-back (presumed abort)", i, st)
			}
		}
		if f.a.applies.Load() != 0 || f.b.applies.Load() != 0 {
			t.Fatal("presumed abort committed a participant")
		}
	})

	t.Run("after-decision", func(t *testing.T) {
		// The acceptance scenario: killed right after the commit record was
		// forced (and, via the decision gate, replicated). No participant
		// heard the verdict. The standby alone must deliver commit to both,
		// exactly once, without the leader ever coming back.
		f, sb, leaderEndpoints := run(t, "decision")
		if f.a.applies.Load()+f.b.applies.Load() != 0 {
			t.Fatal("participant committed before phase two began")
		}
		stats := sb.waitTakeover(t)
		if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 ||
			stats.ResourcesMissing != 0 || stats.ResourcesFailed != 0 {
			t.Fatalf("takeover pass = %+v, want 1 decision, 2 committed", stats)
		}
		if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
			t.Fatalf("applies = %d/%d, want exactly once each",
				f.a.applies.Load(), f.b.applies.Load())
		}
		if f.a.commitCalls.Load() != 1 || f.b.commitCalls.Load() != 1 {
			t.Fatalf("commit deliveries = %d/%d, want 1/1",
				f.a.commitCalls.Load(), f.b.commitCalls.Load())
		}
		cl := failoverClient(t, leaderEndpoints, sb)
		for _, name := range f.refs {
			st, err := cl.ReplayCompletion(ctx, name)
			if err != nil {
				t.Fatal(err)
			}
			if st != ots.StatusCommitted {
				t.Fatalf("fate of %s via standby = %s, want committed", name, st)
			}
		}
		// The decision sealed on the standby: a wire-driven second pass
		// through the failover reference re-drives nothing.
		again, err := cl.Recover(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if again.DecisionsReplayed != 0 {
			t.Fatalf("second pass replayed %d decisions, want 0", again.DecisionsReplayed)
		}
		if f.a.commitCalls.Load() != 1 || f.b.commitCalls.Load() != 1 {
			t.Fatalf("commit deliveries after second pass = %d/%d, want still 1/1",
				f.a.commitCalls.Load(), f.b.commitCalls.Load())
		}
		// A cold open of the replica proves the takeover ran over records
		// that are durable on disk, not just in the live handle's memory.
		cold, err := ots.OpenFileLog(sb.walPath)
		if err != nil {
			t.Fatal(err)
		}
		defer cold.Close()
		if cold.LastLSN() != sb.log.LastLSN() {
			t.Fatalf("replica on disk ends at LSN %d, live handle at %d", cold.LastLSN(), sb.log.LastLSN())
		}
	})

	t.Run("mid-phase2", func(t *testing.T) {
		// Killed after the first commit delivery: one participant committed,
		// one in doubt. The standby re-drives the whole decision; the
		// committed participant absorbs the duplicate, the other commits.
		f, sb, leaderEndpoints := run(t, "phase2")
		if got := f.a.applies.Load() + f.b.applies.Load(); got != 1 {
			t.Fatalf("applies at crash = %d, want exactly 1 (first delivery landed)", got)
		}
		stats := sb.waitTakeover(t)
		if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 || stats.ResourcesFailed != 0 {
			t.Fatalf("takeover pass = %+v, want 1 decision, 2 committed", stats)
		}
		if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
			t.Fatalf("applies = %d/%d, want exactly once each",
				f.a.applies.Load(), f.b.applies.Load())
		}
		if got := f.a.commitCalls.Load() + f.b.commitCalls.Load(); got != 3 {
			t.Fatalf("total commit deliveries = %d, want 3 (one pre-crash + full re-drive)", got)
		}
		cl := failoverClient(t, leaderEndpoints, sb)
		st, err := cl.ReplayCompletion(ctx, f.refs[1])
		if err != nil {
			t.Fatal(err)
		}
		if st != ots.StatusCommitted {
			t.Fatalf("in-doubt participant fate via standby = %s, want committed", st)
		}
	})

	t.Run("after-done", func(t *testing.T) {
		// Killed right after the done record was appended: both
		// participants committed, but the lazy done record never reached
		// a sync, so it never shipped. The standby holds the decision
		// unsealed and re-drives it once; each participant absorbs the
		// duplicate with no second state change.
		f, sb, leaderEndpoints := run(t, "done")
		if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
			t.Fatalf("applies at crash = %d/%d, want 1/1 (phase two finished)",
				f.a.applies.Load(), f.b.applies.Load())
		}
		stats := sb.waitTakeover(t)
		if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 || stats.ResourcesFailed != 0 {
			t.Fatalf("takeover pass = %+v, want 1 decision, 2 committed", stats)
		}
		if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
			t.Fatalf("applies = %d/%d, want exactly once each",
				f.a.applies.Load(), f.b.applies.Load())
		}
		if f.a.commitCalls.Load() != 2 || f.b.commitCalls.Load() != 2 {
			t.Fatalf("commit deliveries = %d/%d, want 2/2 (phase two + one re-drive)",
				f.a.commitCalls.Load(), f.b.commitCalls.Load())
		}
		st, err := failoverClient(t, leaderEndpoints, sb).ReplayCompletion(ctx, f.refs[0])
		if err != nil {
			t.Fatal(err)
		}
		if st != ots.StatusCommitted {
			t.Fatalf("participant fate via standby = %s, want committed", st)
		}
	})
}

// TestPairWithPeerNeverSelfPromotes is the other pair configuration: two
// members naming each other. The electorate is two, so the quorum is two
// for the gate (every released decision is on both nodes) and for the
// election — the survivor of a dead leader cannot tell a crash from a
// partition and must NOT promote itself. It stays a follower and runs no
// takeover until the operator promotes it (activityd: restart without
// -peer; here: Promote), and then converges every prepared branch to the
// logged decision exactly once.
func TestPairWithPeerNeverSelfPromotes(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	f := newCrashFixture(t)
	sb := newGroupStandby(t, "survivor")
	runReplicatedUntilKilled(t, groupEnv("group", "decision", f.walPath, f.refs, sb), func(endpoints []string) {
		sb.start(t, endpoints, endpoints) // the leader is both the stream source and the only peer
	})

	// Many election rounds' worth of time (lost-leader budget 150ms, one
	// round every 25ms): the lone survivor never reaches quorum.
	time.Sleep(time.Second)
	if got := sb.g.Role(); got != orb.RoleFollower {
		t.Fatalf("survivor of a pair role = %v, want follower (one vote of two is no quorum)", got)
	}
	if got := sb.takeovers.Load(); got != 0 {
		t.Fatalf("survivor ran %d takeovers with no quorum, want 0", got)
	}
	if got := sb.log.KnownTerm(); got != 1 {
		t.Fatalf("survivor knows term %d, want the dead leader's term 1", got)
	}
	if f.a.applies.Load()+f.b.applies.Load() != 0 {
		t.Fatal("a participant heard a verdict while nobody led the pair")
	}

	// The operator decides the leader is dead, not partitioned.
	if err := sb.g.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats := sb.waitTakeover(t)
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 ||
		stats.ResourcesMissing != 0 || stats.ResourcesFailed != 0 {
		t.Fatalf("takeover pass = %+v, want 1 decision, 2 committed (the gate put it on the survivor)", stats)
	}
	if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
		t.Fatalf("applies = %d/%d, want exactly once each", f.a.applies.Load(), f.b.applies.Load())
	}
	if f.a.commitCalls.Load() != 1 || f.b.commitCalls.Load() != 1 {
		t.Fatalf("commit deliveries = %d/%d, want 1/1", f.a.commitCalls.Load(), f.b.commitCalls.Load())
	}
	if got := sb.takeovers.Load(); got != 1 {
		t.Fatalf("promoted survivor ran %d takeovers, want exactly 1", got)
	}
}

// btpInferior is one enrolled BTP inferior hosted by the parent process.
// It has two faces over one participant state: an exported Action speaking
// the fig. 11/12 signal protocol (the superior's prepare round arrives
// here), and an exported Resource — the confirm bridge the superior
// registers under its durable decision, through which the confirm verdict
// arrives (from the superior before the kill, from the standby after).
// Both faces share one idempotent confirm latch, so the harness observes
// exactly-once convergence no matter which path delivered the verdict.
type btpInferior struct {
	prepared     atomic.Bool
	confirmed    atomic.Bool
	sigPrepares  atomic.Int32
	confirmCalls atomic.Int32
	applies      atomic.Int32
	cancels      atomic.Int32
}

// confirm applies the verdict idempotently: confirmCalls counts every
// delivery, applies counts state changes.
func (p *btpInferior) confirm() {
	p.confirmCalls.Add(1)
	if p.confirmed.CompareAndSwap(false, true) {
		p.applies.Add(1)
	}
}

// action is the BTP signal face (fig. 11/12 over the wire).
func (p *btpInferior) action() activityservice.Action {
	return activityservice.ActionFunc(
		func(_ context.Context, sig activityservice.Signal) (activityservice.Outcome, error) {
			switch sig.Name {
			case btp.SignalPrepare:
				p.sigPrepares.Add(1)
				p.prepared.Store(true)
				return activityservice.Outcome{Name: btp.OutcomePrepared}, nil
			case btp.SignalConfirm:
				p.confirm()
				return activityservice.Outcome{Name: btp.OutcomeConfirmed}, nil
			default:
				p.cancels.Add(1)
				return activityservice.Outcome{Name: btp.OutcomeCancelled}, nil
			}
		})
}

// Resource face: the superior's durable confirm decision reaches the
// inferior through these verbs. The vote enforces protocol order — a
// confirm decision may only cover an inferior the BTP exchange prepared.
func (p *btpInferior) Prepare() (ots.Vote, error) {
	if !p.prepared.Load() {
		return ots.VoteRollback, nil
	}
	return ots.VoteCommit, nil
}

func (p *btpInferior) Commit() error         { p.confirm(); return nil }
func (p *btpInferior) Rollback() error       { p.cancels.Add(1); return nil }
func (p *btpInferior) CommitOnePhase() error { p.confirm(); return nil }
func (p *btpInferior) Forget() error         { return nil }

// btpTakeover is what killBTPSuperiorMidConfirm leaves behind.
type btpTakeover struct {
	resourceRefs      []string
	superiorEndpoints []string
	successor         *groupStandby
}

// killBTPSuperiorMidConfirm runs the BTP kill scenario both takeover tests
// share: a real group-leader BTP superior process journals its atom into
// the replicated log, prepares three enrolled inferiors over the wire,
// seals its confirm decision there, and is SIGKILLed between confirm
// deliveries — one inferior confirmed, two in doubt. The superior never
// restarts; its lone follower (no peers: it takes over alone) wins the
// succession. On return the successor's takeover pass has finished and
// every enrolled inferior has been checked to have converged to confirmed
// exactly once, the already-confirmed one absorbing the redelivery.
func killBTPSuperiorMidConfirm(t *testing.T) btpTakeover {
	t.Helper()
	node := orb.New()
	t.Cleanup(node.Shutdown)
	walPath := filepath.Join(t.TempDir(), "superior.wal")
	inferiors := []*btpInferior{{}, {}, {}}
	actionKeys := make([]string, len(inferiors))
	resourceKeys := make([]string, len(inferiors))
	for i, p := range inferiors {
		actionKeys[i] = orb.ExportAction(node, p.action()).Key
		resourceKeys[i] = orb.ExportResourceWithKey(node, fmt.Sprintf("inferior-%d", i), p).Key
	}
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	actionRefs := make([]string, len(inferiors))
	resourceRefs := make([]string, len(inferiors))
	for i := range inferiors {
		aref, _ := node.IOR(actionKeys[i])
		rref, _ := node.IOR(resourceKeys[i])
		actionRefs[i] = aref.String()
		resourceRefs[i] = rref.String()
	}

	sb := newGroupStandby(t, "sb")
	env := append(groupEnv("groupbtp", "phase2", walPath, resourceRefs, sb),
		crashEnvActions+"="+strings.Join(actionRefs, "\n"))
	var superiorEndpoints []string
	runReplicatedUntilKilled(t, env, func(endpoints []string) {
		superiorEndpoints = endpoints
		sb.start(t, endpoints, nil)
	})

	// At the kill: every inferior went through the real prepare exchange,
	// and exactly one confirm landed — the superior died between confirm
	// decisions.
	var confirmedAtKill int32
	for i, p := range inferiors {
		if got := p.sigPrepares.Load(); got != 1 {
			t.Fatalf("inferior %d saw %d prepare signals, want 1", i, got)
		}
		confirmedAtKill += p.applies.Load()
	}
	if confirmedAtKill != 1 {
		t.Fatalf("confirms applied at crash = %d, want exactly 1 (first delivery landed)", confirmedAtKill)
	}

	stats := sb.waitTakeover(t)
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 3 ||
		stats.ResourcesMissing != 0 || stats.ResourcesFailed != 0 {
		t.Fatalf("takeover pass = %+v, want 1 decision, 3 confirmed", stats)
	}

	// Every enrolled inferior converged to confirmed exactly once: the
	// successor re-drove the whole decision (3 deliveries, 4 total with the
	// pre-crash one) and the idempotent latch absorbed the duplicate.
	var totalConfirmCalls int32
	for i, p := range inferiors {
		if got := p.applies.Load(); got != 1 {
			t.Fatalf("inferior %d confirm applied %d times, want exactly once", i, got)
		}
		if got := p.cancels.Load(); got != 0 {
			t.Fatalf("inferior %d cancelled %d times, want 0", i, got)
		}
		totalConfirmCalls += p.confirmCalls.Load()
	}
	if totalConfirmCalls != 4 {
		t.Fatalf("total confirm deliveries = %d, want 4 (one pre-crash + full re-drive)", totalConfirmCalls)
	}
	return btpTakeover{resourceRefs: resourceRefs, superiorEndpoints: superiorEndpoints, successor: sb}
}

// TestStandbyTakeoverBTPMidConfirm: a BTP superior SIGKILLed between
// confirm deliveries converges through its warm standby (see
// killBTPSuperiorMidConfirm), and in-doubt inferiors asking after their
// fate through the shared failover reference — dead superior's profile
// first — hear confirmed from the standby.
func TestStandbyTakeoverBTPMidConfirm(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	k := killBTPSuperiorMidConfirm(t)
	client := orb.New()
	t.Cleanup(client.Shutdown)
	ref := orb.RecoveryAt(append(append([]string{}, k.superiorEndpoints...), k.successor.orb.Endpoints()...)...)
	cl := orb.NewRecoveryClient(client, ref)
	for i, name := range k.resourceRefs {
		st, err := cl.ReplayCompletion(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if st != ots.StatusCommitted {
			t.Fatalf("inferior %d fate via standby = %s, want committed", i, st)
		}
	}
}

// groupStandby is one coordinator-group standby hosted by the parent
// process: its own ORB serving the group-aware replication servant, a
// file-backed replica of the group's log, and a GroupMember standing for
// fenced election. The Takeover callback — run only on the member that
// wins — re-hosts transaction recovery over the replica AND replays the
// activity journal, counting what it activated so the harness can assert
// the successor picked up live activity state.
type groupStandby struct {
	id      string
	orb     *orb.ORB
	log     *wal.Log
	walPath string
	g       *orb.GroupMember
	runErr  chan error

	takeovers    atomic.Int32
	factoryCalls atomic.Int32

	mu        sync.Mutex
	stats     ots.RecoveryStats
	recovered []string // names of activity-journal roots the takeover activated
}

// newGroupStandby opens the member's replica log and binds its ORB; the
// member itself starts with start (peers are only known once every
// standby's ORB is listening).
func newGroupStandby(t *testing.T, id string) *groupStandby {
	t.Helper()
	return newGroupStandbyAt(t, id, filepath.Join(t.TempDir(), id+".wal"))
}

// newGroupStandbyAt is newGroupStandby over an existing WAL path — how the
// rejoin test restarts the dead leader on its old log.
func newGroupStandbyAt(t *testing.T, id, walPath string) *groupStandby {
	t.Helper()
	s := &groupStandby{id: id, orb: orb.New(), walPath: walPath, runErr: make(chan error, 1)}
	t.Cleanup(s.orb.Shutdown)
	log, err := ots.OpenFileLog(walPath)
	if err != nil {
		t.Fatal(err)
	}
	s.log = log
	if _, err := s.orb.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return s
}

// start wires the GroupMember and runs its follow/elect loop until the
// test ends.
func (s *groupStandby) start(t *testing.T, leaderHint, peers []string) {
	t.Helper()
	takeover := func(ctx context.Context) error {
		defer s.takeovers.Add(1) // counted once the pass's stats are stored
		res, err := orb.HostRecovery(s.orb, s.log, ots.WithRetryPolicy(3, 10*time.Millisecond),
			ots.WithDecisionGate(s.g.DecisionGate(time.Second)))
		if err != nil {
			return err
		}
		asvc := activityservice.New()
		asvc.RegisterActionFactory(remoteActionFactory, func(params []byte) (activityservice.Action, error) {
			ref, err := orb.ParseIOR(string(params))
			if err != nil {
				return nil, err
			}
			s.factoryCalls.Add(1)
			return orb.ImportAction(s.orb, ref), nil
		})
		roots, err := asvc.Recover(s.log)
		if err != nil {
			return fmt.Errorf("activity journal takeover: %w", err)
		}
		s.mu.Lock()
		s.stats = res.Stats
		s.recovered = s.recovered[:0]
		for _, r := range roots {
			s.recovered = append(s.recovered, r.Name())
		}
		s.mu.Unlock()
		return nil
	}
	s.g = orb.NewGroupMember(s.orb, s.log, orb.GroupConfig{
		MemberID:      s.id,
		Peers:         peers,
		LeaderHint:    leaderHint,
		Takeover:      takeover,
		Poll:          100 * time.Millisecond,
		Policy:        orb.TakeoverPolicy{Failures: 3, Retry: 50 * time.Millisecond},
		ElectionRetry: 25 * time.Millisecond,
		ProbeTimeout:  time.Second,
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { s.runErr <- s.g.Run(ctx) }()
}

// waitTakeover blocks until this member has won the succession and its
// takeover pass has finished, and returns the pass's recovery stats.
func (s *groupStandby) waitTakeover(t *testing.T) ots.RecoveryStats {
	t.Helper()
	waitCond(t, 20*time.Second, s.id+" to take over", func() bool {
		return s.g.Role() == orb.RoleLeader && s.takeovers.Load() == 1
	})
	stats, _ := s.takeoverStats()
	return stats
}

// groupEnv is coordinatorEnv for the group helper modes: the leader's
// electorate is itself plus the given parent-side members.
func groupEnv(mode, stage, walPath string, iors []string, peers ...*groupStandby) []string {
	var eps []string
	for _, p := range peers {
		eps = append(eps, p.orb.Endpoints()...)
	}
	return append(coordinatorEnv(mode, stage, walPath, iors), crashEnvPeers+"="+strings.Join(eps, " "))
}

// takeoverStats returns what this member's takeover pass reported.
func (s *groupStandby) takeoverStats() (ots.RecoveryStats, []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats, append([]string(nil), s.recovered...)
}

// waitCond polls cond until it holds or the deadline passes.
func waitCond(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("timed out waiting for " + what)
}

// TestGroupTakeoverKillLeader2PC is the three-member half of the chaos
// matrix: a real group leader (term 1) is SIGKILLed right after a commit
// decision became durable on a majority of the group (itself plus at
// least one of the two standbys — the gate waits for quorum-1 = 1 ack),
// before any participant heard the verdict. Every member's peer list
// names the other two, so the survivors are a majority (2 of 3) and elect
// among themselves — the winner's log must contain the decision, its
// takeover re-drives every prepared branch exactly once, and the loser
// converges onto the new term as a streaming follower. The dead leader
// never comes back.
func TestGroupTakeoverKillLeader2PC(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	ctx := context.Background()

	f := newCrashFixture(t)
	sbA := newGroupStandby(t, "sb-a")
	sbB := newGroupStandby(t, "sb-b")
	runReplicatedUntilKilled(t, groupEnv("group", "decision", f.walPath, f.refs, sbA, sbB), func(endpoints []string) {
		sbA.start(t, endpoints, append(sbB.orb.Endpoints(), endpoints...))
		sbB.start(t, endpoints, append(sbA.orb.Endpoints(), endpoints...))
	})

	// Killed at the decision point: durable on a majority, delivered nowhere.
	if f.a.applies.Load()+f.b.applies.Load() != 0 {
		t.Fatal("participant committed before phase two began")
	}

	// The group heals itself: exactly one standby claims term 2.
	var winner, loser *groupStandby
	waitCond(t, 20*time.Second, "a standby to win the election", func() bool {
		for _, m := range []*groupStandby{sbA, sbB} {
			if m.g.Role() == orb.RoleLeader {
				winner = m
				return true
			}
		}
		return false
	})
	if winner == sbA {
		loser = sbB
	} else {
		loser = sbA
	}
	waitCond(t, 10*time.Second, "the takeover pass to finish", func() bool {
		return winner.takeovers.Load() == 1
	})

	// The winner's log held the decision (the election cannot pick a
	// member missing it) and its takeover re-drove every prepared branch
	// exactly once.
	stats, recovered := winner.takeoverStats()
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 ||
		stats.ResourcesMissing != 0 || stats.ResourcesFailed != 0 {
		t.Fatalf("takeover pass = %+v, want 1 decision, 2 committed", stats)
	}
	if len(recovered) != 0 {
		t.Fatalf("plain 2PC takeover activated %d journal roots, want 0", len(recovered))
	}
	if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
		t.Fatalf("applies = %d/%d, want exactly once each", f.a.applies.Load(), f.b.applies.Load())
	}
	if f.a.commitCalls.Load() != 1 || f.b.commitCalls.Load() != 1 {
		t.Fatalf("commit deliveries = %d/%d, want 1/1", f.a.commitCalls.Load(), f.b.commitCalls.Load())
	}
	if got := winner.log.KnownTerm(); got != 2 {
		t.Fatalf("winner term = %d, want 2 (one election past the dead leader's term 1)", got)
	}
	if loser.takeovers.Load() != 0 {
		t.Fatalf("losing standby ran %d takeovers, want 0", loser.takeovers.Load())
	}

	// The loser demotes onto the new term and streams until byte-identical.
	waitCond(t, 15*time.Second, "the losing standby to converge on the new term", func() bool {
		return loser.g.Role() == orb.RoleFollower &&
			loser.log.KnownTerm() == 2 &&
			loser.log.LastLSN() == winner.log.LastLSN()
	})

	// The replication scrape reflects the healed group: the new leader
	// reports its term and a caught-up follower.
	waitCond(t, 10*time.Second, "the scrape to show a caught-up follower", func() bool {
		sc := winner.g.Scrape()
		if sc.Role != "leader" || sc.Term != 2 || sc.Fenced {
			return false
		}
		for _, fl := range sc.Followers {
			if fl.ID == loser.id && fl.Lag == 0 {
				return true
			}
		}
		return false
	})

	// Participants asking after their fate converge through the winner.
	client := orb.New()
	t.Cleanup(client.Shutdown)
	cl := orb.NewRecoveryClient(client, orb.RecoveryAt(winner.orb.Endpoints()...))
	for _, name := range f.refs {
		st, err := cl.ReplayCompletion(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		if st != ots.StatusCommitted {
			t.Fatalf("fate of %s via new leader = %s, want committed", name, st)
		}
	}
	if f.a.commitCalls.Load() != 1 || f.b.commitCalls.Load() != 1 {
		t.Fatalf("commit deliveries after replay = %d/%d, want still 1/1",
			f.a.commitCalls.Load(), f.b.commitCalls.Load())
	}
}

// TestGroupRejoinDeadLeaderOldWAL: the dead leader comes back. A group
// leader is SIGKILLed at the decision point, its lone standby elects
// itself (term 2) and re-drives the decision; then the harness restarts a
// member on the dead leader's OLD WAL — same path the crashed process
// forced its records to, reopened through the torn-tail repair — with no
// role flags. It must discover the higher term from the new leader and
// demote to a streaming standby of term 2, converging byte-for-byte,
// without a takeover of its own and without disturbing the exactly-once
// outcome.
func TestGroupRejoinDeadLeaderOldWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}

	f := newCrashFixture(t)
	sb := newGroupStandby(t, "sb")
	runReplicatedUntilKilled(t, groupEnv("group", "decision", f.walPath, f.refs, sb), func(endpoints []string) {
		sb.start(t, endpoints, nil)
	})

	// Sole survivor with no peers: the standby elects itself and converges
	// the branches.
	stats := sb.waitTakeover(t)
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 || stats.ResourcesFailed != 0 {
		t.Fatalf("takeover pass = %+v, want 1 decision, 2 committed", stats)
	}
	if got := sb.log.KnownTerm(); got != 2 {
		t.Fatalf("new leader term = %d, want 2", got)
	}

	// Restart the dead leader on its old WAL: no -standby/-peer style
	// bootstrapping beyond the new leader's address, no role flags.
	rejoined := newGroupStandbyAt(t, "leader", f.walPath)
	if got := rejoined.log.KnownTerm(); got != 1 {
		t.Fatalf("reopened leader WAL knows term %d, want its own term 1", got)
	}
	rejoined.start(t, sb.orb.Endpoints(), nil)

	// It adopts term 2 as a follower and streams the successor's history
	// (the re-drive's done record, the term record) until byte-identical.
	waitCond(t, 15*time.Second, "the dead leader to rejoin the new term", func() bool {
		return rejoined.g.Role() == orb.RoleFollower &&
			rejoined.log.KnownTerm() == 2 &&
			rejoined.log.LastLSN() == sb.log.LastLSN()
	})
	if rejoined.takeovers.Load() != 0 {
		t.Fatalf("rejoined member ran %d takeovers, want 0 (it is a standby now)", rejoined.takeovers.Load())
	}
	if rejoined.log.Fenced() {
		t.Fatal("rejoined member still fenced after adopting the new term")
	}

	// The new leader sees its old leader as a caught-up follower.
	waitCond(t, 10*time.Second, "the scrape to show the rejoined follower", func() bool {
		for _, fl := range sb.g.Scrape().Followers {
			if fl.ID == "leader" && fl.Lag == 0 {
				return true
			}
		}
		return false
	})

	// Exactly-once held across the whole failover + rejoin.
	if f.a.applies.Load() != 1 || f.b.applies.Load() != 1 {
		t.Fatalf("applies = %d/%d, want exactly once each", f.a.applies.Load(), f.b.applies.Load())
	}
}

// TestGroupTakeoverBTPActivityJournal: the activity-journal half of the
// group takeover. A group-leader BTP superior journals its atom (begun
// record + recoverable inferior enrollments) into the same replicated log
// that seals its confirm decision, prepares three inferiors over the wire
// and is SIGKILLed between confirm deliveries. The elected successor must
// converge every inferior to confirmed exactly once AND re-activate the
// superior's activity state from the journal — the atom root with all six
// enrolled actions recreated through the named factory.
func TestGroupTakeoverBTPActivityJournal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	k := killBTPSuperiorMidConfirm(t)
	sb := k.successor

	// The journal activated the superior's activity state on the new
	// leader: the atom root came back by name, and all six enrolled
	// actions (three inferiors x prepare+complete set) were recreated
	// through the factory the successor registered.
	_, recovered := sb.takeoverStats()
	if len(recovered) != 1 || recovered[0] != "group-takeover" {
		t.Fatalf("activated journal roots = %v, want [group-takeover]", recovered)
	}
	if got := sb.factoryCalls.Load(); got != 6 {
		t.Fatalf("recreated %d enrolled actions, want 6", got)
	}

	// In-doubt inferiors hear their fate from the successor.
	client := orb.New()
	t.Cleanup(client.Shutdown)
	cl := orb.NewRecoveryClient(client, orb.RecoveryAt(sb.orb.Endpoints()...))
	for i, name := range k.resourceRefs {
		st, err := cl.ReplayCompletion(context.Background(), name)
		if err != nil {
			t.Fatal(err)
		}
		if st != ots.StatusCommitted {
			t.Fatalf("inferior %d fate via successor = %s, want committed", i, st)
		}
	}
}
