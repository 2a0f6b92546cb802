package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/twopc"
	"github.com/extendedtx/activityservice/internal/cdr"
	iots "github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/wal"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// workload is one of the four extended-transaction shapes. Each is a closed
// loop: callers goroutines of this one process each wait for the outcome
// of their unit before they begin the next.
type workload struct {
	name    string
	callers int
	up      func(env *runEnv) (*instance, error)
}

// The four workloads, in the order BENCHMARK.json lists them. Caller counts
// stay within the two cores this benchmark is sized for.
var workloads = []workload{
	{name: "local-2pc", callers: 1, up: upLocal2PC},
	{name: "remote-activity", callers: 2, up: upRemoteActivity},
	{name: "durable-2pc", callers: 2, up: upDurable2PC},
	{name: "replicated-2pc", callers: 1, up: upReplicated2PC},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runEnv is what a bring-up needs from the run.
type runEnv struct {
	in     *inputs
	tmp    string  // fresh directory for this bring-up's logs
	binDir string  // holds the activityd binary
	tr     *tracer // nil when tracing is off
	veto   bool    // make one in-process resource vote rollback (the gate's self-test)
}

// instance is one brought-up stack, ready to run units.
type instance struct {
	// unit runs one begin→outcome transaction and returns nil only when
	// it ended with the correct outcome.
	unit     func(caller, seq int) error
	childPID int // 0 when the workload has no child process
	// check is the exactly-once part of the correctness gate: it is given
	// the number of units that returned nil since bring-up.
	check func(units int64) error
	down  func() error
	// Gauges a traced run samples; nil when the workload has none.
	server func() (shed uint64, queued int, ok bool)
	lag    func() uint64
	// walLastLSN reads the coordinator log's position, 0 without a log.
	walLastLSN func() uint64
}

// inputs are the activity names and application payloads of a run, made
// from the seed and nothing else. The program under test sees only these.
type inputs struct {
	names    []string
	payloads [][]byte
}

const inputPool = 1024

func makeInputs(seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for i := 0; i < inputPool; i++ {
		in.names = append(in.names, fmt.Sprintf("act-%08x-%04d", rng.Uint32(), i))
		p := make([]byte, 16+rng.Intn(241)) // 16..256 bytes
		for j := range p {
			p[j] = 'a' + byte(rng.Intn(26))
		}
		in.payloads = append(in.payloads, p)
	}
	return in
}

func (in *inputs) name(caller, seq int) string {
	return in.names[(caller*7919+seq)%inputPool]
}

func (in *inputs) payload(caller, seq, k int) []byte {
	return in.payloads[(caller*7919+seq*4+k)%inputPool]
}

// ---- local-2pc -----------------------------------------------------------

const localParticipants = 8

// upLocal2PC is fig. 8 with nothing under it: an activity-coordinated 2PC
// over eight no-op resources, volatile, in this process.
func upLocal2PC(env *runEnv) (*instance, error) {
	svc := activityservice.New()
	coord := twopc.NewCoordinator(svc)
	t := &tally{}
	var res [localParticipants]*noopResource
	for i := range res {
		res[i] = &noopResource{t: t, tr: env.tr, veto: env.veto && i == localParticipants/2}
	}
	ctx := context.Background()
	return &instance{
		unit: func(caller, seq int) error {
			tx, err := coord.Begin(env.in.name(caller, seq))
			if err != nil {
				return err
			}
			for _, r := range res {
				if err := tx.Enlist(r); err != nil {
					return err
				}
			}
			ok, err := tx.Commit(ctx)
			if err != nil {
				return err
			}
			if !ok {
				return errors.New("local-2pc: rolled back")
			}
			return nil
		},
		check: func(units int64) error { return t.exactlyOnce(units, localParticipants) },
		down:  func() error { return nil },
	}, nil
}

// exactlyOnce holds when every participant of every unit was prepared once
// and committed once, and none was rolled back.
func (t *tally) exactlyOnce(units int64, participants int) error {
	want := units * int64(participants)
	p, c, r := t.prepares.Load(), t.commits.Load(), t.rollbacks.Load()
	if p != want || c != want || r != 0 {
		return fmt.Errorf("exactly-once: %d units x %d participants want %d prepares and commits, saw %d prepares, %d commits, %d rollbacks",
			units, participants, want, p, c, r)
	}
	return nil
}

// ---- durable-2pc ---------------------------------------------------------

const durableParticipants = 2

// upDurable2PC is the raw transaction service over a file log: every
// decision and done record is one fsync under the log lock, which two
// callers contend for.
func upDurable2PC(env *runEnv) (*instance, error) {
	log, err := ots.OpenFileLog(filepath.Join(env.tmp, "durable.wal"))
	if err != nil {
		return nil, err
	}
	opts := []ots.Option{ots.WithLog(log)}
	if env.tr != nil {
		opts = append(opts, ots.WithEventHook(env.tr.otsHook))
	}
	svc := ots.NewService(opts...)
	t := &tally{}
	// One pair of named resources per caller, so the decision record
	// carries the seed's payload as the recovery names.
	mk := func(caller int) [durableParticipants]*noopResource {
		var res [durableParticipants]*noopResource
		for k := range res {
			res[k] = &noopResource{name: string(env.in.payload(caller, 0, k)), t: t, tr: env.tr,
				veto: env.veto && k == 1}
		}
		return res
	}
	perCaller := [][durableParticipants]*noopResource{mk(0), mk(1)}
	return &instance{
		unit: func(caller, _ int) error {
			t0 := env.tr.now()
			tx := svc.Begin()
			env.tr.txBegin(tx.ID(), t0)
			for _, r := range perCaller[caller] {
				if err := tx.RegisterResource(r); err != nil {
					return err
				}
			}
			return tx.Commit(true)
		},
		check: func(units int64) error {
			if err := t.exactlyOnce(units, durableParticipants); err != nil {
				return err
			}
			return countDecisions(log, 0, units)
		},
		down:       log.Close,
		walLastLSN: log.LastLSN,
	}, nil
}

// countDecisions checks the log holds one decision and one done record per
// committed unit, after skip leading records (the group's term record).
func countDecisions(log *wal.Log, skip, units int64) error {
	recs, err := log.Records()
	if err != nil {
		return err
	}
	var decisions, dones int64
	for _, r := range recs {
		switch r.Kind {
		case iots.RecordDecision:
			decisions++
		case iots.RecordDone:
			dones++
		}
	}
	if decisions != units || dones != units || int64(len(recs)) != skip+2*units {
		return fmt.Errorf("decision log: %d committed units, found %d decisions, %d done records, %d records in all",
			units, decisions, dones, len(recs))
	}
	return nil
}

// ---- remote-activity -----------------------------------------------------

const remoteActions = 4

// upRemoteActivity is the paper's headline deployment: a real activityd
// process coordinates, this process begins activities on it over TCP and
// hosts the actions it signals back to.
func upRemoteActivity(env *runEnv) (*instance, error) {
	daemon, endpoint, err := startActivityd(filepath.Join(env.binDir, "activityd"))
	if err != nil {
		return nil, err
	}
	client := orb.New(env.tr.orbOptions()...)
	// Resolution and the admin scrape go through an ORB of their own, so
	// the traced client's frame counts are the transactions' alone.
	tools := orb.New()
	fail := func(err error) (*instance, error) {
		client.Shutdown()
		tools.Shutdown()
		daemon.kill()
		return nil, err
	}
	if _, err := client.Listen("127.0.0.1:0"); err != nil {
		return fail(err)
	}
	ctx := context.Background()
	factory, err := orb.NewNameClient(tools, orb.NameServiceAt(endpoint)).Resolve(ctx, "activityservice")
	if err != nil {
		return fail(fmt.Errorf("resolve factory: %w", err))
	}
	admin := orb.NewAdminClient(tools, orb.AdminAt(endpoint))
	server := func() (uint64, int, bool) {
		st, ok, err := admin.ServerStats(ctx)
		return st.Shed, st.Queued, ok && err == nil
	}
	return &instance{
		unit: func(caller, seq int) error {
			e := cdr.NewEncoder(32)
			e.WriteString(env.in.name(caller, seq))
			body, err := client.Invoke(ctx, factory, "begin", e.Bytes())
			if err != nil {
				return err
			}
			d := cdr.NewDecoder(body)
			coordRef := orb.DecodeIOR(d)
			if err := d.Err(); err != nil {
				return err
			}
			proxy := orb.NewActivityProxy(client, coordRef)
			var acts [remoteActions]*ackAction
			for k := range acts {
				acts[k] = &ackAction{payload: env.in.payload(caller, seq, k), tr: env.tr}
				ref, err := proxy.AddAction(ctx, activityservice.DefaultCompletionSet, acts[k])
				if err != nil {
					return err
				}
				// The action lives as long as its activity.
				defer client.Deactivate(ref.Key)
			}
			out, err := proxy.Complete(ctx, activityservice.CompletionSuccess)
			if err != nil {
				return err
			}
			if n, _ := out.Data.(int64); out.Name != "completed" || n != remoteActions {
				return fmt.Errorf("remote-activity: outcome %s with %v responses", out.Name, out.Data)
			}
			for _, a := range acts {
				if n := a.signals.Load(); n != 1 {
					return fmt.Errorf("remote-activity: an action saw %d completion signals", n)
				}
			}
			return nil
		},
		childPID: daemon.pid(),
		check: func(int64) error {
			shed, _, ok := server()
			if !ok {
				return errors.New("remote-activity: admin scrape failed")
			}
			if shed != 0 {
				return fmt.Errorf("remote-activity: activityd shed %d requests", shed)
			}
			return nil
		},
		down: func() error {
			client.Shutdown()
			tools.Shutdown()
			return daemon.stop(syscall.SIGTERM)
		},
		server: server,
	}, nil
}

// ---- replicated-2pc ------------------------------------------------------

const replicatedParticipants = 2

// gateInterval is how often a blocked quorum gate re-checks the fence; the
// value activityd's group mode defaults to.
const gateInterval = 2 * time.Second

// upReplicated2PC is the full stack. activityd exposes no remote
// begin/commit for the transaction service it hosts, so the coordinator
// cannot sit behind the daemon: it is composed here from the calls
// activityd's runGroup makes — file WAL, group leader, recovery-hosted
// transaction service behind the quorum decision gate — and the two
// follower members and the two participants live in one peer child.
func upReplicated2PC(env *runEnv) (*instance, error) {
	log, err := ots.OpenFileLog(filepath.Join(env.tmp, "leader.wal"))
	if err != nil {
		return nil, err
	}
	node := orb.New(env.tr.orbOptions()...)
	runCtx, cancelRun := context.WithCancel(context.Background())
	var peer *child
	fail := func(err error) (*instance, error) {
		cancelRun()
		if peer != nil {
			peer.kill()
		}
		node.Shutdown()
		log.Close()
		return nil, err
	}
	leaderEP, err := node.Listen("127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	peer, followers, refs, err := startPeer(leaderEP, env.tmp, env.tr != nil)
	if err != nil {
		return fail(err)
	}

	var g *orb.GroupMember
	var svc *ots.Service
	g = orb.NewGroupMember(node, log, orb.GroupConfig{
		MemberID: "a",
		Peers:    followers,
		Takeover: func(context.Context) error {
			// A majority of three is the leader's own append plus one
			// follower's ack; GroupMember.DecisionGate sizes it the same.
			opts := []ots.Option{ots.WithDecisionGate(env.tr.wrapGate(g.Primary().DecisionGateN(1, gateInterval)))}
			if env.tr != nil {
				opts = append(opts, ots.WithEventHook(env.tr.otsHook))
			}
			res, err := orb.HostRecovery(node, log, opts...)
			svc = res.Service
			return err
		},
	})
	promoteCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = g.Promote(promoteCtx)
	cancel()
	if err != nil {
		return fail(fmt.Errorf("promote: %w", err))
	}
	runDone := make(chan error, 1)
	go func() { runDone <- g.Run(runCtx) }()
	// The replication servant answers now: let the followers stream.
	if err := peer.say("GO"); err != nil {
		return fail(err)
	}
	if line, err := peer.readLine(); err != nil || line != "READY" {
		return fail(fmt.Errorf("peer: want READY, got %q (%v)", line, err))
	}
	res := []ots.NamedResource{
		orb.ImportResource(node, refs[peerRefResource0]),
		orb.ImportResource(node, refs[peerRefResource1]),
	}
	lag := func() uint64 {
		last := log.LastLSN()
		var worst uint64
		for _, acked := range g.Primary().FollowerAcks() {
			if last > acked {
				worst = max(worst, last-acked)
			}
		}
		return worst
	}
	return &instance{
		unit: func(_, _ int) error {
			t0 := env.tr.now()
			tx := svc.Begin()
			env.tr.txBegin(tx.ID(), t0)
			for _, r := range res {
				if err := tx.RegisterResource(r); err != nil {
					return err
				}
			}
			return tx.Commit(true)
		},
		childPID: peer.pid(),
		check: func(units int64) error {
			// One term record, then a decision and a done record per unit.
			if err := countDecisions(log, 1, units); err != nil {
				return err
			}
			if err := followersCaughtUp(node, followers, log.LastLSN()); err != nil {
				return err
			}
			t, busyNs, err := peer.counts()
			if err != nil {
				return err
			}
			if env.tr != nil {
				env.tr.peerBusy = busyNs
			}
			return t.exactlyOnce(units, replicatedParticipants)
		},
		down: func() error {
			// Followers first: a follower that outlives the leader would
			// count failed fetches and stand for election.
			err := peer.finish()
			cancelRun()
			<-runDone
			// Closing the log wakes the fetches parked on it, which the
			// ORB's shutdown would otherwise wait out.
			if cerr := log.Close(); err == nil {
				err = cerr
			}
			node.Shutdown()
			return err
		},
		server: func() (uint64, int, bool) {
			st, ok := node.ServerStats()
			return st.Shed, st.Queued, ok
		},
		lag:        lag,
		walLastLSN: log.LastLSN,
	}, nil
}

// followersCaughtUp waits until both followers durably hold every record
// of the leader's log.
func followersCaughtUp(node *orb.ORB, followers []string, last uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for _, ep := range followers {
		for {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			st, err := orb.FetchReplState(ctx, node, ep)
			cancel()
			if err == nil && st.NextLSN-1 == last {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("follower %s at LSN %d, leader at %d (%v)", ep, st.NextLSN-1, last, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// ---- child processes -----------------------------------------------------

// child is a process this benchmark started and must stop: activityd, or
// this binary in its peer role.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
}

func startChild(cmd *exec.Cmd) (*child, error) {
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &child{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}, nil
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) readLine() (string, error) {
	line, err := c.out.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("read child: %w", err)
	}
	return strings.TrimSuffix(line, "\n"), nil
}

func (c *child) say(line string) error {
	_, err := fmt.Fprintln(c.stdin, line)
	return err
}

func (c *child) kill() {
	_ = c.cmd.Process.Kill() // already gone is fine
	_ = c.cmd.Wait()
}

// reap reads the child's remaining output until it exits, killing it if
// that takes more than 10 s, and returns its exit status.
func (c *child) reap() error {
	drained := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, c.out) // goodbye lines only
		close(drained)
	}()
	var late error
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		_ = c.cmd.Process.Kill()
		<-drained
		late = errors.New("child did not stop within 10s")
	}
	if err := c.cmd.Wait(); late == nil {
		late = err
	}
	return late
}

// stop signals the child and reaps it. A child stopped so soon after its
// start that it had not yet installed its handler dies of the signal; that
// is the stop that was asked for.
func (c *child) stop(sig syscall.Signal) error {
	if err := c.cmd.Process.Signal(sig); err != nil {
		return err
	}
	err := c.reap()
	if ps := c.cmd.ProcessState; ps != nil {
		if ws, ok := ps.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == sig {
			return nil
		}
	}
	return err
}

// finish closes the child's stdin, its cue to end, and reaps it.
func (c *child) finish() error {
	c.stdin.Close()
	return c.reap()
}

// startActivityd runs the daemon with its default flags plus the admin
// servant on a free loopback port, and returns once the factory is bound.
func startActivityd(bin string) (*child, string, error) {
	c, err := startChild(exec.Command(bin, "-admin", "-listen", "127.0.0.1:0"))
	if err != nil {
		return nil, "", fmt.Errorf("start activityd: %w", err)
	}
	endpoint := ""
	for {
		line, err := c.readLine()
		if err != nil {
			c.kill()
			return nil, "", fmt.Errorf("activityd: %w", err)
		}
		if ep, ok := strings.CutPrefix(line, "activityd: serving at "); ok {
			endpoint = ep
		}
		// The admin line is the last thing printed before it serves.
		if strings.HasPrefix(line, "activityd: admin servant") {
			return c, endpoint, nil
		}
	}
}
