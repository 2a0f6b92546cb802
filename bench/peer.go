package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// The replicated-2pc workload re-executes this binary as its one child: the
// peer hosts the two follower members of the coordinator group, each with
// its own ORB and file WAL, and the two transaction participants. The seam
// probes start one too, for the other end of their loopback calls, and end
// it before GO. Protocol on the pipes, one line each:
//
//	child  -> parent: PEER <follower b endpoint> <follower c endpoint>
//	child  -> parent: <stringified IOR>, four times: the two participants,
//	                  an empty-operation servant, a no-op action
//	parent -> child:  GO            (the leader's replication servant answers)
//	child  -> parent: READY         (both followers are streaming)
//	parent -> child:  COUNTS
//	child  -> parent: COUNTS <prepares> <commits> <rollbacks> <busy ns>
//	parent closes stdin             (stop following, exit)
const (
	peerRoleEnv   = "ACTIVITY_BENCH_PEER"
	peerLeaderEnv = "ACTIVITY_BENCH_LEADER"
	peerTmpEnv    = "ACTIVITY_BENCH_TMP"
	peerTraceEnv  = "ACTIVITY_BENCH_TRACE"
)

// peerRefs are the references a peer announces, in order.
const (
	peerRefResource0 = iota
	peerRefResource1
	peerRefEcho
	peerRefAction
	peerRefCount
)

// startPeer re-executes this binary in the peer role and reads its
// announcement: the followers' endpoints and the servants' references.
func startPeer(leaderEndpoint, tmp string, traced bool) (*child, []string, []orb.IOR, error) {
	c, err := spawnPeer(leaderEndpoint, tmp, traced)
	if err != nil {
		return nil, nil, nil, err
	}
	line, err := c.readLine()
	if err != nil {
		c.kill()
		return nil, nil, nil, err
	}
	f := strings.Fields(line)
	if len(f) != 3 || f[0] != "PEER" {
		c.kill()
		return nil, nil, nil, fmt.Errorf("peer: want PEER b c, got %q", line)
	}
	var refs []orb.IOR
	for i := 0; i < peerRefCount; i++ {
		line, err := c.readLine()
		if err != nil {
			c.kill()
			return nil, nil, nil, err
		}
		ref, err := orb.ParseIOR(line)
		if err != nil {
			c.kill()
			return nil, nil, nil, fmt.Errorf("peer reference %d: %w", i, err)
		}
		refs = append(refs, ref)
	}
	return c, f[1:], refs, nil
}

func spawnPeer(leaderEndpoint, tmp string, traced bool) (*child, error) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		peerRoleEnv+"=1",
		peerLeaderEnv+"="+leaderEndpoint,
		peerTmpEnv+"="+tmp,
		peerTraceEnv+"="+strconv.FormatBool(traced),
	)
	c, err := startChild(cmd)
	if err != nil {
		return nil, fmt.Errorf("start peer: %w", err)
	}
	return c, nil
}

// counts asks the peer what its participants have seen so far.
func (c *child) counts() (*tally, int64, error) {
	if err := c.say("COUNTS"); err != nil {
		return nil, 0, err
	}
	line, err := c.readLine()
	if err != nil {
		return nil, 0, err
	}
	var p, cm, r, busy int64
	if _, err := fmt.Sscanf(line, "COUNTS %d %d %d %d", &p, &cm, &r, &busy); err != nil {
		return nil, 0, fmt.Errorf("peer: want COUNTS, got %q", line)
	}
	t := &tally{}
	t.prepares.Store(p)
	t.commits.Store(cm)
	t.rollbacks.Store(r)
	return t, busy, nil
}

// maybePeer turns this process into the peer child when the re-exec
// environment says so. It does not return in that case.
func maybePeer() {
	if os.Getenv(peerRoleEnv) == "" {
		return
	}
	if err := peerMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench peer:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func peerMain() error {
	leader := os.Getenv(peerLeaderEnv)
	tmp := os.Getenv(peerTmpEnv)
	var tr *tracer
	if os.Getenv(peerTraceEnv) == "true" {
		tr = newTracer()
		tr.on.Store(true)
	}

	// The participants.
	resNode := orb.New()
	defer resNode.Shutdown()
	if _, err := resNode.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	t := &tally{}
	var refs []string
	for i := 0; i < replicatedParticipants; i++ {
		refs = append(refs, orb.ExportResource(resNode, &noopResource{t: t, tr: tr}).String())
	}
	refs = append(refs,
		resNode.RegisterServant("IDL:Bench/Echo:1.0", orb.ServantFunc(
			func(context.Context, string, *cdr.Decoder) ([]byte, error) { return nil, nil })).String(),
		orb.ExportAction(resNode, &ackAction{}).String())

	// The two followers: listening from birth, streaming once told to.
	type follower struct {
		id       string
		node     *orb.ORB
		endpoint string
	}
	followers := []*follower{{id: "b"}, {id: "c"}}
	for _, f := range followers {
		f.node = orb.New()
		defer f.node.Shutdown()
		ep, err := f.node.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		f.endpoint = ep
	}
	fmt.Printf("PEER %s %s\n", followers[0].endpoint, followers[1].endpoint)
	fmt.Println(strings.Join(refs, "\n"))

	in := bufio.NewScanner(os.Stdin)
	if !in.Scan() {
		return in.Err() // the parent only wanted the servants
	}
	if in.Text() != "GO" {
		return fmt.Errorf("handshake: want GO, got %q", in.Text())
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, len(followers))
	for i, f := range followers {
		log, err := ots.OpenFileLog(filepath.Join(tmp, "follower-"+f.id+".wal"))
		if err != nil {
			cancel()
			return err
		}
		defer log.Close()
		g := orb.NewGroupMember(f.node, log, orb.GroupConfig{
			MemberID:   f.id,
			Peers:      []string{leader, followers[1-i].endpoint},
			LeaderHint: []string{leader},
		})
		go func() { done <- g.Run(ctx) }()
	}
	fmt.Println("READY")

	for in.Scan() {
		if in.Text() == "COUNTS" {
			var busy int64
			if tr != nil {
				busy = tr.busyNs.Load()
			}
			fmt.Printf("COUNTS %d %d %d %d\n", t.prepares.Load(), t.commits.Load(), t.rollbacks.Load(), busy)
		}
	}
	cancel()
	var firstErr error
	for range followers {
		if err := <-done; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
