// Command activityd is a network activity-coordinator daemon: it hosts an
// Activity Service behind the GIOP-lite ORB so that remote parties can
// create activities, enroll Actions in their SignalSets and drive
// completion across the network — the "transactions spanning a network of
// systems" deployment of the paper's abstract.
//
// The daemon exposes an ActivityFactory servant (operation "begin") bound
// as "activityservice" in the ORB name service. Each created activity gets
// its own coordinator servant, retired when the activity completes;
// clients talk to it through orb.NewActivityProxy.
//
// Usage:
//
//	activityd -listen 127.0.0.1:7411        # serve until interrupted
//	activityd -listen 127.0.0.1:0 -demo     # serve, run a self-test client, exit
//	activityd -listen 127.0.0.1:7411 -listen 127.0.0.1:7412
//	                                        # two listeners: issued IORs carry
//	                                        # both endpoints as profiles and
//	                                        # clients fail over between them
//	activityd -advertise host1:7411 -advertise host2:7411
//	                                        # endpoints minted into IORs
//	                                        # (NAT / load-balancer fronting)
//	activityd -admin                        # serve the "metrics" scrape (server,
//	                                        # endpoint, activity, recovery,
//	                                        # relay and group samples) on the
//	                                        # well-known "orb-admin" key
//	activityd -pool 8 -fanout parallel      # 8 conns per endpoint (7
//	                                        # exclusive lanes, 1 shared),
//	                                        # parallel signal fan-out
//	activityd -fanout tree                  # host the well-known "relay"
//	                                        # servant and fan signals out
//	                                        # through relay trees
//	                                        # (DeliverTree); the default
//	                                        # fan-out is serial
//	activityd -max-inflight 64              # overload protection: bound
//	                                        # concurrent dispatches, queue
//	                                        # up to 128 more, shed the
//	                                        # excess (or any wait past
//	                                        # 100ms) with TRANSIENT
//	activityd -breaker 5 -breaker-open 1s   # client-side circuit breaker
//	                                        # for outgoing calls: 5
//	                                        # failures in a row open it,
//	                                        # one probe per 1s window
//	activityd -max-inflight 64 -priority 8  # reserve 8 dispatch slots for
//	                                        # completion/recovery verbs so
//	                                        # overload sheds first-contact
//	                                        # work, not in-doubt resolution
//	activityd -ots-log /var/lib/activityd/decisions.wal
//	                                        # durable coordinator: a
//	                                        # one-member group leading its
//	                                        # own log — replay decisions on
//	                                        # boot and presume abort for
//	                                        # the activities the journal
//	                                        # left in flight, serve
//	                                        # "ots-recovery"
//	                                        # (replay_completion) and
//	                                        # "wal-replication"
//	activityd -ots-log replica.wal -standby hostA:7411
//	                                        # warm standby with no peers:
//	                                        # stream hostA's log and, when
//	                                        # it is lost, take over alone
//	                                        # (quorum of one: available,
//	                                        # not partition-safe)
//	activityd -member-id a -ots-log a.wal -peer hostB:7412 -peer hostC:7413
//	                                        # group member: the electorate
//	                                        # is self + every -peer, quorum
//	                                        # n/2+1 for both the election
//	                                        # and the decision gate; finds
//	                                        # the leader by probing peers,
//	                                        # or elects one (highest
//	                                        # durable LSN wins, re-drives
//	                                        # 2PC branches and aborts the
//	                                        # journal's open activities).
//	                                        # A deposed leader auto-rejoins
//	                                        # (-rejoin=false makes deposal
//	                                        # fatal instead). A pair naming
//	                                        # each other never
//	                                        # self-promotes: restart the
//	                                        # survivor without -peer
//	activityd -shard-authority -shard a -shard-join
//	                                        # host the fleet's shard map
//	                                        # and serve as its member "a"
//	activityd -shard b -shard-map hostA:7411 -shard-join
//	                                        # fleet member "b": register
//	                                        # into the map at hostA, follow
//	                                        # it, and refuse begins for
//	                                        # keys another member owns
//
// Settings that would do nothing are refused: -priority needs
// -max-inflight, -breaker-open needs -breaker, and -rejoin=false needs
// -ots-log.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/wal"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// FactoryTypeID is the activity factory interface id.
const FactoryTypeID = orb.ActivityFactoryTypeID

// listFlag collects a repeatable string flag ("-listen a -listen b").
type listFlag []string

// String implements flag.Value.
func (f *listFlag) String() string { return strings.Join(*f, ",") }

// Set implements flag.Value, appending one occurrence.
func (f *listFlag) Set(v string) error {
	if v == "" {
		return errors.New("empty value")
	}
	*f = append(*f, v)
	return nil
}

// orbConfig collects the daemon's flag settings.
type orbConfig struct {
	advertise   listFlag
	pool        int
	maxInflight int
	priority    int
	breaker     int
	breakerOpen time.Duration
	otsLog      string
	standby     listFlag
	memberID    string
	peers       listFlag
	noRejoin    bool   // -rejoin=false
	fanout      string // serial (""), parallel or tree

	shardID        string
	shardMap       listFlag
	shardJoin      bool
	shardAuthority bool
}

// options translates the flag values into ORB options, skipping unset ones.
func (c orbConfig) options() []orb.ORBOption {
	var opts []orb.ORBOption
	if c.pool > 0 {
		opts = append(opts, orb.WithPoolSize(c.pool))
	}
	if c.maxInflight > 0 {
		opts = append(opts, orb.WithMaxInflight(c.maxInflight))
		if c.priority > 0 {
			opts = append(opts, orb.WithPriorityOps(c.priority))
		}
	}
	if c.breaker > 0 {
		opts = append(opts, orb.WithCircuitBreaker(c.breaker, c.breakerOpen))
	}
	if len(c.advertise) > 0 {
		opts = append(opts, orb.WithAdvertised(c.advertise...))
	}
	return opts
}

func main() {
	var listens listFlag
	flag.Var(&listens, "listen", "host:port to serve on; repeat for multiple listeners (default 127.0.0.1:7411)")
	demo := flag.Bool("demo", false, "run a self-test client and exit")
	admin := flag.Bool("admin", false, "serve the metrics scrape (server, endpoint, activity, recovery, relay and group samples) on the well-known orb-admin key")
	var cfg orbConfig
	flag.StringVar(&cfg.fanout, "fanout", "serial", "signal fan-out to enrolled actions: serial, parallel, or tree (through relay trees; also hosts the well-known relay servant)")
	flag.Var(&cfg.advertise, "advertise", "endpoint minted into issued IORs instead of the bound address; repeatable")
	flag.IntVar(&cfg.pool, "pool", 0, "client connections per endpoint: n-1 exclusive lanes plus one shared (0 = default 4)")
	flag.IntVar(&cfg.maxInflight, "max-inflight", 0, "max concurrent server dispatches; up to 2x as many wait in a queue, shed with TRANSIENT when it is full or after 100ms (0 = unbounded)")
	flag.IntVar(&cfg.priority, "priority", 0, "dispatch slots out of -max-inflight reserved for completion/recovery verbs (0 = off)")
	flag.StringVar(&cfg.otsLog, "ots-log", "", "file-backed replicated log (transaction decisions + activity journal); makes this daemon a coordinator-group member: crash recovery on boot, the ots-recovery and wal-replication servants. Without -standby/-peer it leads a group of one")
	flag.Var(&cfg.standby, "standby", "replication endpoint of the current leader to start streaming from; repeatable for a multi-homed leader. Only a stream starting point, not an elector: a standby with no -peer takes over alone when the leader is lost")
	flag.StringVar(&cfg.memberID, "member-id", "", "this member's id in its coordinator group (ack watermarks, election tiebreak, term records); default: the first advertised endpoint")
	flag.Var(&cfg.peers, "peer", "replication endpoint of another group member; repeatable. The electorate is this member plus every -peer, and both the election and the decision gate need a majority of it (n/2+1), so a member with peers never promotes itself alone")
	flag.BoolFunc("rejoin", "after being deposed by a higher term, automatically truncate the unreplicated WAL suffix and re-join as a streaming standby; false makes deposal fatal so an operator can inspect the log first (default true)", func(v string) error {
		on, err := strconv.ParseBool(v)
		cfg.noRejoin = !on
		return err
	})
	flag.IntVar(&cfg.breaker, "breaker", 0, "consecutive call failures before an endpoint's circuit opens (0 = off)")
	flag.DurationVar(&cfg.breakerOpen, "breaker-open", 0, "open-circuit window before a half-open probe (0 = default)")
	flag.StringVar(&cfg.shardID, "shard", "", "serve as the fleet member with this id: follow the shard map and refuse begins for keys this member does not own (needs -shard-map unless -shard-authority)")
	flag.Var(&cfg.shardMap, "shard-map", "endpoint of the shard-map authority to follow; repeatable for a multi-homed authority")
	flag.BoolVar(&cfg.shardJoin, "shard-join", false, "register this member (its listen endpoints) into the shard map on boot")
	flag.BoolVar(&cfg.shardAuthority, "shard-authority", false, "host the authoritative shard map on the well-known shard-map key, which serves the shard_* verbs")
	flag.Parse()
	if len(listens) == 0 {
		listens = listFlag{"127.0.0.1:7411"}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, listens, *demo, cfg, *admin)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "activityd:", err)
		os.Exit(1)
	}
}

// run serves until ctx ends (main cancels it on SIGINT or SIGTERM), or,
// with demo, until the self-test client is done.
func run(ctx context.Context, listens []string, demo bool, cfg orbConfig, admin bool) error {
	if demo && len(cfg.advertise) > 0 {
		// The demo drives a loopback client against the daemon's own
		// references; references minted from advertised (externally
		// routed) endpoints would send it off-box.
		return errors.New("-demo drives a local client and cannot be combined with -advertise")
	}
	if cfg.shardID == "" && (cfg.shardJoin || (len(cfg.shardMap) > 0 && !cfg.shardAuthority)) {
		return errors.New("-shard-join and -shard-map need -shard <member-id>")
	}
	if cfg.shardID != "" && len(cfg.shardMap) == 0 && !cfg.shardAuthority {
		return errors.New("-shard needs -shard-map (or -shard-authority to follow the local map)")
	}
	if cfg.otsLog == "" && (cfg.memberID != "" || len(cfg.standby) > 0 || len(cfg.peers) > 0) {
		return errors.New("-member-id, -standby and -peer need -ots-log for this member's durable replica of the group's log")
	}
	if cfg.priority > 0 && cfg.maxInflight <= 0 {
		return errors.New("-priority reserves slots out of -max-inflight and needs it")
	}
	if cfg.breakerOpen > 0 && cfg.breaker <= 0 {
		return errors.New("-breaker-open sets the window of the -breaker circuit and needs it")
	}
	if cfg.noRejoin && cfg.otsLog == "" {
		return errors.New("-rejoin=false governs a deposed group member and needs -ots-log")
	}
	// Remotely created activities coordinate remote actions — the
	// latency-bound regime parallel and tree fan-out target.
	var delivery activityservice.DeliveryPolicy
	switch cfg.fanout {
	case "", "serial":
	case "parallel":
		delivery = activityservice.Parallel()
	case "tree":
		delivery = activityservice.Tree(0)
	default:
		return fmt.Errorf("-fanout %q: want serial, parallel or tree", cfg.fanout)
	}

	var svcOpts []activityservice.Option
	var groupLog *wal.Log
	if cfg.otsLog != "" {
		l, err := ots.OpenFileLog(cfg.otsLog)
		if err != nil {
			return fmt.Errorf("open group log: %w", err)
		}
		groupLog = l
		// Deferred before the ORB's shutdown, so it runs after it: once no
		// dispatch can append, Close syncs the done records the log still
		// buffers. Without it a graceful stop loses them and the next
		// start re-drives their decisions.
		defer func() {
			if err := l.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "activityd: close group log:", err)
			}
		}()
		// The activity journal shares the group's replicated log, so an
		// elected leader learns which activities were left in flight.
		svcOpts = append(svcOpts, activityservice.WithJournal(l))
	}
	node := orb.New(cfg.options()...)
	defer node.Shutdown()
	orb.InstallPropagation(node)
	svc := activityservice.New(svcOpts...)
	factoryOpts := []orb.FactoryOption{orb.WithFactoryDelivery(delivery)}

	ns := orb.NewNameServer()
	ns.Serve(node)
	if cfg.fanout == "tree" {
		orb.ServeRelay(node)
	}
	if admin {
		orb.ServeAdmin(node)
	}

	// Every listener serves the same adapter; IORs issued after the last
	// Listen carry all bound endpoints as profiles.
	for _, listen := range listens {
		endpoint, err := node.Listen(listen)
		if err != nil {
			return err
		}
		fmt.Printf("activityd: serving at %s\n", endpoint)
	}

	// Shard wiring happens after the listeners are bound: joining needs
	// this member's endpoints, and a local authority's reference should
	// carry every live profile.
	if cfg.shardAuthority {
		auth := orb.NewShardAuthority(nil)
		ref := orb.ServeShardMap(node, auth)
		ref, _ = node.IOR(orb.ShardMapKey)
		ns.Bind("shard-map", ref)
		fmt.Printf("activityd: shard-map authority at key %q\n", orb.ShardMapKey)
	}
	if cfg.shardID != "" {
		authEndpoints := []string(cfg.shardMap)
		if len(authEndpoints) == 0 {
			authEndpoints = node.Endpoints()
		}
		authRef := orb.ShardMapAt(authEndpoints...)
		member := orb.NewShardMember(node, cfg.shardID, authRef, orb.WithOnDrain(svc.Drain))
		if cfg.shardJoin {
			joinCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			epoch, err := orb.NewShardMapClient(node, authRef).Add(joinCtx,
				orb.ClusterMember{ID: cfg.shardID, Endpoints: node.Endpoints(), Weight: 1})
			cancel()
			if err != nil {
				return fmt.Errorf("shard join: %w", err)
			}
			fmt.Printf("activityd: joined shard map as %q (epoch %d)\n", cfg.shardID, epoch)
		}
		syncCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := member.Sync(syncCtx)
		cancel()
		if err != nil {
			return fmt.Errorf("shard map sync: %w", err)
		}
		go member.Run(ctx)
		factoryOpts = append(factoryOpts, orb.WithFactoryShard(member))
		fmt.Printf("activityd: sharded as member %q\n", cfg.shardID)
	}

	orb.ServeActivityFactory(node, svc, factoryOpts...)
	factoryRef, _ := node.IOR(orb.ActivityFactoryKey)
	if groupLog != nil {
		if cfg.memberID == "" {
			// Unique in any group by construction, and stable across
			// restarts of a daemon that keeps its address.
			cfg.memberID = factoryRef.Endpoint()
		}
		if err := runGroup(ctx, node, svc, groupLog, cfg); err != nil {
			return err
		}
	}
	// Named only now: a member that boots as leader has settled its
	// journal, so a client that resolves the factory begins beside no
	// recovered activity.
	ns.Bind("activityservice", factoryRef)
	fmt.Printf("activityd: factory IOR %s\n", factoryRef)
	if admin {
		fmt.Printf("activityd: admin servant at key %q\n", orb.AdminKey)
	}

	if demo {
		return runDemo(node.Endpoints())
	}
	<-ctx.Done()
	fmt.Println("activityd: shutting down")
	return nil
}

// gateFenceRecheck is how often a decision gate blocked on missing
// follower acks re-checks whether this member has been fenced.
const gateFenceRecheck = 2 * time.Second

// runGroup hosts one member of a coordinator group — the only way a
// durable activityd runs; a lone -ots-log daemon is a group of one. The
// durable log carries both the transaction decisions and the activity
// journal; replication ships it to every follower, and fenced leader
// election picks the member with the highest durable watermark when the
// leader dies. Takeover re-drives in-doubt transaction branches and
// presumes abort for the activities the journal left in flight. A deposed
// leader truncates its unreplicated suffix and re-joins as a streaming
// follower of the new term (unless -rejoin=false, which makes deposal
// fatal so an operator can inspect the log first). The member runs until
// ctx ends.
func runGroup(ctx context.Context, node *orb.ORB, svc *activityservice.Service, log *wal.Log, cfg orbConfig) error {
	var g *orb.GroupMember
	takeover := func(ctx context.Context) error {
		res, err := orb.HostRecovery(node, log, ots.WithDecisionGate(g.DecisionGate(gateFenceRecheck)))
		if err != nil {
			return err
		}
		stats := res.Stats
		fmt.Printf("activityd: group leader (term %d): replayed %d decisions (%d committed, %d missing, %d failed, %d heuristic)\n",
			log.KnownTerm(), stats.DecisionsReplayed, stats.ResourcesCommitted, stats.ResourcesMissing,
			stats.ResourcesFailed, stats.ResourcesHeuristic)
		roots, err := svc.Recover(log)
		if err != nil {
			return fmt.Errorf("activity journal takeover: %w", err)
		}
		// No coordinator servant is exported for a recovered activity, so
		// no party can ever complete it: presume abort. Breadth-first
		// order lists every child after its parent, so completing it
		// backwards finishes children first; each completion is journaled.
		all := roots
		for i := 0; i < len(all); i++ {
			all = append(all, all[i].Children()...)
		}
		for i := len(all) - 1; i >= 0; i-- {
			if _, err := all[i].CompleteWithStatus(ctx, core.CompletionFail); err != nil {
				return fmt.Errorf("activity journal takeover: presume abort: %w", err)
			}
		}
		fmt.Printf("activityd: activity journal: presumed abort for %d in-flight activities\n", len(all))
		return nil
	}
	g = orb.NewGroupMember(node, log, orb.GroupConfig{
		MemberID:   cfg.memberID,
		Peers:      cfg.peers,
		LeaderHint: cfg.standby,
		Takeover:   takeover,
		OnDemote: func(term uint64, leader string) {
			if cfg.noRejoin {
				fmt.Fprintf(os.Stderr, "activityd: deposed by term %d (leader %q); -rejoin=false, exiting for operator inspection\n", term, leader)
				os.Exit(3)
			}
			fmt.Printf("activityd: deposed by term %d (leader %q) — re-joining as standby\n", term, leader)
		},
	})

	if len(cfg.standby) == 0 && len(cfg.peers) == 0 {
		// Nothing to follow or probe: boot as the group's leader.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := g.Promote(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("group promote: %w", err)
		}
		fmt.Printf("activityd: group member %q leading term %d\n", cfg.memberID, log.KnownTerm())
	} else {
		fmt.Printf("activityd: group member %q standing by (leader hint %s, %d peers)\n",
			cfg.memberID, strings.Join(cfg.standby, ","), len(cfg.peers))
	}
	go func() {
		if err := g.Run(ctx); err != nil && !errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "activityd: group member stopped:", err)
		}
	}()
	return nil
}

// runDemo exercises the daemon from a separate client ORB: resolve the
// factory, create an activity, enroll a local action, complete remotely.
func runDemo(endpoints []string) error {
	ctx := context.Background()
	client := orb.New()
	defer client.Shutdown()
	if _, err := client.Listen("127.0.0.1:0"); err != nil {
		return err
	}

	naming := orb.NewNameClient(client, orb.NameServiceAt(endpoints...))
	factoryRef, err := naming.Resolve(ctx, "activityservice")
	if err != nil {
		return err
	}

	e := cdr.NewEncoder(32)
	e.WriteString("demo-activity")
	body, err := client.Invoke(ctx, factoryRef, "begin", e.Bytes())
	if err != nil {
		return err
	}
	d := cdr.NewDecoder(body)
	coordRef := orb.DecodeIOR(d)
	if err := d.Err(); err != nil {
		return err
	}
	fmt.Printf("demo: created remote activity, coordinator %s\n", coordRef.Key)

	proxy := orb.NewActivityProxy(client, coordRef)
	if _, err := proxy.AddAction(ctx, activityservice.DefaultCompletionSet,
		activityservice.ActionFunc(func(_ context.Context, sig activityservice.Signal) (activityservice.Outcome, error) {
			fmt.Printf("demo: local action received %s from remote coordinator\n", sig)
			return activityservice.Outcome{Name: "acknowledged"}, nil
		})); err != nil {
		return err
	}
	out, err := proxy.Complete(ctx, activityservice.CompletionSuccess)
	if err != nil {
		return err
	}
	fmt.Printf("demo: remote completion outcome %s (%v responses)\n", out.Name, out.Data)
	return nil
}
