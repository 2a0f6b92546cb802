// Benchmarks reproducing the cost of every protocol artifact in the
// paper's evaluation (figs. 1, 2, 5, 8–12 and the §3.3/§3.4 mechanisms),
// property-group propagation behaviours and delivery-guarantee levels,
// plus the transport configurations (remote and relay-tree fan-out,
// overload, failover) whose allocation budgets allocs_test.go gates.
// Speed claims are made by the bench/ harness, not here (bench/README.md).
package activityservice_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/btp"
	"github.com/extendedtx/activityservice/hls/lruow"
	"github.com/extendedtx/activityservice/hls/opennested"
	"github.com/extendedtx/activityservice/hls/saga"
	"github.com/extendedtx/activityservice/hls/twopc"
	"github.com/extendedtx/activityservice/hls/workflow"
	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/lockmgr"
	"github.com/extendedtx/activityservice/internal/store"
	"github.com/extendedtx/activityservice/internal/wal"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// openMemory reopens a journal snapshot, simulating a restart.
func openMemory(snap []byte) (*wal.Log, error) { return wal.OpenMemory(snap) }

func noopAction() activityservice.Action {
	return activityservice.ActionFunc(
		func(context.Context, activityservice.Signal) (activityservice.Outcome, error) {
			return activityservice.Outcome{Name: "ok"}, nil
		})
}

// okResource is a minimal always-commit participant.
type okResource struct{}

func (okResource) Prepare() (ots.Vote, error) { return ots.VoteCommit, nil }
func (okResource) Commit() error              { return nil }
func (okResource) Rollback() error            { return nil }
func (okResource) CommitOnePhase() error      { return nil }
func (okResource) Forget() error              { return nil }

// BenchmarkFig01LongRunningChain measures fig. 1: a long-running activity
// as a chain of n coordinated short units.
func BenchmarkFig01LongRunningChain(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{2, 6, 16} {
		b.Run(fmt.Sprintf("steps=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			svc := activityservice.New()
			engine := workflow.New(svc)
			ok := func(context.Context) error { return nil }
			var tasks []workflow.Task
			for i := 0; i < n; i++ {
				t := workflow.Task{Name: fmt.Sprintf("t%d", i+1), Run: ok}
				if i > 0 {
					t.DependsOn = []string{fmt.Sprintf("t%d", i)}
				}
				tasks = append(tasks, t)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := engine.Execute(ctx, workflow.Process{Name: "chain", Tasks: tasks})
				if err != nil || !res.Ok {
					b.Fatalf("res=%+v err=%v", res, err)
				}
			}
		})
	}
}

// BenchmarkFig02CompensationChain measures fig. 2: the chain with a step-4
// failure, one compensation and two alternatives.
func BenchmarkFig02CompensationChain(b *testing.B) {
	b.ReportAllocs()
	svc := activityservice.New()
	engine := workflow.New(svc)
	ok := func(context.Context) error { return nil }
	fail := func(context.Context) error { return errors.New("t4 aborts") }
	p := workflow.Process{
		Name: "booking",
		Tasks: []workflow.Task{
			{Name: "t1", Run: ok},
			{Name: "t2", DependsOn: []string{"t1"}, Run: ok, Compensate: ok},
			{Name: "t3", DependsOn: []string{"t2"}, Run: ok},
			{Name: "t4", DependsOn: []string{"t3"}, Run: fail},
		},
		OnFailure: map[string]workflow.Continuation{
			"t4": {Compensate: []string{"t2"}, Alternatives: []workflow.Task{
				{Name: "t5'", Run: ok},
				{Name: "t6'", DependsOn: []string{"t5'"}, Run: ok},
			}},
		},
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Execute(ctx, p)
		if err != nil || !res.Ok {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// deliveryPolicies are the flat policies the fan-out benchmarks compare.
var deliveryPolicies = []struct {
	name   string
	policy activityservice.DeliveryPolicy
}{
	{"serial", activityservice.DeliveryPolicy{Mode: activityservice.DeliverSerial}},
	{"parallel", activityservice.Parallel()},
}

// broadcastRound returns one fig. 5 broadcast: begin an activity, register
// every action on one sequence set, signal it and complete.
func broadcastRound(tb testing.TB, policy activityservice.DeliveryPolicy, actions []activityservice.Action) func() {
	svc := activityservice.New(activityservice.WithDelivery(policy))
	ctx := context.Background()
	return func() {
		a := svc.Begin("fanout")
		set := activityservice.NewSequenceSet("s", "ping")
		if err := a.RegisterSignalSet(set); err != nil {
			tb.Fatal(err)
		}
		for _, action := range actions {
			if _, err := a.AddAction("s", action); err != nil {
				tb.Fatal(err)
			}
		}
		if _, err := a.Signal(ctx, "s"); err != nil {
			tb.Fatal(err)
		}
		if _, err := a.Complete(ctx); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkFig05SignalFanout measures the fig. 5 broadcast: one signal set
// delivering to n registered actions.
func BenchmarkFig05SignalFanout(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{1, 4, 16, 64, 256} {
		b.Run(fmt.Sprintf("actions=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			actions := make([]activityservice.Action, n)
			for i := range actions {
				actions[i] = noopAction()
			}
			round := broadcastRound(b, activityservice.DeliveryPolicy{}, actions)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				round()
			}
		})
	}
}

// BenchmarkParallelFanout compares serial and parallel delivery of one
// fig. 5 broadcast side by side, with and without simulated per-action
// latency: the parallel engine's reason to exist is the latency-bound
// regime, where serial delivery pays fanout×latency per signal and
// parallel pays ~ceil(fanout/workers)×latency.
func BenchmarkParallelFanout(b *testing.B) {
	b.ReportAllocs()
	latencyAction := func(d time.Duration) activityservice.Action {
		if d == 0 {
			return noopAction()
		}
		return activityservice.ActionFunc(
			func(ctx context.Context, _ activityservice.Signal) (activityservice.Outcome, error) {
				select {
				case <-ctx.Done():
					return activityservice.Outcome{Name: "interrupted"}, nil
				case <-time.After(d):
					return activityservice.Outcome{Name: "ok"}, nil
				}
			})
	}
	for _, fanout := range []int{8, 64, 512} {
		for _, latency := range []time.Duration{0, 100 * time.Microsecond} {
			for _, p := range deliveryPolicies {
				name := fmt.Sprintf("fanout=%d/latency=%s/%s", fanout, latency, p.name)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					actions := make([]activityservice.Action, fanout)
					for i := range actions {
						actions[i] = latencyAction(latency)
					}
					round := broadcastRound(b, p.policy, actions)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						round()
					}
				})
			}
		}
	}
}

// remoteFanout returns one BenchmarkRemoteFanout round: fanout actions
// behind a server ORB, each holding its node for 100µs, imported through
// a client ORB with a pool-connection pool.
func remoteFanout(tb testing.TB, fanout, pool int, policy activityservice.DeliveryPolicy) func() {
	const actionLatency = 100 * time.Microsecond
	serverORB := orb.New()
	tb.Cleanup(serverORB.Shutdown)
	if _, err := serverORB.Listen("127.0.0.1:0"); err != nil {
		tb.Fatal(err)
	}
	clientORB := orb.New(orb.WithPoolSize(pool))
	tb.Cleanup(clientORB.Shutdown)
	actions := make([]activityservice.Action, fanout)
	for i := range actions {
		ref := orb.ExportAction(serverORB, activityservice.ActionFunc(
			func(context.Context, activityservice.Signal) (activityservice.Outcome, error) {
				time.Sleep(actionLatency)
				return activityservice.Outcome{Name: "ok"}, nil
			}))
		ref, _ = serverORB.IOR(ref.Key)
		actions[i] = orb.ImportAction(clientORB, ref)
	}
	return broadcastRound(tb, policy, actions)
}

// BenchmarkRemoteFanout measures the distributed fig. 5 broadcast: one
// signal fanned out to actions behind the ORB over TCP, across delivery
// policy (serial vs parallel) and client connection pool size. Each remote
// action holds its node for 100µs, so serial delivery pays
// fanout×(RTT+100µs) per signal while parallel delivery through the pooled
// transport overlaps the round trips — the regime ROADMAP queued behind
// connection pooling.
func BenchmarkRemoteFanout(b *testing.B) {
	b.ReportAllocs()
	for _, fanout := range []int{8, 64} {
		for _, pool := range []int{1, 4, 16} {
			for _, p := range deliveryPolicies {
				name := fmt.Sprintf("fanout=%d/pool=%d/%s", fanout, pool, p.name)
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					round := remoteFanout(b, fanout, pool, p.policy)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						round()
					}
				})
			}
		}
	}
}

// treeFanout returns one BenchmarkTreeFanout round: fanout no-op
// participants spread over sites site ORBs that each host the
// well-known relay servant, imported into one coordinator ORB built with
// clientOpts.
func treeFanout(tb testing.TB, fanout, sites int, policy activityservice.DeliveryPolicy, clientOpts ...orb.ORBOption) func() {
	siteORBs := make([]*orb.ORB, sites)
	for i := range siteORBs {
		siteORBs[i] = orb.New()
		tb.Cleanup(siteORBs[i].Shutdown)
		if _, err := siteORBs[i].Listen("127.0.0.1:0"); err != nil {
			tb.Fatal(err)
		}
		orb.ServeRelay(siteORBs[i])
	}
	clientORB := orb.New(clientOpts...)
	tb.Cleanup(clientORB.Shutdown)
	actions := make([]activityservice.Action, fanout)
	for i := range actions {
		site := siteORBs[i%sites]
		ref := orb.ExportAction(site, noopAction())
		ref, _ = site.IOR(ref.Key)
		actions[i] = orb.ImportAction(clientORB, ref)
	}
	return broadcastRound(tb, policy, actions)
}

// BenchmarkTreeFanout measures relay-tree delivery against flat parallel
// delivery over TCP: participants spread across site ORBs that each host
// the well-known relay servant, so tree mode ships one batch per subtree
// root (a constant-size plant-id reference after the first round) while
// flat mode writes one frame per participant. TestAllocsTreeFanout gates
// the tree configurations' allocations: the steady-state relay hot path —
// ref batch encode, servant dispatch, result aggregation — must not
// regress into per-member allocations.
func BenchmarkTreeFanout(b *testing.B) {
	b.ReportAllocs()
	const sites = 4
	policies := []struct {
		name   string
		policy activityservice.DeliveryPolicy
	}{
		{"flat", activityservice.Parallel()},
		{"tree", activityservice.Tree(8)},
	}
	for _, fanout := range []int{64, 256} {
		for _, p := range policies {
			name := fmt.Sprintf("fanout=%d/sites=%d/%s", fanout, sites, p.name)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				round := treeFanout(b, fanout, sites, p.policy)
				// One warm-up round dials the connections and plants the
				// memberships; the measured rounds are the steady state.
				round()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					round()
				}
			})
		}
	}
}

// twoPhaseCommit returns one BenchmarkFig08TwoPhaseCommit commit: begin an
// in-process 2PC activity, enlist participants no-op resources, commit.
func twoPhaseCommit(tb testing.TB, participants int) func() {
	coord := twopc.NewCoordinator(activityservice.New())
	ctx := context.Background()
	return func() {
		tx, err := coord.Begin("bench")
		if err != nil {
			tb.Fatal(err)
		}
		for j := 0; j < participants; j++ {
			if err := tx.Enlist(okResource{}); err != nil {
				tb.Fatal(err)
			}
		}
		committed, err := tx.Commit(ctx)
		if err != nil || !committed {
			tb.Fatalf("committed=%v err=%v", committed, err)
		}
	}
}

// BenchmarkFig08TwoPhaseCommit measures the fig. 8 protocol over a sweep
// of participant counts. TestAllocsTwoPhaseCommit gates the allocations
// of the 8-participant configuration.
func BenchmarkFig08TwoPhaseCommit(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{1, 2, 8, 32, 128} {
		b.Run(fmt.Sprintf("participants=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			commit := twoPhaseCommit(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				commit()
			}
		})
	}
}

// BenchmarkFig09OpenNested measures the §4.2 structure: B commits inside
// A; A then commits (no compensation) or aborts (compensation runs).
func BenchmarkFig09OpenNested(b *testing.B) {
	b.ReportAllocs()
	for _, aCommits := range []bool{true, false} {
		name := "A-commits"
		if !aCommits {
			name = "A-aborts-compensation"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			svc := activityservice.New()
			ctx := context.Background()
			noop := func(context.Context) error { return nil }
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, err := opennested.Begin(svc, "A", nil)
				if err != nil {
					b.Fatal(err)
				}
				bb, err := opennested.Begin(svc, "B", a)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bb.AddCompensation(svc, "!B", noop); err != nil {
					b.Fatal(err)
				}
				if _, err := bb.Complete(ctx, true); err != nil {
					b.Fatal(err)
				}
				if _, err := a.Complete(ctx, aCommits); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig10Workflow measures the fig. 10 graph: parallel b, c then d.
func BenchmarkFig10Workflow(b *testing.B) {
	b.ReportAllocs()
	svc := activityservice.New()
	engine := workflow.New(svc)
	ok := func(context.Context) error { return nil }
	p := workflow.Process{
		Name: "a",
		Tasks: []workflow.Task{
			{Name: "b", Run: ok},
			{Name: "c", Run: ok},
			{Name: "d", DependsOn: []string{"b", "c"}, Run: ok},
		},
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := engine.Execute(ctx, p)
		if err != nil || !res.Ok {
			b.Fatalf("res=%+v err=%v", res, err)
		}
	}
}

// btpParticipant is a minimal always-successful BTP participant.
type btpParticipant struct{}

func (btpParticipant) Prepare() error { return nil }
func (btpParticipant) Confirm() error { return nil }
func (btpParticipant) Cancel() error  { return nil }

// BenchmarkFig11BTPPrepare measures the fig. 11 exchange.
func BenchmarkFig11BTPPrepare(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("participants=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			svc := activityservice.New()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				atom, err := btp.NewAtom(svc, "bench")
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < n; j++ {
					if err := atom.Enroll(btpParticipant{}); err != nil {
						b.Fatal(err)
					}
				}
				if err := atom.Prepare(ctx); err != nil {
					b.Fatal(err)
				}
				if err := atom.Cancel(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12BTPConfirm measures fig. 12: prepare then confirm.
func BenchmarkFig12BTPConfirm(b *testing.B) {
	b.ReportAllocs()
	svc := activityservice.New()
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		atom, err := btp.NewAtom(svc, "bench")
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 2; j++ {
			if err := atom.Enroll(btpParticipant{}); err != nil {
				b.Fatal(err)
			}
		}
		if err := atom.Prepare(ctx); err != nil {
			b.Fatal(err)
		}
		if err := atom.Confirm(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13UserActivityDemarcation measures the fig. 13 layered API:
// begin/complete through UserActivity.
func BenchmarkFig13UserActivityDemarcation(b *testing.B) {
	b.ReportAllocs()
	svc := activityservice.New()
	ua := activityservice.NewUserActivity(svc)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		actx, _, err := ua.Begin(ctx, "bench")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ua.Complete(actx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaga measures the saga model: n steps committed, or failure at
// the end with full backward recovery.
func BenchmarkSaga(b *testing.B) {
	b.ReportAllocs()
	ok := func(context.Context) error { return nil }
	for _, mode := range []string{"commit", "compensate"} {
		b.Run(mode+"/steps=8", func(b *testing.B) {
			b.ReportAllocs()
			svc := activityservice.New()
			ctx := context.Background()
			var steps []saga.Step
			for i := 0; i < 8; i++ {
				steps = append(steps, saga.Step{
					Name: fmt.Sprintf("s%d", i), Run: ok, Compensate: ok,
				})
			}
			if mode == "compensate" {
				steps = append(steps, saga.Step{Name: "boom",
					Run: func(context.Context) error { return errors.New("fail") }})
			}
			s := saga.New(svc, "bench", steps...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := s.Execute(ctx)
				if mode == "commit" && err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLRUOW measures §4.3 rehearsal + performance over k touched keys.
func BenchmarkLRUOW(b *testing.B) {
	b.ReportAllocs()
	for _, keys := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			b.ReportAllocs()
			svc := activityservice.New()
			st := store.New()
			locks := lockmgr.New()
			for i := 0; i < keys; i++ {
				st.Put(fmt.Sprintf("k%d", i), []byte("v"))
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				u := lruow.Begin(svc, "bench", st, locks, time.Second)
				for j := 0; j < keys; j++ {
					key := fmt.Sprintf("k%d", j)
					if _, _, err := u.Read(key); err != nil {
						b.Fatal(err)
					}
					if err := u.Write(key, []byte("w")); err != nil {
						b.Fatal(err)
					}
				}
				if err := u.Complete(ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDelivery compares §3.4 delivery guarantees: plain at-least-once
// (idempotence left to the action), dedup-wrapped, and transactional
// exactly-once.
func BenchmarkDelivery(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	mk := func(wrap func(activityservice.Action) activityservice.Action) func(*testing.B) {
		return func(b *testing.B) {
			svc := activityservice.New()
			for i := 0; i < b.N; i++ {
				a := svc.Begin("bench")
				set := activityservice.NewSequenceSet("s", "apply")
				if err := a.RegisterSignalSet(set); err != nil {
					b.Fatal(err)
				}
				// A fresh wrapper per protocol run: the memoisation is
				// per-delivery-history, as it would be in production.
				if _, err := a.AddAction("s", wrap(noopAction())); err != nil {
					b.Fatal(err)
				}
				if _, err := a.Signal(ctx, "s"); err != nil {
					b.Fatal(err)
				}
				if _, err := a.Complete(ctx); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("at-least-once", mk(func(a activityservice.Action) activityservice.Action { return a }))
	b.Run("idempotent-dedup", mk(activityservice.Idempotent))
	txsvc := ots.NewService()
	b.Run("exactly-once-tx", mk(func(a activityservice.Action) activityservice.Action {
		return activityservice.ExactlyOnce(txsvc, a)
	}))
}

// BenchmarkPropertyGroup measures §3.3 nesting behaviours across child
// chains.
func BenchmarkPropertyGroup(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	for _, vis := range []struct {
		name string
		v    activityservice.NestedVisibility
	}{
		{"shared", activityservice.VisibilityShared},
		{"copy", activityservice.VisibilityCopy},
		{"read-only", activityservice.VisibilityReadOnly},
	} {
		b.Run(vis.name+"/depth=16", func(b *testing.B) {
			b.ReportAllocs()
			svc := activityservice.New()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				root := svc.Begin("root")
				pg := activityservice.NewTupleSpace("env", vis.v, activityservice.PropagateByValue)
				for k := 0; k < 8; k++ {
					if err := pg.Set(fmt.Sprintf("key%d", k), int64(k)); err != nil {
						b.Fatal(err)
					}
				}
				if err := root.AddPropertyGroup(pg); err != nil {
					b.Fatal(err)
				}
				cur := root
				chain := []*activityservice.Activity{root}
				for d := 0; d < 16; d++ {
					child, err := cur.BeginChild(fmt.Sprintf("c%d", d))
					if err != nil {
						b.Fatal(err)
					}
					g, _ := child.PropertyGroup("env")
					if _, ok := g.Get("key0"); !ok {
						b.Fatal("property lost in child")
					}
					chain = append(chain, child)
					cur = child
				}
				for j := len(chain) - 1; j >= 0; j-- {
					if _, err := chain[j].Complete(ctx); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkRemote2PC measures the distribution cost: the fig. 8 protocol
// with participants behind the ORB, in-process vs TCP.
func BenchmarkRemote2PC(b *testing.B) {
	b.ReportAllocs()
	run := func(b *testing.B, tcp bool) {
		serverORB := orb.New()
		defer serverORB.Shutdown()
		clientORB := orb.New()
		defer clientORB.Shutdown()
		refs := make([]orb.IOR, 2)
		for i := range refs {
			refs[i] = orb.ExportAction(serverORB, resourceAction())
		}
		if tcp {
			if _, err := serverORB.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			for i := range refs {
				refs[i], _ = serverORB.IOR(refs[i].Key)
			}
		}
		svc := activityservice.New()
		coord := twopc.NewCoordinator(svc)
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tx, err := coord.Begin("bench")
			if err != nil {
				b.Fatal(err)
			}
			for _, ref := range refs {
				if err := tx.EnlistAction(orb.ImportAction(clientORB, ref)); err != nil {
					b.Fatal(err)
				}
			}
			committed, err := tx.Commit(ctx)
			if err != nil || !committed {
				b.Fatalf("committed=%v err=%v", committed, err)
			}
		}
	}
	b.Run("inproc", func(b *testing.B) { run(b, false) })
	b.Run("tcp", func(b *testing.B) { run(b, true) })
}

// resourceAction builds a remote-safe 2PC participant action.
func resourceAction() activityservice.Action {
	ra := twopc.NewResourceAction(okResource{})
	return ra
}

// BenchmarkRecoveryReplay measures §3.4 recovery: journal n activities,
// then rebuild the tree from the log.
func BenchmarkRecoveryReplay(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{10, 100} {
		b.Run(fmt.Sprintf("activities=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			log := ots.NewMemoryLog()
			svc := activityservice.New(activityservice.WithJournal(log))
			for i := 0; i < n; i++ {
				svc.Begin(fmt.Sprintf("a%d", i))
			}
			snap, err := log.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				replayLog, err := openMemory(snap)
				if err != nil {
					b.Fatal(err)
				}
				fresh := activityservice.New()
				roots, err := fresh.Recover(replayLog)
				if err != nil {
					b.Fatal(err)
				}
				if len(roots) != n {
					b.Fatalf("recovered %d roots, want %d", len(roots), n)
				}
			}
		})
	}
}

// BenchmarkOTSNestedCommit measures nested transaction cost by depth.
func BenchmarkOTSNestedCommit(b *testing.B) {
	b.ReportAllocs()
	for _, depth := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			svc := ots.NewService()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				top := svc.Begin()
				cur := top
				subs := make([]*ots.Transaction, 0, depth)
				for d := 0; d < depth; d++ {
					sub, err := cur.BeginSubtransaction()
					if err != nil {
						b.Fatal(err)
					}
					subs = append(subs, sub)
					cur = sub
				}
				if err := cur.RegisterResource(okResource{}); err != nil {
					b.Fatal(err)
				}
				for d := len(subs) - 1; d >= 0; d-- {
					if err := subs[d].Commit(false); err != nil {
						b.Fatal(err)
					}
				}
				if err := top.Commit(false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// watchGoroutinePeak samples the process goroutine count every
// millisecond until the returned stop function is called, recording the
// peak. Shared by the saturation benchmark and chaos test.
func watchGoroutinePeak() (*atomic.Int64, func()) {
	peak := &atomic.Int64{}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if g := int64(runtime.NumGoroutine()); g > peak.Load() {
				peak.Store(g)
			}
		}
	}()
	return peak, func() { close(stop); <-done }
}

// BenchmarkOverload measures the admission controller at saturation: a
// servant with fixed work time behind a bounded server, hammered by a
// fixed fan-in of closed-loop callers. Reported per configuration: p99
// client-observed latency across all responses (successes and sheds — the
// responsiveness a caller sees) and the peak goroutine count. Unbounded
// dispatch buys nothing at saturation but pays for it in goroutines and
// tail latency; the admission-bounded server keeps both flat by shedding
// the excess fast.
func BenchmarkOverload(b *testing.B) {
	b.ReportAllocs()
	const (
		fanIn       = 64
		servantWork = 200 * time.Microsecond
	)
	run := func(b *testing.B, opts ...orb.ORBOption) {
		node := orb.New(opts...)
		defer node.Shutdown()
		ref := node.RegisterServant("IDL:bench/Slow:1.0", orb.ServantFunc(
			func(ctx context.Context, op string, _ *cdr.Decoder) ([]byte, error) {
				select {
				case <-time.After(servantWork):
				case <-ctx.Done():
				}
				return nil, nil
			}))
		if _, err := node.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		ref, _ = node.IOR(ref.Key)
		client := orb.New(orb.WithPoolSize(8), orb.WithCallTimeout(10*time.Second))
		defer client.Shutdown()

		peak, stopWatch := watchGoroutinePeak()

		// Closed loop: fanIn workers share b.N calls; every latency —
		// shed or served — lands in the percentile pool.
		var next atomic.Int64
		latencies := make([]time.Duration, b.N)
		var shed atomic.Int64
		b.ResetTimer()
		var wg sync.WaitGroup
		for w := 0; w < fanIn; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := context.Background()
				for {
					i := next.Add(1) - 1
					if i >= int64(b.N) {
						return
					}
					start := time.Now()
					_, err := client.Invoke(ctx, ref, "work", nil)
					latencies[i] = time.Since(start)
					if err != nil {
						if !orb.IsSystem(err, orb.CodeTransient) {
							b.Error(err)
							return
						}
						shed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		stopWatch()

		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		p99 := latencies[len(latencies)*99/100]
		b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
		b.ReportMetric(float64(peak.Load()), "peak-goroutines")
		b.ReportMetric(float64(shed.Load())/float64(b.N)*100, "shed-%")
	}

	b.Run(fmt.Sprintf("fanin=%d/unbounded", fanIn), func(b *testing.B) {
		b.ReportAllocs()
		run(b)
	})
	for _, limit := range []int{8, 16} {
		b.Run(fmt.Sprintf("fanin=%d/maxinflight=%d", fanIn, limit), func(b *testing.B) {
			b.ReportAllocs()
			run(b,
				orb.WithMaxInflight(limit),
				orb.WithAdmissionQueue(limit, 5*time.Millisecond),
			)
		})
	}
}

// BenchmarkFailover prices the multi-profile endpoint selector against the
// PR-3 single-endpoint invoke path. "single-profile" is the baseline (a
// one-profile reference takes the historic fast path); "two-profile/steady"
// adds the full selector — affinity lookup, per-pool health verdicts,
// profile ranking — with a healthy primary; "two-profile/primary-down"
// shows the steady state after a failover: the dead profile's pool
// verdict routes every call straight to the backup, with p50 and
// p99 reported so the selector's tail is visible too. The redesign's
// budget: steady-state selector overhead within 5% of the baseline.
func BenchmarkFailover(b *testing.B) {
	b.ReportAllocs()
	ctx := context.Background()
	startNode := func(b *testing.B) (*orb.ORB, string) {
		b.Helper()
		node := orb.New()
		node.RegisterServantWithKey("bench-obj", "IDL:bench/Echo:1.0", orb.ServantFunc(
			func(context.Context, string, *cdr.Decoder) ([]byte, error) {
				return nil, nil
			}))
		ep, err := node.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		return node, ep
	}
	// deadBenchEndpoint reserves a port with nothing listening on it.
	deadBenchEndpoint := func(b *testing.B) string {
		b.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		return "tcp:" + addr
	}
	run := func(b *testing.B, ref orb.IOR) {
		client := orb.New(
			// Keep a dead profile's down window open across the whole run,
			// so the bench measures the selector's steady state rather
			// than periodic re-probes.
			orb.WithReconnectBackoff(time.Minute, time.Minute),
		)
		defer client.Shutdown()
		// Warm: establish connections, health verdicts and affinity.
		if _, err := client.Invoke(ctx, ref, "ping", nil); err != nil {
			b.Fatal(err)
		}
		latencies := make([]time.Duration, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if _, err := client.Invoke(ctx, ref, "ping", nil); err != nil {
				b.Fatal(err)
			}
			latencies[i] = time.Since(start)
		}
		b.StopTimer()
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		b.ReportMetric(float64(latencies[len(latencies)/2].Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(latencies[len(latencies)*99/100].Nanoseconds()), "p99-ns")
	}

	b.Run("single-profile", func(b *testing.B) {
		b.ReportAllocs()
		node, ep := startNode(b)
		defer node.Shutdown()
		run(b, orb.NewIOR("IDL:bench/Echo:1.0", "bench-obj", ep))
	})
	b.Run("two-profile/steady", func(b *testing.B) {
		b.ReportAllocs()
		node, ep := startNode(b)
		defer node.Shutdown()
		backupNode, backupEp := startNode(b)
		defer backupNode.Shutdown()
		run(b, orb.NewIOR("IDL:bench/Echo:1.0", "bench-obj", ep, backupEp))
	})
	b.Run("two-profile/primary-down", func(b *testing.B) {
		b.ReportAllocs()
		node, ep := startNode(b)
		defer node.Shutdown()
		run(b, orb.NewIOR("IDL:bench/Echo:1.0", "bench-obj", deadBenchEndpoint(b), ep))
	})
}
