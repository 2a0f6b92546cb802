// Integration tests exercising the full stack through the public API:
// distributed extended transactions over the ORB, transactional activities
// (fig. 4), crash recovery of activity structure (§3.4) and the interplay
// of the transaction service with the models of §4.
package activityservice_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/opennested"
	"github.com/extendedtx/activityservice/hls/twopc"
	"github.com/extendedtx/activityservice/hls/workflow"
	"github.com/extendedtx/activityservice/internal/core"
	iots "github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/remote"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

// bookable is a BTP-style 2PC participant representing a remote service.
type bookable struct {
	mu       sync.Mutex
	name     string
	capacity int
	reserved int
	booked   int
}

func (s *bookable) Prepare() (ots.Vote, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reserved+s.booked >= s.capacity {
		return ots.VoteRollback, nil
	}
	s.reserved++
	return ots.VoteCommit, nil
}

func (s *bookable) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reserved > 0 {
		s.reserved--
		s.booked++
	}
	return nil
}

func (s *bookable) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reserved > 0 {
		s.reserved--
	}
	return nil
}

func (s *bookable) CommitOnePhase() error { return s.Commit() }
func (s *bookable) Forget() error         { return nil }

func (s *bookable) Booked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.booked
}

// TestDistributedTwoPhaseCommitOverTCP runs the fig. 8 protocol with every
// participant on a different ORB reached over real TCP.
func TestDistributedTwoPhaseCommitOverTCP(t *testing.T) {
	ctx := context.Background()
	clientORB := orb.New()
	defer clientORB.Shutdown()

	services := []*bookable{
		{name: "taxi", capacity: 2},
		{name: "hotel", capacity: 2},
		{name: "theatre", capacity: 2},
	}
	var refs []orb.IOR
	for _, s := range services {
		node := orb.New()
		defer node.Shutdown()
		ref := orb.ExportAction(node, twopc.NewResourceAction(s))
		if _, err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		ref, _ = node.IOR(ref.Key)
		refs = append(refs, ref)
	}

	svc := activityservice.New()
	coord := twopc.NewCoordinator(svc)
	tx, err := coord.Begin("distributed-booking")
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs {
		if err := tx.EnlistAction(orb.ImportAction(clientORB, ref)); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("distributed booking did not commit")
	}
	for _, s := range services {
		if s.Booked() != 1 {
			t.Fatalf("%s booked = %d", s.name, s.Booked())
		}
	}
}

// TestDistributedAbortReleasesRemoteReservations forces a veto on one node
// and checks no remote state leaks.
func TestDistributedAbortReleasesRemoteReservations(t *testing.T) {
	ctx := context.Background()
	clientORB := orb.New()
	defer clientORB.Shutdown()

	free := &bookable{name: "free", capacity: 1}
	full := &bookable{name: "full", capacity: 0} // always vetoes
	node := orb.New()
	defer node.Shutdown()
	refFree := orb.ExportAction(node, twopc.NewResourceAction(free))
	refFull := orb.ExportAction(node, twopc.NewResourceAction(full))
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	refFree, _ = node.IOR(refFree.Key)
	refFull, _ = node.IOR(refFull.Key)

	svc := activityservice.New()
	coord := twopc.NewCoordinator(svc)
	tx, _ := coord.Begin("doomed")
	_ = tx.EnlistAction(orb.ImportAction(clientORB, refFree))
	_ = tx.EnlistAction(orb.ImportAction(clientORB, refFull))
	committed, err := tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("committed despite remote veto")
	}
	if free.Booked() != 0 {
		t.Fatalf("free.booked = %d after abort", free.Booked())
	}
}

// TestTransactionalActivityFig4 combines activities with real transactions
// on transactional variables: the fig. 4 shape with durable effects.
func TestTransactionalActivityFig4(t *testing.T) {
	ctx := context.Background()
	svc := activityservice.New()
	txs := ots.NewService()
	locks := ots.NewLockManager()
	account := ots.NewVar("account", []byte("1000"), locks, 100*time.Millisecond)

	// A1: two top-level transactions, both commit.
	a1 := svc.Begin("A1")
	for _, val := range []string{"900", "800"} {
		tx := txs.Begin()
		if err := account.Set(tx, []byte(val)); err != nil {
			t.Fatal(err)
		}
		if err := tx.Commit(false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a1.Complete(ctx); err != nil {
		t.Fatal(err)
	}
	if got := string(account.Committed()); got != "800" {
		t.Fatalf("account = %q after A1", got)
	}

	// A3 with nested transactional activity A3': the nested transaction's
	// write survives only because the top level commits.
	a3 := svc.Begin("A3")
	top := txs.Begin()
	a3p, err := a3.BeginChild("A3'")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := top.BeginSubtransaction()
	if err != nil {
		t.Fatal(err)
	}
	if err := account.Set(sub, []byte("700")); err != nil {
		t.Fatal(err)
	}
	if err := sub.Commit(false); err != nil {
		t.Fatal(err)
	}
	if _, err := a3p.Complete(ctx); err != nil {
		t.Fatal(err)
	}
	// Provisional until the top level commits.
	if got := string(account.Committed()); got != "800" {
		t.Fatalf("account = %q before top-level commit", got)
	}
	if err := top.Commit(false); err != nil {
		t.Fatal(err)
	}
	if _, err := a3.Complete(ctx); err != nil {
		t.Fatal(err)
	}
	if got := string(account.Committed()); got != "700" {
		t.Fatalf("account = %q after A3", got)
	}
}

// TestActivityRecoveryEndToEnd journals a compensation-model activity
// tree, simulates a crash, recovers on a fresh service and drives the
// recovered activities to completion through recreated SignalSets/Actions.
func TestActivityRecoveryEndToEnd(t *testing.T) {
	ctx := context.Background()
	log := ots.NewMemoryLog()

	var compensated sync.Map
	registerFactories := func(svc *activityservice.Service) {
		svc.RegisterSignalSetFactory("completion-seq", func(params []byte) (core.SignalSet, error) {
			return activityservice.NewSequenceSet(activityservice.DefaultCompletionSet, string(params)), nil
		})
		svc.RegisterActionFactory("compensator", func(params []byte) (core.Action, error) {
			step := string(params)
			return activityservice.ActionFunc(
				func(context.Context, activityservice.Signal) (activityservice.Outcome, error) {
					compensated.Store(step, true)
					return activityservice.Outcome{Name: "compensated"}, nil
				}), nil
		})
	}

	svc := activityservice.New(activityservice.WithJournal(log))
	registerFactories(svc)
	root := svc.Begin("long-running")
	step, err := root.BeginChild("step-2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := step.RegisterRecoverableSignalSet("completion-seq", []byte("undo")); err != nil {
		t.Fatal(err)
	}
	if err := step.AddRecoverableAction(activityservice.DefaultCompletionSet, "compensator", []byte("step-2")); err != nil {
		t.Fatal(err)
	}
	if err := step.SetCompletionStatus(core.CompletionFail); err != nil {
		t.Fatal(err)
	}
	// Crash here: the process dies before step-2 completes.

	snap, err := log.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	replay, err := openMemory(snap)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := activityservice.New()
	registerFactories(svc2)
	roots, err := svc2.Recover(replay)
	if err != nil {
		t.Fatal(err)
	}
	if len(roots) != 1 {
		t.Fatalf("recovered %d roots", len(roots))
	}
	r := roots[0]
	kids := r.Children()
	if len(kids) != 1 || kids[0].Name() != "step-2" {
		t.Fatalf("children = %v", kids)
	}
	// The journaled fail status survived; application logic now drives the
	// recovered activity to completion, which runs the compensator.
	if kids[0].CompletionStatus() != core.CompletionFail {
		t.Fatalf("status = %s", kids[0].CompletionStatus())
	}
	if _, err := kids[0].Complete(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := compensated.Load("step-2"); !ok {
		t.Fatal("compensator did not run after recovery")
	}
	if _, err := r.Complete(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestWorkflowWithTransactionalTasks ties each workflow task to a real
// top-level transaction, the fig. 1 prescription.
func TestWorkflowWithTransactionalTasks(t *testing.T) {
	ctx := context.Background()
	svc := activityservice.New()
	txs := ots.NewService()
	locks := ots.NewLockManager()
	ledger := ots.NewVar("ledger", []byte(""), locks, 200*time.Millisecond)

	appendEntry := func(entry string) func(context.Context) error {
		return func(context.Context) error {
			tx := txs.Begin()
			cur, err := ledger.Get(tx)
			if err != nil {
				_ = tx.Rollback()
				return err
			}
			if err := ledger.Set(tx, append(cur, []byte(entry+";")...)); err != nil {
				_ = tx.Rollback()
				return err
			}
			return tx.Commit(false)
		}
	}
	p := workflow.Process{
		Name: "tx-chain",
		Tasks: []workflow.Task{
			{Name: "t1", Run: appendEntry("t1")},
			{Name: "t2", DependsOn: []string{"t1"}, Run: appendEntry("t2")},
			{Name: "t3", DependsOn: []string{"t2"}, Run: appendEntry("t3")},
		},
	}
	res, err := workflow.New(svc).Execute(ctx, p)
	if err != nil || !res.Ok {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if got := string(ledger.Committed()); got != "t1;t2;t3;" {
		t.Fatalf("ledger = %q", got)
	}
}

// TestOpenNestedWithRealTransactions runs §4.2 against transactional
// variables: B's committed write is undone by !B when A aborts.
func TestOpenNestedWithRealTransactions(t *testing.T) {
	ctx := context.Background()
	svc := activityservice.New()
	txs := ots.NewService()
	locks := ots.NewLockManager()
	stock := ots.NewVar("stock", []byte("10"), locks, 100*time.Millisecond)

	write := func(val string) error {
		tx := txs.Begin()
		if err := stock.Set(tx, []byte(val)); err != nil {
			_ = tx.Rollback()
			return err
		}
		return tx.Commit(false)
	}

	a, err := opennested.Begin(svc, "A", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := opennested.Begin(svc, "B", a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddCompensation(svc, "!B", func(context.Context) error {
		return write("10") // restore
	}); err != nil {
		t.Fatal(err)
	}
	if err := write("7"); err != nil { // B's work: sell 3 units
		t.Fatal(err)
	}
	if _, err := b.Complete(ctx, true); err != nil {
		t.Fatal(err)
	}
	if got := string(stock.Committed()); got != "7" {
		t.Fatalf("stock = %q after B", got)
	}
	if _, err := a.Complete(ctx, false); err != nil { // A aborts
		t.Fatal(err)
	}
	if got := string(stock.Committed()); got != "10" {
		t.Fatalf("stock = %q after compensation", got)
	}
}

// TestRemoteActivityCompletionAcrossThreeNodes hosts the activity on one
// node and two participants on two other nodes.
func TestRemoteActivityCompletionAcrossThreeNodes(t *testing.T) {
	ctx := context.Background()

	host := orb.New()
	defer host.Shutdown()
	svc := activityservice.New()
	a := svc.Begin("multi-node")
	set := activityservice.NewSequenceSet(activityservice.DefaultCompletionSet, "finish").
		Collate(func(rs []activityservice.Outcome) activityservice.Outcome {
			return activityservice.Outcome{Name: "all-done", Data: int64(len(rs))}
		})
	if err := a.RegisterSignalSet(set); err != nil {
		t.Fatal(err)
	}
	coordRef := remote.ExportActivity(host, a)
	if _, err := host.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	coordRef, _ = host.IOR(coordRef.Key)

	var hits sync.Map
	for i := 0; i < 2; i++ {
		node := orb.New()
		defer node.Shutdown()
		if _, err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		proxy := orb.NewActivityProxy(node, coordRef)
		id := fmt.Sprintf("node-%d", i)
		if _, err := proxy.AddAction(ctx, activityservice.DefaultCompletionSet,
			activityservice.ActionFunc(func(context.Context, activityservice.Signal) (activityservice.Outcome, error) {
				hits.Store(id, true)
				return activityservice.Outcome{Name: "ok"}, nil
			})); err != nil {
			t.Fatal(err)
		}
	}

	driver := orb.New()
	defer driver.Shutdown()
	out, err := orb.NewActivityProxy(driver, coordRef).Complete(ctx, activityservice.CompletionSuccess)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "all-done" || out.Data != int64(2) {
		t.Fatalf("outcome = %+v", out)
	}
	for i := 0; i < 2; i++ {
		if _, ok := hits.Load(fmt.Sprintf("node-%d", i)); !ok {
			t.Fatalf("node-%d never signalled", i)
		}
	}
}

// TestFacadeErrorsMatch verifies that errors raised through the facades
// match the internal sentinels (errors.Is across the facade).
func TestFacadeErrorsMatch(t *testing.T) {
	svc := activityservice.New()
	a := svc.Begin("x")
	if _, err := a.Complete(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err := a.Complete(context.Background())
	if !errors.Is(err, core.ErrActivityInactive) {
		t.Fatalf("err = %v", err)
	}
	otsSvc := ots.NewService()
	tx := otsSvc.Begin()
	_ = tx.Commit(false)
	if err := tx.Commit(false); !errors.Is(err, iots.ErrInactive) {
		t.Fatalf("ots err = %v", err)
	}
}
