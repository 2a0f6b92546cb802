// Command figures regenerates the protocol artifacts of every figure in
// the paper's evaluation: the message sequences of figs. 5, 8, 10, 11 and
// 12, the timelines of figs. 1, 2 and 4, the fig. 7 state machine, the
// fig. 9 compensation matrix and the fig. 13 layering.
//
// Usage:
//
//	figures            # all figures
//	figures -fig 8     # one figure
//
// Each figure prints the trace of coordinator/SignalSet/Action
// interactions in the arrow notation of internal/trace; compare with the
// sequence charts in the paper.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/hls/btp"
	"github.com/extendedtx/activityservice/hls/opennested"
	"github.com/extendedtx/activityservice/hls/twopc"
	"github.com/extendedtx/activityservice/hls/workflow"
	"github.com/extendedtx/activityservice/ots"
)

func main() {
	fig := flag.Int("fig", 0, "figure number to regenerate (0 = all)")
	flag.Parse()
	if err := run(*fig); err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

var figures = map[int]struct {
	title string
	fn    func(ctx context.Context) error
}{
	1:  {"logical long-running transaction, no failure", fig1},
	2:  {"logical long-running transaction, t4 aborts + compensation", fig2},
	4:  {"activity and transaction relationship", fig4},
	5:  {"activity coordinator signalling actions", fig5},
	7:  {"SignalSet state transition diagram", fig7},
	8:  {"two-phase commit with Signals, SignalSets and Actions", fig8},
	9:  {"nested top-level transactions with compensation", fig9},
	10: {"workflow coordination", fig10},
	11: {"the BTP PrepareSignalSet", fig11},
	12: {"the BTP CompleteSignalSet", fig12},
	13: {"J2EE Activity Service layering", fig13},
}

func run(which int) error {
	ctx := context.Background()
	var nums []int
	for n := range figures {
		if which == 0 || which == n {
			nums = append(nums, n)
		}
	}
	if len(nums) == 0 {
		return fmt.Errorf("unknown figure %d", which)
	}
	sort.Ints(nums)
	for _, n := range nums {
		f := figures[n]
		fmt.Printf("\n===== Figure %d: %s =====\n", n, f.title)
		if err := f.fn(ctx); err != nil {
			return fmt.Errorf("figure %d: %w", n, err)
		}
	}
	return nil
}

// traced builds a service with a recorder and returns both.
func traced() (*activityservice.Service, func()) {
	rec := activityservice.NewTraceRecorder()
	svc := activityservice.New(activityservice.WithTrace(rec))
	return svc, func() { fmt.Println(rec.Render()) }
}

func fig1(ctx context.Context) error {
	svc, dump := traced()
	defer dump()
	var tasks []workflow.Task
	prev := ""
	for i := 1; i <= 6; i++ {
		name := fmt.Sprintf("t%d", i)
		var deps []string
		if prev != "" {
			deps = []string{prev}
		}
		tasks = append(tasks, workflow.Task{
			Name: name, DependsOn: deps,
			Run: func(context.Context) error { return nil },
		})
		prev = name
	}
	_, err := workflow.New(svc).Execute(ctx, workflow.Process{Name: "application-activity", Tasks: tasks})
	return err
}

func fig2(ctx context.Context) error {
	svc, dump := traced()
	defer dump()
	ok := func(context.Context) error { return nil }
	p := workflow.Process{
		Name: "application-activity",
		Tasks: []workflow.Task{
			{Name: "t1", Run: ok},
			{Name: "t2", DependsOn: []string{"t1"}, Run: ok,
				Compensate: func(context.Context) error { return nil }},
			{Name: "t3", DependsOn: []string{"t2"}, Run: ok},
			{Name: "t4", DependsOn: []string{"t3"},
				Run: func(context.Context) error { return errors.New("hotel unavailable") }},
		},
		OnFailure: map[string]workflow.Continuation{
			"t4": {
				Compensate: []string{"t2"}, // tc1
				Alternatives: []workflow.Task{
					{Name: "t5'", Run: ok},
					{Name: "t6'", DependsOn: []string{"t5'"}, Run: ok},
				},
			},
		},
	}
	_, err := workflow.New(svc).Execute(ctx, p)
	return err
}

func fig4(ctx context.Context) error {
	svc, dump := traced()
	defer dump()
	txs := ots.NewService()

	// A1 uses two top-level transactions during its execution.
	a1 := svc.Begin("A1")
	for i := 0; i < 2; i++ {
		tx := txs.Begin()
		if err := tx.Commit(false); err != nil {
			return err
		}
	}
	fmt.Println("A1: two top-level transactions committed within the activity")
	if _, err := a1.Complete(ctx); err != nil {
		return err
	}

	// A2 uses none.
	a2 := svc.Begin("A2")
	if _, err := a2.Complete(ctx); err != nil {
		return err
	}

	// A3 is transactional and contains transactional activity A3'.
	a3 := svc.Begin("A3")
	tx3 := txs.Begin()
	a3p, err := a3.BeginChild("A3'")
	if err != nil {
		return err
	}
	sub, err := tx3.BeginSubtransaction()
	if err != nil {
		return err
	}
	if err := sub.Commit(false); err != nil {
		return err
	}
	if _, err := a3p.Complete(ctx); err != nil {
		return err
	}
	if err := tx3.Commit(false); err != nil {
		return err
	}
	fmt.Println("A3: nested transactional activity A3' committed inside A3's transaction")
	if _, err := a3.Complete(ctx); err != nil {
		return err
	}

	for _, name := range []string{"A4", "A5"} {
		a := svc.Begin(name)
		if _, err := a.Complete(ctx); err != nil {
			return err
		}
	}
	return nil
}

func fig5(ctx context.Context) error {
	svc, dump := traced()
	defer dump()
	a := svc.Begin("activity-coordinator")
	set := activityservice.NewSequenceSet("signal-set", "signal")
	if err := a.RegisterSignalSet(set); err != nil {
		return err
	}
	for i := 1; i <= 4; i++ {
		name := fmt.Sprintf("action-%d", i)
		if _, err := a.AddNamedAction("signal-set", name, activityservice.ActionFunc(
			func(context.Context, activityservice.Signal) (activityservice.Outcome, error) {
				return activityservice.Outcome{Name: "ok"}, nil
			})); err != nil {
			return err
		}
	}
	if _, err := a.Signal(ctx, "signal-set"); err != nil {
		return err
	}
	_, err := a.Complete(ctx)
	return err
}

func fig7(ctx context.Context) error {
	svc := activityservice.New()
	a := svc.Begin("A")
	set := activityservice.NewSequenceSet("demo", "one", "two")
	if err := a.RegisterSignalSet(set); err != nil {
		return err
	}
	coord := a.Coordinator()
	fmt.Printf("state before first get_signal: %s\n", coord.SetState(set))
	if _, err := a.Signal(ctx, "demo"); err != nil {
		return err
	}
	fmt.Printf("state after protocol run:      %s\n", coord.SetState(set))
	if _, err := a.Signal(ctx, "demo"); err != nil {
		fmt.Printf("reuse after End rejected:      %v\n", err)
	}
	fmt.Println("transitions: Waiting -> GetSignal -> End (no reuse), per fig. 7")
	_, err := a.Complete(ctx)
	return err
}

func fig8(ctx context.Context) error {
	svc, dump := traced()
	defer dump()
	coord := twopc.NewCoordinator(svc)
	tx, err := coord.Begin("coordinator")
	if err != nil {
		return err
	}
	for i := 1; i <= 2; i++ {
		if err := tx.EnlistNamed(fmt.Sprintf("action%d", i), committingResource{}); err != nil {
			return err
		}
	}
	committed, err := tx.Commit(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("outcome: committed=%v\n", committed)
	return nil
}

// committingResource always votes commit.
type committingResource struct{}

func (committingResource) Prepare() (ots.Vote, error) { return ots.VoteCommit, nil }
func (committingResource) Commit() error              { return nil }
func (committingResource) Rollback() error            { return nil }
func (committingResource) CommitOnePhase() error      { return nil }
func (committingResource) Forget() error              { return nil }

func fig9(ctx context.Context) error {
	svc, dump := traced()
	defer dump()
	a, err := opennested.Begin(svc, "A", nil)
	if err != nil {
		return err
	}
	b, err := opennested.Begin(svc, "B", a)
	if err != nil {
		return err
	}
	comp, err := b.AddCompensation(svc, "!B", func(context.Context) error {
		fmt.Println("!B runs: undoing B's committed work")
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := b.Complete(ctx, true); err != nil { // B commits
		return err
	}
	if _, err := a.Complete(ctx, false); err != nil { // A rolls back
		return err
	}
	fmt.Printf("compensation ran: %v\n", comp.Ran())
	return nil
}

func fig10(ctx context.Context) error {
	svc, dump := traced()
	defer dump()
	ok := func(context.Context) error { return nil }
	p := workflow.Process{
		Name: "a",
		Tasks: []workflow.Task{
			{Name: "b", Run: ok},
			{Name: "c", Run: ok},
			{Name: "d", DependsOn: []string{"b", "c"}, Run: ok},
		},
	}
	_, err := workflow.New(svc).Execute(ctx, p)
	return err
}

func fig11(ctx context.Context) error {
	svc, dump := traced()
	defer dump()
	atom, err := btp.NewAtom(svc, "coordinator")
	if err != nil {
		return err
	}
	for i := 1; i <= 2; i++ {
		if err := atom.EnrollNamed(fmt.Sprintf("action%d", i), reservation{}); err != nil {
			return err
		}
	}
	if err := atom.Prepare(ctx); err != nil {
		return err
	}
	fmt.Printf("atom state after prepare: %s (user decides confirm/cancel later)\n", atom.State())
	return atom.Cancel(ctx)
}

func fig12(ctx context.Context) error {
	svc, dump := traced()
	defer dump()
	atom, err := btp.NewAtom(svc, "coordinator")
	if err != nil {
		return err
	}
	for i := 1; i <= 2; i++ {
		if err := atom.EnrollNamed(fmt.Sprintf("action%d", i), reservation{}); err != nil {
			return err
		}
	}
	if err := atom.Prepare(ctx); err != nil {
		return err
	}
	return atom.Confirm(ctx)
}

// reservation is a trivially-successful BTP participant.
type reservation struct{}

func (reservation) Prepare() error { return nil }
func (reservation) Confirm() error { return nil }
func (reservation) Cancel() error  { return nil }

func fig13(ctx context.Context) error {
	fmt.Println("layering (fig. 13):")
	fmt.Println("  High Level Service (SignalSets, Actions)   -> hls/twopc, hls/btp, ...")
	fmt.Println("  ActivityManager | UserActivity             -> activityservice.ActivityManager/UserActivity")
	fmt.Println("  Activity Service (incl. coordinator)       -> internal/core")
	fmt.Println("  Distribution & context manipulation        -> internal/orb + internal/remote")
	svc, dump := traced()
	defer dump()
	ua := activityservice.NewUserActivity(svc)
	am := activityservice.NewActivityManager(svc)
	actx, _, err := ua.Begin(ctx, "demarcated")
	if err != nil {
		return err
	}
	set := activityservice.NewSequenceSet("hls-protocol", "step")
	if err := am.RegisterSignalSet(actx, set); err != nil {
		return err
	}
	if _, err := am.AddAction(actx, "hls-protocol", activityservice.ActionFunc(
		func(context.Context, activityservice.Signal) (activityservice.Outcome, error) {
			return activityservice.Outcome{Name: "done"}, nil
		})); err != nil {
		return err
	}
	if _, err := am.Broadcast(actx, "hls-protocol"); err != nil {
		return err
	}
	_, _, err = ua.Complete(actx)
	return err
}
