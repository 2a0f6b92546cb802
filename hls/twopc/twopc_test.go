package twopc

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/trace"
)

// scriptedResource is a 2PC participant with scriptable votes and a call
// log. A non-nil prepareErr fails Prepare after it is logged.
type scriptedResource struct {
	mu         sync.Mutex
	vote       ots.Vote
	prepareErr error
	calls      []string
}

func newResource(vote ots.Vote) *scriptedResource {
	return &scriptedResource{vote: vote}
}

func (r *scriptedResource) log(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, s)
}

func (r *scriptedResource) Calls() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.calls...)
}

func (r *scriptedResource) Prepare() (ots.Vote, error) {
	r.log("prepare")
	return r.vote, r.prepareErr
}

func (r *scriptedResource) Commit() error         { r.log("commit"); return nil }
func (r *scriptedResource) Rollback() error       { r.log("rollback"); return nil }
func (r *scriptedResource) CommitOnePhase() error { r.log("commit_one_phase"); return nil }
func (r *scriptedResource) Forget() error         { r.log("forget"); return nil }

func TestCommitHappyPath(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, err := coord.Begin("T")
	if err != nil {
		t.Fatal(err)
	}
	a, b := newResource(ots.VoteCommit), newResource(ots.VoteCommit)
	if err := tx.Enlist(a); err != nil {
		t.Fatal(err)
	}
	if err := tx.Enlist(b); err != nil {
		t.Fatal(err)
	}
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("transaction did not commit")
	}
	for _, r := range []*scriptedResource{a, b} {
		calls := r.Calls()
		if len(calls) != 2 || calls[0] != "prepare" || calls[1] != "commit" {
			t.Fatalf("calls = %v", calls)
		}
	}
}

func TestVetoRollsEveryoneBack(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("T")
	good := newResource(ots.VoteCommit)
	veto := newResource(ots.VoteRollback)
	late := newResource(ots.VoteCommit)
	_ = tx.Enlist(good)
	_ = tx.Enlist(veto)
	_ = tx.Enlist(late)

	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("committed despite veto")
	}
	// good prepared, then rolled back.
	gc := good.Calls()
	if len(gc) != 2 || gc[0] != "prepare" || gc[1] != "rollback" {
		t.Fatalf("good calls = %v", gc)
	}
	// late was never asked to prepare (abort cut the broadcast) but still
	// hears the rollback, matching the OTS treatment of not-yet-asked
	// participants.
	lc := late.Calls()
	if len(lc) != 1 || lc[0] != "rollback" {
		t.Fatalf("late calls = %v", lc)
	}
	// the vetoing resource rolled itself back at prepare: no second call.
	vc := veto.Calls()
	if len(vc) != 1 || vc[0] != "prepare" {
		t.Fatalf("veto calls = %v", vc)
	}
}

func TestReadOnlyParticipant(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("T")
	ro := newResource(ots.VoteReadOnly)
	rw := newResource(ots.VoteCommit)
	_ = tx.Enlist(ro)
	_ = tx.Enlist(rw)
	committed, err := tx.Commit(context.Background())
	if err != nil || !committed {
		t.Fatalf("committed=%v err=%v", committed, err)
	}
	// The read-only participant sees commit but performs nothing.
	rc := ro.Calls()
	if len(rc) != 1 || rc[0] != "prepare" {
		t.Fatalf("read-only calls = %v", rc)
	}
}

func TestExplicitRollback(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("T")
	r := newResource(ots.VoteCommit)
	_ = tx.Enlist(r)
	if err := tx.Rollback(context.Background()); err != nil {
		t.Fatal(err)
	}
	calls := r.Calls()
	if len(calls) != 1 || calls[0] != "rollback" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestVarsCommitThroughActivity2PC(t *testing.T) {
	// End to end with real transactional variables: note the Vars join the
	// *activity* protocol directly as resources, without an ots
	// transaction — the activity coordinator IS the transaction manager
	// here, which is the point of §4.1.
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("transfer")
	from := &balanceResource{balance: 100}
	to := &balanceResource{balance: 10}
	from.pending = -25
	to.pending = 25
	_ = tx.Enlist(from)
	_ = tx.Enlist(to)
	committed, err := tx.Commit(context.Background())
	if err != nil || !committed {
		t.Fatalf("committed=%v err=%v", committed, err)
	}
	if from.balance != 75 || to.balance != 35 {
		t.Fatalf("balances = %d, %d", from.balance, to.balance)
	}
}

// balanceResource applies a pending delta on commit.
type balanceResource struct {
	mu      sync.Mutex
	balance int
	pending int
}

func (b *balanceResource) Prepare() (ots.Vote, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.balance+b.pending < 0 {
		return ots.VoteRollback, nil
	}
	return ots.VoteCommit, nil
}

func (b *balanceResource) Commit() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.balance += b.pending
	b.pending = 0
	return nil
}

func (b *balanceResource) Rollback() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending = 0
	return nil
}

func (b *balanceResource) CommitOnePhase() error { return b.Commit() }
func (b *balanceResource) Forget() error         { return nil }

func TestInsufficientFundsAborts(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("overdraft")
	from := &balanceResource{balance: 10, pending: -25}
	to := &balanceResource{balance: 0, pending: 25}
	_ = tx.Enlist(from)
	_ = tx.Enlist(to)
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("overdraft committed")
	}
	if from.balance != 10 || to.balance != 0 {
		t.Fatalf("balances mutated: %d, %d", from.balance, to.balance)
	}
}

// TestFig8MessageSequence verifies the full fig. 8 exchange through the
// public API, with the exact arrows of the paper's sequence chart.
func TestFig8MessageSequence(t *testing.T) {
	rec := trace.New()
	svc := core.New(core.WithTrace(rec))
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("coordinator")
	_ = tx.EnlistNamed("action1", newResource(ots.VoteCommit))
	_ = tx.EnlistNamed("action2", newResource(ots.VoteCommit))
	committed, err := tx.Commit(context.Background())
	if err != nil || !committed {
		t.Fatalf("committed=%v err=%v", committed, err)
	}
	want := []string{
		"begin:coordinator",
		"get_signal:coordinator->2pc:prepare",
		"transmit:coordinator->action1:prepare",
		"set_response:action1->2pc:done",
		"transmit:coordinator->action2:prepare",
		"set_response:action2->2pc:done",
		"get_signal:coordinator->2pc:commit",
		"transmit:coordinator->action1:commit",
		"set_response:action1->2pc:done",
		"transmit:coordinator->action2:commit",
		"set_response:action2->2pc:done",
		"get_outcome:coordinator->2pc:committed",
		"complete:coordinator:committed",
	}
	got := rec.Sequence()
	if len(got) != len(want) {
		t.Fatalf("trace:\n%v\nwant:\n%v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestManyParticipantsScale(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	for _, n := range []int{1, 8, 64} {
		tx, _ := coord.Begin(fmt.Sprintf("T%d", n))
		resources := make([]*scriptedResource, n)
		for i := range resources {
			resources[i] = newResource(ots.VoteCommit)
			_ = tx.Enlist(resources[i])
		}
		committed, err := tx.Commit(context.Background())
		if err != nil || !committed {
			t.Fatalf("n=%d: committed=%v err=%v", n, committed, err)
		}
		for i, r := range resources {
			if calls := r.Calls(); len(calls) != 2 {
				t.Fatalf("n=%d participant %d calls = %v", n, i, calls)
			}
		}
	}
}

// TestPrepareErrorTreatedAsVeto fails one participant's Prepare: the
// transaction rolls back, and the failed participant — which may be
// prepared all the same, its reply lost — hears exactly one rollback.
func TestPrepareErrorTreatedAsVeto(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	tx, _ := coord.Begin("T")
	bad := newResource(ots.VoteCommit)
	bad.prepareErr = errors.New("prepare exploded")
	good := newResource(ots.VoteCommit)
	_ = tx.Enlist(good)
	_ = tx.Enlist(bad)
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("committed despite prepare error")
	}
	gc := good.Calls()
	if len(gc) != 2 || gc[1] != "rollback" {
		t.Fatalf("good calls = %v", gc)
	}
	if bc := bad.Calls(); !slices.Equal(bc, []string{"prepare", "rollback"}) {
		t.Fatalf("bad calls = %v, want [prepare rollback]", bc)
	}
}

// heuristicResource answers phase two with a heuristic outcome: err on
// Commit, or on Rollback, as its call names.
type heuristicResource struct {
	*scriptedResource
	call string // "commit" or "rollback"
	err  error
}

func (r *heuristicResource) Commit() error {
	r.log("commit")
	if r.call == "commit" {
		return fmt.Errorf("resolved unilaterally: %w", r.err)
	}
	return nil
}

func (r *heuristicResource) Rollback() error {
	r.log("rollback")
	if r.call == "rollback" {
		return fmt.Errorf("resolved unilaterally: %w", r.err)
	}
	return nil
}

// TestHeuristicReplyNotRetried: a heuristic reply is the participant's
// final answer, so a retrying coordinator delivers that phase-two signal
// to it once — a heuristic rollback on the commit path and a heuristic
// commit on the rollback path after a veto alike — and the transaction
// keeps its outcome.
func TestHeuristicReplyNotRetried(t *testing.T) {
	for _, tc := range []struct {
		call string
		err  error
		veto bool
	}{
		{"commit", ots.ErrHeuristicRollback, false},
		{"rollback", ots.ErrHeuristicCommit, true},
	} {
		t.Run(tc.call, func(t *testing.T) {
			svc := core.New(core.WithRetryPolicy(core.RetryPolicy{Attempts: 3}))
			tx, err := NewCoordinator(svc).Begin("T")
			if err != nil {
				t.Fatal(err)
			}
			rogue := &heuristicResource{scriptedResource: newResource(ots.VoteCommit), call: tc.call, err: tc.err}
			if err := tx.Enlist(rogue); err != nil {
				t.Fatal(err)
			}
			vote := ots.VoteCommit
			if tc.veto {
				vote = ots.VoteRollback
			}
			if err := tx.Enlist(newResource(vote)); err != nil {
				t.Fatal(err)
			}
			committed, err := tx.Commit(context.Background())
			if err != nil || committed == tc.veto {
				t.Fatalf("Commit = %v, %v; want %v, nil", committed, err, !tc.veto)
			}
			if calls := rogue.Calls(); !slices.Equal(calls, []string{"prepare", tc.call}) {
				t.Fatalf("rogue calls = %v, want [prepare %s]", calls, tc.call)
			}
		})
	}
}

// TestParallelPrepareCommits drives 2PC with parallel delivery: every
// participant votes concurrently, the outcome and each participant's call
// sequence are identical to serial delivery. ResourceAction takes no lock,
// so under -race this also checks that each vote, written by a prepare
// worker and read by a commit worker, is ordered by the fan-out engine's
// WaitGroups.
func TestParallelPrepareCommits(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc, WithDelivery(core.Parallel()))
	tx, err := coord.Begin("T")
	if err != nil {
		t.Fatal(err)
	}
	var rs []*scriptedResource
	for i := 0; i < 16; i++ {
		r := newResource(ots.VoteCommit)
		rs = append(rs, r)
		if err := tx.Enlist(r); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !committed {
		t.Fatal("transaction did not commit")
	}
	for i, r := range rs {
		calls := r.Calls()
		if len(calls) != 2 || calls[0] != "prepare" || calls[1] != "commit" {
			t.Fatalf("participant %d calls = %v", i, calls)
		}
	}
}

// TestParallelVetoRollsBack verifies the collated outcome of a vetoed
// parallel 2PC matches serial: rolled back, with every prepared
// participant released. (Parallel prepare is speculative, so unlike the
// serial short-circuit, participants enlisted after the vetoer may also
// have been asked to prepare — but all of them hear the rollback.) Under
// -race it checks, too, that a straggler's vote is written before the
// rollback round reads it: the engine waits for every worker before the
// round ends.
func TestParallelVetoRollsBack(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc, WithDelivery(core.Parallel()))
	tx, err := coord.Begin("T")
	if err != nil {
		t.Fatal(err)
	}
	good := newResource(ots.VoteCommit)
	veto := newResource(ots.VoteRollback)
	late := newResource(ots.VoteCommit)
	for _, r := range []*scriptedResource{good, veto, late} {
		if err := tx.Enlist(r); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := tx.Commit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if committed {
		t.Fatal("committed despite veto")
	}
	gc := good.Calls()
	if len(gc) != 2 || gc[0] != "prepare" || gc[1] != "rollback" {
		t.Fatalf("good calls = %v", gc)
	}
	// The vetoing resource rolled itself back at prepare: no second call.
	vc := veto.Calls()
	if len(vc) != 1 || vc[0] != "prepare" {
		t.Fatalf("veto calls = %v", vc)
	}
	// late hears the rollback last, whether or not its speculative prepare
	// landed first.
	lc := late.Calls()
	if len(lc) == 0 || lc[len(lc)-1] != "rollback" {
		t.Fatalf("late calls = %v", lc)
	}
}

// TestFailOnlyRollbackCompletes covers an activity whose status is already
// FailOnly — marked by the application, or by a WithTimeout that fired:
// Rollback, and Commit too, completes it with that status, and every
// resource hears one rollback and no prepare. Commit reports false with no
// error, as ots's commit of a rollback-only transaction does.
func TestFailOnlyRollbackCompletes(t *testing.T) {
	for _, tc := range []struct {
		name  string
		begin func(svc *core.Service) (*core.Activity, error)
	}{
		{"marked", func(svc *core.Service) (*core.Activity, error) {
			a := svc.Begin("T")
			return a, a.SetCompletionStatus(core.CompletionFailOnly)
		}},
		{"timed-out", func(svc *core.Service) (*core.Activity, error) {
			a := svc.Begin("T", core.WithTimeout(time.Millisecond))
			for a.CompletionStatus() != core.CompletionFailOnly {
				time.Sleep(time.Millisecond)
			}
			return a, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, complete := range []string{"rollback", "commit"} {
				t.Run(complete, func(t *testing.T) {
					svc := core.New()
					a, err := tc.begin(svc)
					if err != nil {
						t.Fatal(err)
					}
					tx, err := NewCoordinator(svc).begin(a)
					if err != nil {
						t.Fatal(err)
					}
					rs := []*scriptedResource{newResource(ots.VoteCommit), newResource(ots.VoteCommit)}
					for _, r := range rs {
						if err := tx.Enlist(r); err != nil {
							t.Fatal(err)
						}
					}
					if complete == "commit" {
						if committed, err := tx.Commit(context.Background()); err != nil || committed {
							t.Fatalf("Commit = %v, %v; want false, nil", committed, err)
						}
					} else if err := tx.Rollback(context.Background()); err != nil {
						t.Fatalf("rollback: %v", err)
					}
					for i, r := range rs {
						if calls := r.Calls(); !slices.Equal(calls, []string{"rollback"}) {
							t.Fatalf("resource %d calls = %v, want [rollback]", i, calls)
						}
					}
					if st := a.State(); st != core.ActivityCompleted {
						t.Fatalf("activity state = %s", st)
					}
					if n := svc.Live(); n != 0 {
						t.Fatalf("Live() = %d, want 0", n)
					}
				})
			}
		})
	}
}

// TestStagedEnlistment pins what staging Enlist must not change: mixed
// Enlist, EnlistNamed and EnlistAction calls enrol in enlistment order
// with the default labels one-by-one enrolment would give; Activity sees
// every staged participant; Rollback reaches staged participants; and an
// Enlist after Commit is refused.
func TestStagedEnlistment(t *testing.T) {
	t.Run("order", func(t *testing.T) {
		rec := trace.New()
		tx, err := NewCoordinator(core.New(core.WithTrace(rec))).Begin("T")
		if err != nil {
			t.Fatal(err)
		}
		steps := []func() error{
			func() error { return tx.Enlist(newResource(ots.VoteCommit)) },
			func() error { return tx.EnlistNamed("named", newResource(ots.VoteCommit)) },
			func() error { return tx.Enlist(newResource(ots.VoteCommit)) },
			func() error { return tx.Enlist(newResource(ots.VoteCommit)) },
			func() error { return tx.EnlistAction(NewResourceAction(newResource(ots.VoteCommit))) },
			func() error { return tx.Enlist(newResource(ots.VoteCommit)) },
		}
		for _, step := range steps {
			if err := step(); err != nil {
				t.Fatal(err)
			}
		}
		if committed, err := tx.Commit(context.Background()); err != nil || !committed {
			t.Fatalf("Commit = %v, %v", committed, err)
		}
		var prepared []string
		for _, ev := range rec.Sequence() {
			if to, ok := strings.CutPrefix(ev, "transmit:T->"); ok && strings.HasSuffix(to, ":"+SignalPrepare) {
				prepared = append(prepared, strings.TrimSuffix(to, ":"+SignalPrepare))
			}
		}
		want := []string{"action-1", "named", "action-2", "action-3", "action-4", "action-5"}
		if !slices.Equal(prepared, want) {
			t.Fatalf("prepared %v, want %v", prepared, want)
		}
	})
	t.Run("activity-sees-staged", func(t *testing.T) {
		tx, _ := NewCoordinator(core.New()).Begin("T")
		for i := 0; i < 3; i++ {
			if err := tx.Enlist(newResource(ots.VoteCommit)); err != nil {
				t.Fatal(err)
			}
		}
		if n := tx.Activity().ActionCount(SetName); n != 3 {
			t.Fatalf("ActionCount = %d, want 3", n)
		}
		if err := tx.Enlist(newResource(ots.VoteCommit)); err != nil {
			t.Fatal(err)
		}
		if n := tx.Activity().ActionCount(SetName); n != 4 {
			t.Fatalf("ActionCount after a later Enlist = %d, want 4", n)
		}
	})
	t.Run("rollback-reaches-staged", func(t *testing.T) {
		tx, _ := NewCoordinator(core.New()).Begin("T")
		rs := []*scriptedResource{newResource(ots.VoteCommit), newResource(ots.VoteCommit), newResource(ots.VoteCommit)}
		for _, r := range rs {
			if err := tx.Enlist(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := tx.Rollback(context.Background()); err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if calls := r.Calls(); !slices.Equal(calls, []string{"rollback"}) {
				t.Fatalf("resource %d calls = %v, want [rollback]", i, calls)
			}
		}
	})
	t.Run("enlist-after-commit", func(t *testing.T) {
		tx, _ := NewCoordinator(core.New()).Begin("T")
		if err := tx.Enlist(newResource(ots.VoteCommit)); err != nil {
			t.Fatal(err)
		}
		if committed, err := tx.Commit(context.Background()); err != nil || !committed {
			t.Fatalf("Commit = %v, %v", committed, err)
		}
		late := newResource(ots.VoteCommit)
		for name, enlist := range map[string]func() error{
			"Enlist":       func() error { return tx.Enlist(late) },
			"EnlistNamed":  func() error { return tx.EnlistNamed("late", late) },
			"EnlistAction": func() error { return tx.EnlistAction(NewResourceAction(late)) },
		} {
			if err := enlist(); !errors.Is(err, core.ErrActivityInactive) {
				t.Fatalf("%s after Commit: err = %v, want core.ErrActivityInactive", name, err)
			}
		}
		if calls := late.Calls(); len(calls) != 0 {
			t.Fatalf("refused participant calls = %v", calls)
		}
	})
}

// TestStressEnlistRacingCommit races concurrent Enlist calls against
// Commit. Each participant is either refused with
// core.ErrActivityInactive and never called, or prepared and committed
// exactly once. Run under -race it pins the staging's locking.
func TestStressEnlistRacingCommit(t *testing.T) {
	coord := NewCoordinator(core.New())
	const enlisters, each = 4, 16
	for round := 0; round < 20; round++ {
		tx, err := coord.Begin(fmt.Sprintf("T%d", round))
		if err != nil {
			t.Fatal(err)
		}
		rs := make([]*scriptedResource, enlisters*each)
		errs := make([]error, len(rs))
		var wg, started sync.WaitGroup
		for w := 0; w < enlisters; w++ {
			wg.Add(1)
			started.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w * each; i < (w+1)*each; i++ {
					rs[i] = newResource(ots.VoteCommit)
					errs[i] = tx.Enlist(rs[i])
					if i == w*each {
						started.Done()
					}
					runtime.Gosched() // let Commit in between two Enlists
				}
			}(w)
		}
		started.Wait() // each enlister is under way: Commit lands mid-stream
		committed, err := tx.Commit(context.Background())
		wg.Wait()
		if err != nil || !committed {
			t.Fatalf("round %d: Commit = %v, %v", round, committed, err)
		}
		for i, r := range rs {
			calls := r.Calls()
			switch {
			case errs[i] != nil:
				if !errors.Is(errs[i], core.ErrActivityInactive) || len(calls) != 0 {
					t.Fatalf("round %d participant %d: refused with %v, calls %v", round, i, errs[i], calls)
				}
			case !slices.Equal(calls, []string{"prepare", "commit"}):
				t.Fatalf("round %d participant %d: enrolled, calls %v, want [prepare commit]", round, i, calls)
			}
		}
	}
}
