package ots

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/wal"
)

// fakeResource is a scriptable participant that records protocol calls.
type fakeResource struct {
	mu sync.Mutex

	name       string
	vote       Vote
	prepareErr error
	commitErr  error
	// commitFailures makes the first n Commit calls fail, then succeed.
	commitFailures int

	calls []string
}

func newFake(name string) *fakeResource {
	return &fakeResource{name: name, vote: VoteCommit}
}

func (f *fakeResource) record(call string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, call)
}

func (f *fakeResource) Calls() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.calls...)
}

func (f *fakeResource) Prepare() (Vote, error) {
	f.record("prepare")
	return f.vote, f.prepareErr
}

func (f *fakeResource) Commit() error {
	f.record("commit")
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.commitFailures > 0 {
		f.commitFailures--
		return fmt.Errorf("transient commit failure on %s", f.name)
	}
	return f.commitErr
}

func (f *fakeResource) Rollback() error {
	f.record("rollback")
	return nil
}

func (f *fakeResource) CommitOnePhase() error {
	f.record("commit_one_phase")
	return f.commitErr
}

func (f *fakeResource) Forget() error {
	f.record("forget")
	return nil
}

func (f *fakeResource) RecoveryName() string { return f.name }

func TestEmptyTransactionCommits(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if tx.Status() != StatusCommitted {
		t.Fatalf("status = %s", tx.Status())
	}
}

func TestOnePhaseOptimisation(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	r := newFake("solo")
	if err := tx.RegisterResource(r); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	calls := r.Calls()
	if len(calls) != 1 || calls[0] != "commit_one_phase" {
		t.Fatalf("calls = %v, want single commit_one_phase", calls)
	}
}

func TestOnePhaseFailureRollsBack(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	r := newFake("solo")
	r.commitErr = errors.New("disk full")
	_ = tx.RegisterResource(r)
	if err := tx.Commit(true); !errors.Is(err, ErrRolledBack) {
		t.Fatalf("err = %v, want ErrRolledBack", err)
	}
	if tx.Status() != StatusRolledBack {
		t.Fatalf("status = %s", tx.Status())
	}
}

// TestOnePhaseHeuristicCommitIsCommitted: a sole participant that answers
// CommitOnePhase with a heuristic commit did commit, so the transaction
// commits and the heuristic is recorded, as phase two records it. A
// heuristic rollback still rolls the transaction back.
func TestOnePhaseHeuristicCommitIsCommitted(t *testing.T) {
	svc := NewService(WithLog(wal.NewMemory()))
	tx := svc.Begin()
	r := newFake("solo")
	r.commitErr = fmt.Errorf("resolved unilaterally: %w", ErrHeuristicCommit)
	if err := tx.RegisterResource(r); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(true); err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if tx.Status() != StatusCommitted {
		t.Fatalf("status = %s, want committed", tx.Status())
	}
	recs, err := svc.Heuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Resource != "solo" || recs[0].Outcome != StatusCommitted || recs[0].Tx != tx.ID() {
		t.Fatalf("heuristics = %+v", recs)
	}

	tx = svc.Begin()
	r = newFake("solo2")
	r.commitErr = fmt.Errorf("resolved unilaterally: %w", ErrHeuristicRollback)
	_ = tx.RegisterResource(r)
	if err := tx.Commit(true); !errors.Is(err, ErrRolledBack) {
		t.Fatalf("heuristic rollback: err = %v, want ErrRolledBack", err)
	}
	if tx.Status() != StatusRolledBack {
		t.Fatalf("heuristic rollback: status = %s", tx.Status())
	}
}

func TestTwoPhaseCommitHappyPath(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	a, b := newFake("a"), newFake("b")
	_ = tx.RegisterResource(a)
	_ = tx.RegisterResource(b)
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*fakeResource{a, b} {
		calls := r.Calls()
		if len(calls) != 2 || calls[0] != "prepare" || calls[1] != "commit" {
			t.Fatalf("%s calls = %v", r.name, calls)
		}
	}
	if tx.Status() != StatusCommitted {
		t.Fatalf("status = %s", tx.Status())
	}
}

func TestVoteRollbackAbortsEveryone(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	a, veto, c := newFake("a"), newFake("veto"), newFake("c")
	veto.vote = VoteRollback
	_ = tx.RegisterResource(a)
	_ = tx.RegisterResource(veto)
	_ = tx.RegisterResource(c)
	if err := tx.Commit(true); !errors.Is(err, ErrRolledBack) {
		t.Fatalf("err = %v", err)
	}
	// a prepared then rolled back; c never prepared, rolled back directly.
	ac := a.Calls()
	if len(ac) != 2 || ac[0] != "prepare" || ac[1] != "rollback" {
		t.Fatalf("a calls = %v", ac)
	}
	cc := c.Calls()
	if len(cc) != 1 || cc[0] != "rollback" {
		t.Fatalf("c calls = %v", cc)
	}
	if tx.Status() != StatusRolledBack {
		t.Fatalf("status = %s", tx.Status())
	}
}

func TestPrepareErrorTreatedAsVeto(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	a, b := newFake("a"), newFake("b")
	b.prepareErr = errors.New("cannot prepare")
	_ = tx.RegisterResource(a)
	_ = tx.RegisterResource(b)
	if err := tx.Commit(true); !errors.Is(err, ErrRolledBack) {
		t.Fatalf("err = %v", err)
	}
	// b may be prepared all the same (its reply lost): it is rolled back.
	if bc := b.Calls(); !slices.Equal(bc, []string{"prepare", "rollback"}) {
		t.Fatalf("b calls = %v, want [prepare rollback]", bc)
	}
}

func TestReadOnlySkipsPhaseTwo(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	ro, rw1, rw2 := newFake("ro"), newFake("rw1"), newFake("rw2")
	ro.vote = VoteReadOnly
	_ = tx.RegisterResource(ro)
	_ = tx.RegisterResource(rw1)
	_ = tx.RegisterResource(rw2)
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	roCalls := ro.Calls()
	if len(roCalls) != 1 || roCalls[0] != "prepare" {
		t.Fatalf("read-only calls = %v", roCalls)
	}
}

func TestAllReadOnlyCommitsWithoutPhaseTwo(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	a, b := newFake("a"), newFake("b")
	a.vote, b.vote = VoteReadOnly, VoteReadOnly
	_ = tx.RegisterResource(a)
	_ = tx.RegisterResource(b)
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if got := a.Calls(); len(got) != 1 {
		t.Fatalf("a calls = %v", got)
	}
}

func TestExplicitRollback(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	a, b := newFake("a"), newFake("b")
	_ = tx.RegisterResource(a)
	_ = tx.RegisterResource(b)
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	for _, r := range []*fakeResource{a, b} {
		calls := r.Calls()
		if len(calls) != 1 || calls[0] != "rollback" {
			t.Fatalf("%s calls = %v", r.name, calls)
		}
	}
	if tx.Status() != StatusRolledBack {
		t.Fatalf("status = %s", tx.Status())
	}
}

func TestRollbackOnlyForcesRollbackAtCommit(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	r := newFake("r")
	_ = tx.RegisterResource(r)
	if err := tx.RollbackOnly(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(true); !errors.Is(err, ErrRolledBack) {
		t.Fatalf("err = %v", err)
	}
	calls := r.Calls()
	if len(calls) != 1 || calls[0] != "rollback" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestCompletedTransactionRejectsEverything(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(true); !errors.Is(err, ErrInactive) {
		t.Fatalf("second commit err = %v", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrInactive) {
		t.Fatalf("rollback err = %v", err)
	}
	if err := tx.RegisterResource(newFake("late")); !errors.Is(err, ErrInactive) {
		t.Fatalf("register err = %v", err)
	}
	if err := tx.RollbackOnly(); !errors.Is(err, ErrInactive) {
		t.Fatalf("rollback-only err = %v", err)
	}
	if _, err := tx.BeginSubtransaction(); !errors.Is(err, ErrInactive) {
		t.Fatalf("subtransaction err = %v", err)
	}
}

func TestHeuristicMixed(t *testing.T) {
	svc := NewService(WithRetryPolicy(2, 0))
	tx := svc.Begin()
	good, bad := newFake("good"), newFake("bad")
	bad.commitErr = errors.New("permanently broken")
	_ = tx.RegisterResource(good)
	_ = tx.RegisterResource(bad)
	err := tx.Commit(true)
	if !errors.Is(err, ErrHeuristicMixed) {
		t.Fatalf("err = %v, want ErrHeuristicMixed", err)
	}
	// The logical outcome is still commit.
	if tx.Status() != StatusCommitted {
		t.Fatalf("status = %s", tx.Status())
	}
	// The failed delivery's outcome is unknown, so the participant must NOT
	// be told to forget: the decision stays live for Recover to re-drive.
	for _, c := range bad.Calls() {
		if c == "forget" {
			t.Fatalf("bad calls = %v, forget must not be sent on failed delivery", bad.Calls())
		}
	}
}

func TestHeuristicsSuppressedWhenNotRequested(t *testing.T) {
	svc := NewService(WithRetryPolicy(2, 0))
	tx := svc.Begin()
	good, bad := newFake("good"), newFake("bad")
	bad.commitErr = errors.New("permanently broken")
	_ = tx.RegisterResource(good)
	_ = tx.RegisterResource(bad)
	if err := tx.Commit(false); err != nil {
		t.Fatalf("err = %v, want nil with heuristics suppressed", err)
	}
}

func TestPhaseTwoRetriesTransientFailure(t *testing.T) {
	svc := NewService(WithRetryPolicy(3, 0))
	tx := svc.Begin()
	flaky, other := newFake("flaky"), newFake("other")
	flaky.commitFailures = 2 // fails twice, succeeds on third attempt
	_ = tx.RegisterResource(flaky)
	_ = tx.RegisterResource(other)
	if err := tx.Commit(true); err != nil {
		t.Fatalf("err = %v", err)
	}
	commits := 0
	for _, c := range flaky.Calls() {
		if c == "commit" {
			commits++
		}
	}
	if commits != 3 {
		t.Fatalf("flaky received %d commit attempts, want 3", commits)
	}
}

// TestPhaseTwoHeuristicNotRetried: a heuristic answer is the
// participant's final outcome, so phase two neither re-sends commit nor
// waits out a retry delay for it.
func TestPhaseTwoHeuristicNotRetried(t *testing.T) {
	const delay = 50 * time.Millisecond
	svc := NewService(WithRetryPolicy(3, delay))
	tx := svc.Begin()
	rogue, other := newFake("rogue"), newFake("other")
	rogue.commitErr = fmt.Errorf("resolved unilaterally: %w", ErrHeuristicRollback)
	_ = tx.RegisterResource(rogue)
	_ = tx.RegisterResource(other)
	start := time.Now()
	if err := tx.Commit(true); !errors.Is(err, ErrHeuristicMixed) {
		t.Fatalf("err = %v, want ErrHeuristicMixed", err)
	}
	if elapsed := time.Since(start); elapsed >= delay {
		t.Fatalf("commit took %v, want under one retry delay (%v)", elapsed, delay)
	}
	if n := commitCalls(rogue); n != 1 {
		t.Fatalf("rogue received %d commit attempts, want 1", n)
	}
}

// TestPhaseTwoNoSleepAfterLastAttempt: the retry delay separates attempts,
// so a single failing attempt returns without waiting.
func TestPhaseTwoNoSleepAfterLastAttempt(t *testing.T) {
	const delay = 200 * time.Millisecond
	svc := NewService(WithRetryPolicy(1, delay))
	tx := svc.Begin()
	bad, other := newFake("bad"), newFake("other")
	bad.commitErr = errors.New("permanently broken")
	_ = tx.RegisterResource(bad)
	_ = tx.RegisterResource(other)
	start := time.Now()
	if err := tx.Commit(true); !errors.Is(err, ErrHeuristicMixed) {
		t.Fatalf("err = %v, want ErrHeuristicMixed", err)
	}
	if elapsed := time.Since(start); elapsed >= delay {
		t.Fatalf("commit took %v, want under one retry delay (%v)", elapsed, delay)
	}
	if n := commitCalls(bad); n != 1 {
		t.Fatalf("bad received %d commit attempts, want 1", n)
	}
}

// commitCalls counts the commit deliveries f received.
func commitCalls(f *fakeResource) int {
	n := 0
	for _, c := range f.Calls() {
		if c == "commit" {
			n++
		}
	}
	return n
}

func TestTimeoutMarksRollbackOnly(t *testing.T) {
	svc := NewService()
	tx := svc.Begin(WithTimeout(20 * time.Millisecond))
	deadline := time.After(2 * time.Second)
	for tx.Status() != StatusMarkedRollback {
		select {
		case <-deadline:
			t.Fatalf("status = %s, never marked rollback", tx.Status())
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := tx.Commit(true); !errors.Is(err, ErrRolledBack) {
		t.Fatalf("commit err = %v", err)
	}
}

func TestCommitCancelsTimeout(t *testing.T) {
	svc := NewService()
	tx := svc.Begin(WithTimeout(30 * time.Millisecond))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if tx.Status() != StatusCommitted {
		t.Fatalf("status = %s after timer should have been stopped", tx.Status())
	}
}

// syncRecorder records synchronization callbacks.
type syncRecorder struct {
	mu        sync.Mutex
	before    int
	beforeErr error
	after     []Status
}

func (s *syncRecorder) BeforeCompletion() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.before++
	return s.beforeErr
}

func (s *syncRecorder) AfterCompletion(st Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.after = append(s.after, st)
}

func TestSynchronizationLifecycle(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	sr := &syncRecorder{}
	_ = tx.RegisterSynchronization(sr)
	_ = tx.RegisterResource(newFake("a"))
	_ = tx.RegisterResource(newFake("b"))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if sr.before != 1 {
		t.Fatalf("before = %d", sr.before)
	}
	if len(sr.after) != 1 || sr.after[0] != StatusCommitted {
		t.Fatalf("after = %v", sr.after)
	}
}

func TestBeforeCompletionErrorForcesRollback(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	sr := &syncRecorder{beforeErr: errors.New("flush failed")}
	_ = tx.RegisterSynchronization(sr)
	r := newFake("r")
	_ = tx.RegisterResource(r)
	if err := tx.Commit(true); !errors.Is(err, ErrRolledBack) {
		t.Fatalf("err = %v", err)
	}
	if len(sr.after) != 1 || sr.after[0] != StatusRolledBack {
		t.Fatalf("after = %v", sr.after)
	}
	calls := r.Calls()
	if len(calls) != 1 || calls[0] != "rollback" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestSynchronizationOnRollback(t *testing.T) {
	svc := NewService()
	tx := svc.Begin()
	sr := &syncRecorder{}
	_ = tx.RegisterSynchronization(sr)
	_ = tx.Rollback()
	if sr.before != 0 {
		t.Fatalf("before = %d, want 0 on rollback", sr.before)
	}
	if len(sr.after) != 1 || sr.after[0] != StatusRolledBack {
		t.Fatalf("after = %v", sr.after)
	}
}

func TestConcurrentCommitRollbackRace(t *testing.T) {
	// Exactly one of commit/rollback must win; the loser sees ErrInactive
	// (or commit observes the rollback). Never both outcomes.
	for i := 0; i < 50; i++ {
		svc := NewService()
		tx := svc.Begin()
		_ = tx.RegisterResource(newFake("a"))
		_ = tx.RegisterResource(newFake("b"))
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); _ = tx.Commit(true) }()
		go func() { defer wg.Done(); _ = tx.Rollback() }()
		wg.Wait()
		st := tx.Status()
		if st != StatusCommitted && st != StatusRolledBack {
			t.Fatalf("iteration %d: non-terminal status %s", i, st)
		}
	}
}

func TestIsSameAndIdentity(t *testing.T) {
	svc := NewService()
	t1, t2 := svc.Begin(), svc.Begin()
	if t1.IsSame(t2) {
		t.Fatal("distinct transactions compare same")
	}
	if !t1.IsSame(t1) {
		t.Fatal("transaction not same as itself")
	}
	if t1.IsSame(nil) {
		t.Fatal("IsSame(nil) = true")
	}
	if t1.ID() == t2.ID() {
		t.Fatal("duplicate transaction ids")
	}
}
