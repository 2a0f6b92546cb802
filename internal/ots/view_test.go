package ots

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/wal"
)

// TestRecoveryVetoedDecisionIsVoid: a decision the gate vetoed is
// retracted in the log, so no scan of that log replays it — whether the
// recovery view was built before the commit or is built afterwards. Before
// the void marker, a cold view answered committed for a transaction whose
// participants had been rolled back, and Recover committed them.
func TestRecoveryVetoedDecisionIsVoid(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("view-built-before-commit=%v", warm), func(t *testing.T) {
			log := wal.NewMemory()
			dir := NewDirectory()
			disk := map[string]string{}
			x, y := newDurable("x", &disk), newDurable("y", &disk)
			dir.Register("x", x)
			dir.Register("y", y)
			svc := NewService(WithLog(log), WithDirectory(dir),
				WithDecisionGate(func(uint64) error { return errors.New("vetoed") }))
			if warm {
				if _, err := svc.InDoubtResources(); err != nil {
					t.Fatal(err)
				}
			}
			tx := svc.Begin()
			enlist(t, tx, x, y)
			if err := tx.Commit(true); !errors.Is(err, ErrRolledBack) {
				t.Fatalf("vetoed commit = %v, want ErrRolledBack", err)
			}
			for _, s := range []*Service{svc, NewService(WithLog(log), WithDirectory(dir))} {
				if st, err := s.ReplayCompletion("x"); err != nil || st != StatusRolledBack {
					t.Fatalf("ReplayCompletion(x) = %s, %v; want rolled-back", st, err)
				}
				stats, err := s.Recover()
				if err != nil || stats.DecisionsReplayed != 0 {
					t.Fatalf("Recover = %+v, %v; want no decision replayed", stats, err)
				}
			}
			if disk["x"] != "rolledback" || disk["y"] != "rolledback" {
				t.Fatalf("participants after recovery = %v, want both rolled back", disk)
			}
			if err := svc.CheckpointLog(); err != nil {
				t.Fatal(err)
			}
			if recs, err := log.Records(); err != nil || len(recs) != 0 {
				t.Fatalf("log after checkpoint = %v, %v; want the decision and its void dropped", recs, err)
			}
		})
	}
}

// TestRecoveryRefusedOnceLogKnowsLaterTerm: a service answers for the term
// it was made in. Once its log learns of a later term, every recovery
// entry point fails with ErrFenced rather than answer from a view that may
// predate the new leader's decisions; a service made after that answers.
func TestRecoveryRefusedOnceLogKnowsLaterTerm(t *testing.T) {
	log := wal.NewMemory()
	if _, err := log.AdoptTerm(1, "a"); err != nil {
		t.Fatal(err)
	}
	svc := NewService(WithLog(log))
	tx := svc.Begin()
	enlist(t, tx, newFake("x"), newFake("y"))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if st, err := svc.ReplayCompletion("x"); err != nil || st != StatusCommitted {
		t.Fatalf("ReplayCompletion(x) in its own term = %s, %v", st, err)
	}

	log.Fence(2)
	entries := map[string]func() error{
		"Recover":          func() error { _, err := svc.Recover(); return err },
		"ReplayCompletion": func() error { _, err := svc.ReplayCompletion("x"); return err },
		"InDoubtResources": func() error { _, err := svc.InDoubtResources(); return err },
		"Heuristics":       func() error { _, err := svc.Heuristics(); return err },
		"ForgetHeuristics": func() error { return svc.ForgetHeuristics(tx.ID()) },
		"CheckpointLog":    func() error { return svc.CheckpointLog() },
	}
	for name, call := range entries {
		if err := call(); !errors.Is(err, wal.ErrFenced) {
			t.Errorf("%s on a service of an earlier term = %v, want ErrFenced", name, err)
		}
	}
	if st, err := NewService(WithLog(log)).ReplayCompletion("x"); err != nil || st != StatusCommitted {
		t.Fatalf("ReplayCompletion(x) on a service of the known term = %s, %v", st, err)
	}
}

// propResource is a named participant whose phase-two reply the property
// test sets before each operation.
type propResource struct {
	name  string
	reply error // nil, a transient failure, or a heuristic sentinel
}

func (r *propResource) Prepare() (Vote, error)  { return VoteCommit, nil }
func (r *propResource) Commit() error           { return r.reply }
func (r *propResource) Rollback() error         { return nil }
func (r *propResource) CommitOnePhase() error   { return nil }
func (r *propResource) Forget() error           { return nil }
func (r *propResource) RecoveryName() string    { return r.name }
func (r *propResource) setReply(rng *rand.Rand) { r.reply = propReplies[rng.Intn(len(propReplies))] }

// propReplies weights a plain commit over the failures and heuristics.
var propReplies = []error{nil, nil, nil, errors.New("unreachable"), ErrHeuristicRollback, ErrHeuristicCommit}

// recoveryAnswers is everything a recovery client can read from a service:
// the in-doubt names, the outcome for each name, the recorded heuristics
// and the pending gauges.
func recoveryAnswers(t *testing.T, s *Service, names []string) string {
	t.Helper()
	doubt, err := s.InDoubtResources()
	if err != nil {
		t.Fatal(err)
	}
	heur, err := s.Heuristics()
	if err != nil {
		t.Fatal(err)
	}
	tot := s.RecoveryTotals()
	out := fmt.Sprintf("in-doubt %v\nheuristics %v\npending %d decisions, %d heuristics\n",
		doubt, heur, tot.PendingDecisions, tot.PendingHeuristics)
	for _, n := range names {
		st, err := s.ReplayCompletion(n)
		if err != nil {
			t.Fatal(err)
		}
		out += fmt.Sprintf("%s %s\n", n, st)
	}
	return out
}

// TestRecoveryViewMatchesFreshScan is the recovery view's property: the
// live service's view, built before the first operation and kept current
// by each writer's fold, answers exactly as a fresh service scanning the
// same log does. Each seed runs a random sequence of commits (2–3 named
// participants, each replying commit, a transient failure or a
// heuristic), vetoed commits, ForgetHeuristics, CheckpointLog and Recover,
// and compares the two services after every operation.
func TestRecoveryViewMatchesFreshScan(t *testing.T) {
	const seeds, ops = 200, 40
	names := []string{"p0", "p1", "p2", "p3", "p4", "p5"}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		log := wal.NewMemory()
		dir := NewDirectory()
		pool := make([]*propResource, len(names))
		for i, n := range names {
			pool[i] = &propResource{name: n}
			dir.Register(n, pool[i])
		}
		veto := false
		live := NewService(WithLog(log), WithDirectory(dir), WithRetryPolicy(1, 0),
			WithDecisionGate(func(uint64) error {
				if veto {
					return errors.New("vetoed")
				}
				return nil
			}))
		if _, err := live.InDoubtResources(); err != nil {
			t.Fatal(err)
		}
		var txs []ids.UID
		var trail []string
		for len(trail) < ops {
			switch k := rng.Intn(10); {
			case k < 5: // commit, or a vetoed one
				veto = k == 0
				tx := live.Begin()
				for _, i := range rng.Perm(len(pool))[:2+rng.Intn(2)] {
					pool[i].setReply(rng)
					if err := tx.RegisterResource(pool[i]); err != nil {
						t.Fatal(err)
					}
				}
				_ = tx.Commit(true)
				txs = append(txs, tx.ID())
				trail = append(trail, fmt.Sprintf("commit(veto=%v)", veto))
			case k < 7:
				if len(txs) == 0 {
					continue
				}
				if err := live.ForgetHeuristics(txs[rng.Intn(len(txs))]); err != nil {
					t.Fatal(err)
				}
				trail = append(trail, "forget")
			case k < 8:
				if err := live.CheckpointLog(); err != nil {
					t.Fatal(err)
				}
				trail = append(trail, "checkpoint")
			default:
				for _, r := range pool {
					r.setReply(rng)
				}
				if _, err := live.Recover(); err != nil {
					t.Fatal(err)
				}
				trail = append(trail, "recover")
			}
			fresh := NewService(WithLog(log), WithDirectory(dir))
			if got, want := recoveryAnswers(t, live, names), recoveryAnswers(t, fresh, names); got != want {
				t.Fatalf("seed %d after %v: live view answers\n%s\nfresh scan answers\n%s",
					seed, trail, got, want)
			}
		}
	}
}
