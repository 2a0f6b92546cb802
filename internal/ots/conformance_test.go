package ots

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/wal"
)

// transcript collects, in order, what one conformance scenario observes:
// resource callbacks with the status each saw, gate calls, protocol events,
// terminator results and log contents.
type transcript struct {
	mu    sync.Mutex
	lines []string
}

func (tr *transcript) add(format string, args ...any) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.lines = append(tr.lines, fmt.Sprintf(format, args...))
}

// event is a WithEventHook observer writing to the transcript.
func (tr *transcript) event(e Event) {
	if e.Resource != "" {
		tr.add("event %s %s", e.Stage, e.Resource)
		return
	}
	tr.add("event %s", e.Stage)
}

// confResource is a scriptable participant that writes each callback, with
// the status its transaction shows at that moment, to a transcript.
type confResource struct {
	name string
	tr   *transcript
	tx   *Transaction // whose status the callbacks observe; nil observes none

	vote        Vote
	commitErr   error
	rollbackErr error
	onePhaseErr error
}

func (r *confResource) note(call string) {
	if r.tx == nil {
		r.tr.add("%s.%s", r.name, call)
		return
	}
	r.tr.add("%s.%s %s", r.name, call, r.tx.Status())
}

func (r *confResource) Prepare() (Vote, error) {
	r.note("prepare")
	if r.vote == 0 {
		return VoteCommit, nil
	}
	return r.vote, nil
}

func (r *confResource) Commit() error {
	r.note("commit")
	return r.commitErr
}

func (r *confResource) Rollback() error {
	r.note("rollback")
	return r.rollbackErr
}

func (r *confResource) CommitOnePhase() error {
	r.note("commit_one_phase")
	return r.onePhaseErr
}

func (r *confResource) Forget() error {
	r.note("forget")
	return nil
}

func (r *confResource) RecoveryName() string { return r.name }

// confAware adds the subtransaction callbacks.
type confAware struct {
	confResource
	top *Transaction // the parent a subtransaction commit should name
}

func (a *confAware) CommitSubtransaction(parent *Transaction) error {
	a.note(fmt.Sprintf("commit_subtransaction parent-is-top=%v", parent == a.top))
	return nil
}

func (a *confAware) RollbackSubtransaction() error {
	a.note("rollback_subtransaction")
	return nil
}

// verdict names the sentinel err wraps, so a transcript pins the error
// class and not its wording.
func verdict(err error) string {
	for _, s := range []struct {
		err  error
		name string
	}{
		{ErrHeuristicMixed, "ErrHeuristicMixed"},
		{ErrHeuristicHazard, "ErrHeuristicHazard"},
		{ErrRolledBack, "ErrRolledBack"},
		{ErrInactive, "ErrInactive"},
	} {
		if errors.Is(err, s.err) {
			return s.name
		}
	}
	if err == nil {
		return "nil"
	}
	return "other error"
}

// logContents writes the decision log's records to the transcript: each
// decision with the recovery names it carries, and each done or void record.
func logContents(t *testing.T, tr *transcript, log *wal.Log) {
	t.Helper()
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		switch r.Kind {
		case RecordDecision:
			dec, err := decodeDecision(r.Data)
			if err != nil {
				t.Fatal(err)
			}
			tr.add("log decision [%s]", strings.Join(dec.names, " "))
		case RecordDone:
			tr.add("log done")
		case RecordVoid:
			tr.add("log void")
		case RecordHeuristic:
			h, err := decodeHeuristic(r.Data)
			if err != nil {
				t.Fatal(err)
			}
			tr.add("log heuristic %s %s", h.Resource, h.Outcome)
		default:
			tr.add("log kind %d", r.Kind)
		}
	}
}

// enlist registers each resource with tx.
func enlist(t *testing.T, tx *Transaction, rs ...Resource) {
	t.Helper()
	for _, r := range rs {
		if err := tx.RegisterResource(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOTSConformance is the transaction service's conformance table: one
// row per CosTransactions behaviour the service promises, each a scenario
// whose transcript must read exactly as listed. It pins the observable
// protocol — the order of callbacks and events, the status each callback
// sees, what the decision log holds and which error the terminator
// raises — independently of how the commit protocol is implemented.
func TestOTSConformance(t *testing.T) {
	fenced := errors.New("fenced")
	cases := []struct {
		name string
		run  func(t *testing.T, tr *transcript)
		want []string
	}{
		{
			name: "commit: status seen by prepare, gate and commit",
			run: func(t *testing.T, tr *transcript) {
				var tx *Transaction
				svc := NewService(WithLog(wal.NewMemory()), WithEventHook(tr.event),
					WithDecisionGate(func(uint64) error {
						tr.add("gate %s", tx.Status())
						return nil
					}))
				tx = svc.Begin()
				enlist(t, tx, &confResource{name: "a", tr: tr, tx: tx}, &confResource{name: "b", tr: tr, tx: tx})
				tr.add("commit %s", verdict(tx.Commit(true)))
				tr.add("status %s", tx.Status())
			},
			want: []string{
				"a.prepare preparing",
				"b.prepare preparing",
				"event prepared",
				"gate prepared",
				"event decision-logged",
				"a.commit committing",
				"event commit-delivered a",
				"b.commit committing",
				"event commit-delivered b",
				"event done",
				"commit nil",
				"status committed",
			},
		},
		{
			name: "veto: status seen by rollback",
			run: func(t *testing.T, tr *transcript) {
				svc := NewService(WithLog(wal.NewMemory()), WithEventHook(tr.event))
				tx := svc.Begin()
				enlist(t, tx,
					&confResource{name: "a", tr: tr, tx: tx},
					&confResource{name: "veto", tr: tr, tx: tx, vote: VoteRollback},
					&confResource{name: "c", tr: tr, tx: tx})
				tr.add("commit %s", verdict(tx.Commit(true)))
				tr.add("status %s", tx.Status())
			},
			want: []string{
				"a.prepare preparing",
				"veto.prepare preparing",
				"a.rollback rolling-back",
				"c.rollback rolling-back",
				"commit ErrRolledBack",
				"status rolled-back",
			},
		},
		{
			name: "gate veto: no decision-logged event, rollback, cause kept",
			run: func(t *testing.T, tr *transcript) {
				var tx *Transaction
				log := wal.NewMemory()
				svc := NewService(WithLog(log), WithEventHook(tr.event),
					WithDecisionGate(func(uint64) error {
						tr.add("gate %s", tx.Status())
						return fenced
					}))
				tx = svc.Begin()
				enlist(t, tx, &confResource{name: "a", tr: tr, tx: tx}, &confResource{name: "b", tr: tr, tx: tx})
				err := tx.Commit(true)
				tr.add("commit %s wraps-cause=%v", verdict(err), errors.Is(err, fenced))
				tr.add("status %s", tx.Status())
				// The gate saw an appended decision; the void marker
				// retracts it.
				logContents(t, tr, log)
			},
			want: []string{
				"a.prepare preparing",
				"b.prepare preparing",
				"event prepared",
				"gate prepared",
				"a.rollback rolling-back",
				"b.rollback rolling-back",
				"commit ErrRolledBack wraps-cause=true",
				"status rolled-back",
				"log decision [a b]",
				"log void",
			},
		},
		{
			name: "read-only voter: no phase two, absent from the decision record",
			run: func(t *testing.T, tr *transcript) {
				log := wal.NewMemory()
				svc := NewService(WithLog(log), WithEventHook(tr.event))
				tx := svc.Begin()
				enlist(t, tx,
					&confResource{name: "ro", tr: tr, vote: VoteReadOnly},
					&confResource{name: "a", tr: tr},
					&confResource{name: "b", tr: tr})
				tr.add("commit %s", verdict(tx.Commit(true)))
				logContents(t, tr, log)
			},
			want: []string{
				"ro.prepare",
				"a.prepare",
				"b.prepare",
				"event prepared",
				"event decision-logged",
				"a.commit",
				"event commit-delivered a",
				"b.commit",
				"event commit-delivered b",
				"event done",
				"commit nil",
				"log decision [a b]",
				"log done",
			},
		},
		{
			name: "every voter read-only: committed with no decision",
			run: func(t *testing.T, tr *transcript) {
				log := wal.NewMemory()
				svc := NewService(WithLog(log), WithEventHook(tr.event))
				tx := svc.Begin()
				enlist(t, tx,
					&confResource{name: "ro1", tr: tr, vote: VoteReadOnly},
					&confResource{name: "ro2", tr: tr, vote: VoteReadOnly})
				tr.add("commit %s", verdict(tx.Commit(true)))
				tr.add("status %s", tx.Status())
				logContents(t, tr, log)
			},
			want: []string{
				"ro1.prepare",
				"ro2.prepare",
				"commit nil",
				"status committed",
			},
		},
		{
			name: "commit(report_heuristics=false) over a heuristic-mixed phase two",
			run: func(t *testing.T, tr *transcript) {
				log := wal.NewMemory()
				svc := NewService(WithLog(log), WithEventHook(tr.event))
				tx := svc.Begin()
				enlist(t, tx,
					&confResource{name: "a", tr: tr},
					&confResource{name: "rogue", tr: tr, commitErr: fmt.Errorf("unilateral: %w", ErrHeuristicRollback)})
				tr.add("commit %s", verdict(tx.Commit(false)))
				tr.add("status %s", tx.Status())
				logContents(t, tr, log)
			},
			want: []string{
				"a.prepare",
				"rogue.prepare",
				"event prepared",
				"event decision-logged",
				"a.commit",
				"event commit-delivered a",
				"rogue.commit",
				"event done",
				"commit nil",
				"status committed",
				"log decision [a rogue]",
				"log heuristic rogue rolled-back",
				"log done",
			},
		},
		{
			name: "commit(report_heuristics=true) raises the heuristic-mixed outcome",
			run: func(t *testing.T, tr *transcript) {
				svc := NewService(WithLog(wal.NewMemory()))
				tx := svc.Begin()
				enlist(t, tx,
					&confResource{name: "a", tr: tr},
					&confResource{name: "rogue", tr: tr, commitErr: fmt.Errorf("unilateral: %w", ErrHeuristicRollback)})
				tr.add("commit %s", verdict(tx.Commit(true)))
				tr.add("status %s", tx.Status())
			},
			want: []string{
				"a.prepare",
				"rogue.prepare",
				"a.commit",
				"rogue.commit",
				"commit ErrHeuristicMixed",
				"status committed",
			},
		},
		{
			name: "subtransaction-aware ordering: nested commit, then top-level commit",
			run: func(t *testing.T, tr *transcript) {
				svc := NewService()
				top := svc.Begin()
				sub, err := top.BeginSubtransaction()
				if err != nil {
					t.Fatal(err)
				}
				aware := &confAware{confResource: confResource{name: "aw", tr: tr}, top: top}
				enlist(t, sub, aware, &confResource{name: "p", tr: tr})
				tr.add("sub commit %s", verdict(sub.Commit(true)))
				tr.add("sub status %s", sub.Status())
				tr.add("top commit %s", verdict(top.Commit(true)))
			},
			want: []string{
				"aw.commit_subtransaction parent-is-top=true",
				"sub commit nil",
				"sub status committed",
				"aw.prepare",
				"p.prepare",
				"aw.commit",
				"p.commit",
				"top commit nil",
			},
		},
		{
			name: "subtransaction-aware ordering: nested rollback",
			run: func(t *testing.T, tr *transcript) {
				svc := NewService()
				top := svc.Begin()
				sub, err := top.BeginSubtransaction()
				if err != nil {
					t.Fatal(err)
				}
				aware := &confAware{confResource: confResource{name: "aw", tr: tr}, top: top}
				enlist(t, sub, aware, &confResource{name: "p", tr: tr})
				tr.add("sub rollback %s", verdict(sub.Rollback()))
				tr.add("sub status %s", sub.Status())
				tr.add("top commit %s", verdict(top.Commit(true)))
			},
			want: []string{
				"aw.rollback_subtransaction",
				"p.rollback",
				"sub rollback nil",
				"sub status rolled-back",
				"top commit nil",
			},
		},
		{
			name: "commit_one_phase: heuristic commit commits, heuristic rollback rolls back",
			run: func(t *testing.T, tr *transcript) {
				log := wal.NewMemory()
				svc := NewService(WithLog(log), WithEventHook(tr.event))
				tx := svc.Begin()
				enlist(t, tx, &confResource{name: "hc", tr: tr, tx: tx, onePhaseErr: fmt.Errorf("unilateral: %w", ErrHeuristicCommit)})
				tr.add("commit %s", verdict(tx.Commit(true)))
				tr.add("status %s", tx.Status())
				tx = svc.Begin()
				enlist(t, tx, &confResource{name: "hr", tr: tr, tx: tx, onePhaseErr: fmt.Errorf("unilateral: %w", ErrHeuristicRollback)})
				tr.add("commit %s", verdict(tx.Commit(true)))
				tr.add("status %s", tx.Status())
				logContents(t, tr, log)
			},
			want: []string{
				"hc.commit_one_phase committing",
				"commit nil",
				"status committed",
				"hr.commit_one_phase committing",
				"commit ErrRolledBack",
				"status rolled-back",
				"log heuristic hc committed",
			},
		},
		{
			name: "rollback-only transaction: commit rolls back and raises",
			run: func(t *testing.T, tr *transcript) {
				svc := NewService(WithLog(wal.NewMemory()), WithEventHook(tr.event))
				tx := svc.Begin()
				enlist(t, tx, &confResource{name: "a", tr: tr, tx: tx}, &confResource{name: "b", tr: tr, tx: tx})
				tr.add("rollback_only %s", verdict(tx.RollbackOnly()))
				tr.add("status %s", tx.Status())
				tr.add("commit %s", verdict(tx.Commit(true)))
				tr.add("status %s", tx.Status())
			},
			want: []string{
				"rollback_only nil",
				"status marked-rollback",
				"a.rollback rolling-back",
				"b.rollback rolling-back",
				"commit ErrRolledBack",
				"status rolled-back",
			},
		},
		{
			name: "rollback: a heuristic commit is recorded",
			run: func(t *testing.T, tr *transcript) {
				log := wal.NewMemory()
				svc := NewService(WithLog(log))
				tx := svc.Begin()
				enlist(t, tx,
					&confResource{name: "a", tr: tr, tx: tx},
					&confResource{name: "eager", tr: tr, tx: tx, rollbackErr: fmt.Errorf("unilateral: %w", ErrHeuristicCommit)})
				tr.add("rollback %s", verdict(tx.Rollback()))
				tr.add("status %s", tx.Status())
				logContents(t, tr, log)
			},
			want: []string{
				"a.rollback rolling-back",
				"eager.rollback rolling-back",
				"rollback nil",
				"status rolled-back",
				"log heuristic eager committed",
			},
		},
		{
			name: "Current: rollback_only and get_status",
			run: func(t *testing.T, tr *transcript) {
				svc := NewService()
				cur := NewCurrent(svc)
				ctx, tx, err := cur.Begin(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				enlist(t, tx, &confResource{name: "a", tr: tr, tx: tx}, &confResource{name: "b", tr: tr, tx: tx})
				st, ok := cur.Status(ctx)
				tr.add("current status %s %v", st, ok)
				tr.add("current rollback_only %s", verdict(cur.RollbackOnly(ctx)))
				st, ok = cur.Status(ctx)
				tr.add("current status %s %v", st, ok)
				ctx, err = cur.Commit(ctx, true)
				tr.add("current commit %s", verdict(err))
				_, ok = cur.Status(ctx)
				tr.add("current holds a transaction %v", ok)
				tr.add("status %s", tx.Status())
			},
			want: []string{
				"current status active true",
				"current rollback_only nil",
				"current status marked-rollback true",
				"a.rollback rolling-back",
				"b.rollback rolling-back",
				"current commit ErrRolledBack",
				"current holds a transaction false",
				"status rolled-back",
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := &transcript{}
			c.run(t, tr)
			got := strings.Join(tr.lines, "\n")
			if want := strings.Join(c.want, "\n"); got != want {
				t.Fatalf("transcript:\n%s\n\nwant:\n%s", got, want)
			}
		})
	}
}
