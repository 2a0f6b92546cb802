package remote

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/wal"
)

// callLog records, in arrival order, every operation the participants of
// a resource-batch test receive, across all their hosts.
type callLog struct {
	mu    sync.Mutex
	calls []string
}

func (l *callLog) add(name, op string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.calls = append(l.calls, name+":"+op)
}

// all returns the logged calls, in arrival order.
func (l *callLog) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.calls)
}

// of returns the operations name received, in arrival order.
func (l *callLog) of(name string) []string {
	var ops []string
	for _, c := range l.all() {
		if op, ok := strings.CutPrefix(c, name+":"); ok {
			ops = append(ops, op)
		}
	}
	return ops
}

// scriptedParticipant is a resource that logs every call and answers
// prepare with its vote, or with an error when prepareErr is set. Its
// phase-two answers are commitErrs in turn, then nil.
type scriptedParticipant struct {
	name       string
	log        *callLog
	vote       ots.Vote
	prepareErr bool

	mu         sync.Mutex
	commitErrs []error
}

func (p *scriptedParticipant) Prepare() (ots.Vote, error) {
	p.log.add(p.name, "prepare")
	if p.prepareErr {
		return ots.VoteRollback, errors.New("prepare exploded")
	}
	return p.vote, nil
}

func (p *scriptedParticipant) Commit() error {
	p.log.add(p.name, "commit")
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.commitErrs) == 0 {
		return nil
	}
	err := p.commitErrs[0]
	p.commitErrs = p.commitErrs[1:]
	return err
}

func (p *scriptedParticipant) Rollback() error       { p.log.add(p.name, "rollback"); return nil }
func (p *scriptedParticipant) CommitOnePhase() error { return p.Commit() }
func (p *scriptedParticipant) Forget() error         { return nil }

// enlist exports each participant on its host, imports it through client
// and registers the proxies with a new transaction of svc, in order.
func enlist(t *testing.T, svc *ots.Service, client *orb.ORB, hosts []*orb.ORB, ps []*scriptedParticipant) *ots.Transaction {
	t.Helper()
	tx := svc.Begin()
	for i, p := range ps {
		ref := ExportResource(hosts[i], p)
		ref, _ = hosts[i].IOR(ref.Key)
		if err := tx.RegisterResource(ImportResource(client, ref)); err != nil {
			t.Fatal(err)
		}
	}
	return tx
}

// voting returns participants p0, p1, … logging to log, voting votes.
func voting(log *callLog, votes ...ots.Vote) []*scriptedParticipant {
	ps := make([]*scriptedParticipant, len(votes))
	for i, v := range votes {
		ps[i] = &scriptedParticipant{name: fmt.Sprintf("p%d", i), log: log, vote: v}
	}
	return ps
}

// TestEndpointBatchResourceCommitOneCallPerRound commits over two
// resources on one host: prepare and commit each reach the host in one
// call, and each resource still sees its operations in order.
func TestEndpointBatchResourceCommitOneCallPerRound(t *testing.T) {
	host := batchHost(t)
	client := orb.New()
	defer client.Shutdown()
	var log callLog
	ps := voting(&log, ots.VoteCommit, ots.VoteCommit)
	tx := enlist(t, ots.NewService(), client, []*orb.ORB{host, host}, ps)
	before := dispatched(t, host)
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if got := dispatched(t, host) - before; got != 2 {
		t.Fatalf("commit cost the host %d dispatches, want 2: one per round", got)
	}
	if got, want := log.all(), []string{"p0:prepare", "p1:prepare", "p0:commit", "p1:commit"}; !slices.Equal(got, want) {
		t.Fatalf("calls = %v, want %v", got, want)
	}
}

// TestEndpointBatchResourceVetoStopsPrepare has the second of three
// same-host resources vote rollback: the host stops the prepare batch
// there, so the third never sees prepare, and the rollback batch reaches
// every resource that voted commit or did not vote, once each.
func TestEndpointBatchResourceVetoStopsPrepare(t *testing.T) {
	host := batchHost(t)
	client := orb.New()
	defer client.Shutdown()
	var log callLog
	ps := voting(&log, ots.VoteCommit, ots.VoteRollback, ots.VoteCommit)
	tx := enlist(t, ots.NewService(), client, []*orb.ORB{host, host, host}, ps)
	before := dispatched(t, host)
	if err := tx.Commit(true); !errors.Is(err, ots.ErrRolledBack) {
		t.Fatalf("err = %v, want ErrRolledBack", err)
	}
	for name, want := range map[string][]string{
		"p0": {"prepare", "rollback"},
		"p1": {"prepare"}, // a rollback voter has rolled itself back
		"p2": {"rollback"},
	} {
		if got := log.of(name); !slices.Equal(got, want) {
			t.Fatalf("%s calls = %v, want %v", name, got, want)
		}
	}
	if got := dispatched(t, host) - before; got != 2 {
		t.Fatalf("dispatches = %d, want 2: one prepare, one rollback batch", got)
	}
}

// TestEndpointBatchHeuristicReplyNotRetried extends twopc's
// TestHeuristicReplyNotRetried to a commit batch: under a retrying
// coordinator, the host runs commit once on a resource that answers with a
// heuristic, which is recorded once, while a resource whose commit fails
// is retried until it commits.
func TestEndpointBatchHeuristicReplyNotRetried(t *testing.T) {
	host := batchHost(t)
	client := orb.New()
	defer client.Shutdown()
	var log callLog
	ps := voting(&log, ots.VoteCommit, ots.VoteCommit, ots.VoteCommit)
	ps[0].commitErrs = []error{fmt.Errorf("resolved unilaterally: %w", ots.ErrHeuristicRollback)}
	ps[2].commitErrs = []error{errors.New("disk busy"), errors.New("disk busy")}
	svc := ots.NewService(ots.WithRetryPolicy(3, 0), ots.WithLog(wal.NewMemory()))
	tx := enlist(t, svc, client, []*orb.ORB{host, host, host}, ps)
	before := dispatched(t, host)
	if err := tx.Commit(true); !errors.Is(err, ots.ErrHeuristicMixed) {
		t.Fatalf("err = %v, want ErrHeuristicMixed", err)
	}
	if got := dispatched(t, host) - before; got != 2 {
		t.Fatalf("dispatches = %d, want 2: one prepare, one commit batch", got)
	}
	for i, want := range [][]string{
		{"prepare", "commit"},
		{"prepare", "commit"},
		{"prepare", "commit", "commit", "commit"},
	} {
		if got := log.of(ps[i].name); !slices.Equal(got, want) {
			t.Fatalf("%s calls = %v, want %v", ps[i].name, got, want)
		}
	}
	recs, err := svc.Heuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Outcome != ots.StatusRolledBack {
		t.Fatalf("heuristic records = %+v, want one heuristic rollback", recs)
	}
}

// TestEndpointBatchResourceFallsBackPerCall commits over resources on a
// host that cannot run a resource batch: one that serves them without a
// relay, and one whose relay refuses the batch kind as a relay that
// predates it does. The coordinator makes one call per resource, and the
// outcome and every resource's calls are those of a batching host.
func TestEndpointBatchResourceFallsBackPerCall(t *testing.T) {
	for _, tc := range []struct {
		name  string
		relay orb.Servant // under RelayKey; nil for none
	}{
		{"no-relay", nil},
		{"kind-refused", orb.ServantFunc(func(context.Context, string, *cdr.Decoder) ([]byte, error) {
			return nil, orb.Systemf(orb.CodeMarshal, "%s: remote: relay batch kind %d", relayOp, relayBatchResources)
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			host := batchHost(t)
			if tc.relay != nil {
				host.RegisterServantWithKey(RelayKey, RelayTypeID, tc.relay)
			}
			client := orb.New()
			defer client.Shutdown()
			var log callLog
			for _, votes := range [][]ots.Vote{
				{ots.VoteCommit, ots.VoteCommit},
				{ots.VoteCommit, ots.VoteRollback},
			} {
				ps := voting(&log, votes...)
				tx := ots.NewService().Begin()
				for _, p := range ps {
					ref := host.RegisterServant(ResourceTypeID, &resourceServant{res: p})
					ref, _ = host.IOR(ref.Key)
					_ = tx.RegisterResource(ImportResource(client, ref))
				}
				err := tx.Commit(true)
				want := []string{"p0:prepare", "p1:prepare", "p0:commit", "p1:commit"}
				if votes[1] == ots.VoteRollback {
					if !errors.Is(err, ots.ErrRolledBack) {
						t.Fatalf("err = %v, want ErrRolledBack", err)
					}
					want = []string{"p0:prepare", "p1:prepare", "p0:rollback"}
				} else if err != nil {
					t.Fatal(err)
				}
				if got := log.all(); !slices.Equal(got, want) {
					t.Fatalf("calls = %v, want %v", got, want)
				}
				log = callLog{}
			}
		})
	}
}

// TestDifferentialResourceBatchMatchesPerHost scripts every vote vector
// over three resources — commit, read-only, rollback or a failed Prepare
// each — and runs each transaction twice: with all three resources on one
// host, where every round is one resource batch, and with each on its own
// host, one call per resource. The outcome, its error class, the ots event
// stream and the order of every call the resources receive must be
// identical.
func TestDifferentialResourceBatchMatchesPerHost(t *testing.T) {
	client := orb.New()
	defer client.Shutdown()
	shared := batchHost(t)
	oneHost := []*orb.ORB{shared, shared, shared}
	perHost := []*orb.ORB{batchHost(t), batchHost(t), batchHost(t)}
	const prepareErr = ots.Vote(0) // scripted as a failed Prepare
	answers := []ots.Vote{ots.VoteCommit, ots.VoteReadOnly, ots.VoteRollback, prepareErr}

	type run struct {
		class  string
		events []string
		calls  []string
	}
	commit := func(hosts []*orb.ORB, votes []ots.Vote) run {
		var log callLog
		var r run
		names := map[string]int{}
		svc := ots.NewService(ots.WithEventHook(func(e ots.Event) {
			r.events = append(r.events, fmt.Sprintf("%s:%d", e.Stage, names[e.Resource]-1))
		}))
		ps := voting(&log, votes...)
		tx := svc.Begin()
		for i, p := range ps {
			p.prepareErr = votes[i] == prepareErr
			ref := ExportResource(hosts[i], p)
			ref, _ = hosts[i].IOR(ref.Key)
			proxy := ImportResource(client, ref)
			names[proxy.RecoveryName()] = i + 1
			if err := tx.RegisterResource(proxy); err != nil {
				t.Fatal(err)
			}
		}
		err := tx.Commit(true)
		switch {
		case err == nil:
			r.class = "committed"
		case errors.Is(err, ots.ErrRolledBack):
			r.class = "rolled-back"
		default:
			r.class = "other: " + err.Error()
		}
		r.calls = log.all()
		return r
	}
	for _, a := range answers {
		for _, b := range answers {
			for _, c := range answers {
				votes := []ots.Vote{a, b, c}
				batched, direct := commit(oneHost, votes), commit(perHost, votes)
				if batched.class != direct.class ||
					!slices.Equal(batched.events, direct.events) ||
					!slices.Equal(batched.calls, direct.calls) {
					t.Fatalf("votes %v: one host %+v, three hosts %+v", votes, batched, direct)
				}
			}
		}
	}
}
