package remote

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/wal"
)

// slotResource is a capacity-1 participant with observable state.
type slotResource struct {
	mu        sync.Mutex
	vote      ots.Vote
	state     string
	rollbacks int
}

func (s *slotResource) set(v string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = v
}

func (s *slotResource) State() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

func (s *slotResource) Prepare() (ots.Vote, error) {
	s.set("prepared")
	return s.vote, nil
}

func (s *slotResource) Commit() error         { s.set("committed"); return nil }
func (s *slotResource) CommitOnePhase() error { return s.Commit() }
func (s *slotResource) Forget() error         { return nil }

// Rollback counts, so a test can tell one rollback from a repeat.
func (s *slotResource) Rollback() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = "rolledback"
	s.rollbacks++
	return nil
}

func (s *slotResource) Rollbacks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rollbacks
}

func TestDistributedOTSTwoPhaseCommit(t *testing.T) {
	coordinatorORB := orb.New()
	t.Cleanup(coordinatorORB.Shutdown)

	var resources []*slotResource
	var refs []orb.IOR
	for i := 0; i < 3; i++ {
		node := orb.New()
		t.Cleanup(node.Shutdown)
		r := &slotResource{vote: ots.VoteCommit}
		resources = append(resources, r)
		ref := ExportResource(node, r)
		if _, err := node.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		ref, _ = node.IOR(ref.Key)
		refs = append(refs, ref)
	}

	svc := ots.NewService()
	tx := svc.Begin()
	for _, ref := range refs {
		if err := tx.RegisterResource(ImportResource(coordinatorORB, ref)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	for i, r := range resources {
		if r.State() != "committed" {
			t.Fatalf("resource %d state = %q", i, r.State())
		}
	}
}

func TestDistributedOTSVetoRollsBack(t *testing.T) {
	coordinatorORB := orb.New()
	t.Cleanup(coordinatorORB.Shutdown)
	node := orb.New()
	t.Cleanup(node.Shutdown)

	good := &slotResource{vote: ots.VoteCommit}
	veto := &slotResource{vote: ots.VoteRollback}
	goodRef := ExportResource(node, good)
	vetoRef := ExportResource(node, veto)
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	goodRef, _ = node.IOR(goodRef.Key)
	vetoRef, _ = node.IOR(vetoRef.Key)

	svc := ots.NewService()
	tx := svc.Begin()
	_ = tx.RegisterResource(ImportResource(coordinatorORB, goodRef))
	_ = tx.RegisterResource(ImportResource(coordinatorORB, vetoRef))
	if err := tx.Commit(true); !errors.Is(err, ots.ErrRolledBack) {
		t.Fatalf("err = %v", err)
	}
	if good.State() != "rolledback" {
		t.Fatalf("good state = %q", good.State())
	}
}

// TestDistributedOTSLostPrepareReplyRollsBack drops the reply to a
// prepare after the servants prepared. The coordinator sees an error, not
// a vote, and rolls the transaction back; since the servants may be
// prepared, each is told to roll back exactly once. With both resources on
// one host the reply lost is the prepare batch's; with each on its own
// host it is the first resource's own prepare.
func TestDistributedOTSLostPrepareReplyRollsBack(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sameHost bool
		rule     orb.ChaosRule
	}{
		{"batch", true, orb.ChaosRule{Op: relayOp, Signal: ots.SignalPrepare, Stage: orb.StageReply, Drop: true, Count: 1}},
		{"per-call", false, orb.ChaosRule{Op: "prepare", Stage: orb.StageReply, Drop: true, Count: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chaos := orb.NewChaosTransport()
			coordinatorORB := orb.New(orb.WithTransport(chaos), orb.WithCallTimeout(200*time.Millisecond))
			t.Cleanup(coordinatorORB.Shutdown)
			lostHost := batchHost(t)
			otherHost := lostHost
			if !tc.sameHost {
				otherHost = batchHost(t)
			}

			lost := &slotResource{vote: ots.VoteCommit}
			other := &slotResource{vote: ots.VoteCommit}
			lostRef := ExportResource(lostHost, lost)
			otherRef := ExportResource(otherHost, other)
			lostRef, _ = lostHost.IOR(lostRef.Key)
			otherRef, _ = otherHost.IOR(otherRef.Key)

			fault := chaos.Inject(tc.rule)
			tx := ots.NewService().Begin()
			_ = tx.RegisterResource(ImportResource(coordinatorORB, lostRef))
			_ = tx.RegisterResource(ImportResource(coordinatorORB, otherRef))
			if err := tx.Commit(true); !errors.Is(err, ots.ErrRolledBack) {
				t.Fatalf("err = %v, want ErrRolledBack", err)
			}
			if fault.Hits() != 1 {
				t.Fatalf("drop fired %d times, want 1", fault.Hits())
			}
			if n := lost.Rollbacks(); n != 1 || lost.State() != "rolledback" {
				t.Fatalf("prepared servant whose reply was lost: %d rollbacks, state %q; want 1, rolledback", n, lost.State())
			}
			if n := other.Rollbacks(); n != 1 {
				t.Fatalf("other servant: %d rollbacks, want 1", n)
			}
		})
	}
}

func TestRemoteResourceRecoveryNameIsIOR(t *testing.T) {
	node := orb.New()
	t.Cleanup(node.Shutdown)
	ref := ExportResource(node, &slotResource{vote: ots.VoteCommit})
	proxy := ImportResource(node, ref)
	parsed, err := orb.ParseIOR(proxy.RecoveryName())
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(ref) {
		t.Fatalf("recovery name round trip: %+v != %+v", parsed, ref)
	}
}

func TestDistributedRecoveryRedeliversCommit(t *testing.T) {
	// Coordinator crash between decision and phase two, with the
	// participant on another node: after restart, BindRemoteResources
	// turns the logged IOR names back into proxies and Recover re-drives
	// commit over the network.
	participantORB := orb.New()
	t.Cleanup(participantORB.Shutdown)
	res := &slotResource{vote: ots.VoteCommit}
	// Stable key: the participant re-registers at the same reference after
	// its own restarts.
	ref := ExportResourceWithKey(participantORB, "slot-1", res)
	if _, err := participantORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = participantORB.IOR(ref.Key)

	log := wal.NewMemory()
	coordORB := orb.New()
	t.Cleanup(coordORB.Shutdown)
	svc := ots.NewService(ots.WithLog(log))
	tx := svc.Begin()
	_ = tx.RegisterResource(ImportResource(coordORB, ref))
	_ = tx.RegisterResource(ImportResource(coordORB, ref)) // two branches
	if err := tx.Commit(false); err != nil {
		t.Fatal(err)
	}

	// Crash image: decision only.
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	crashLog := wal.NewMemory()
	if _, err := crashLog.Append(recs[0].Kind, recs[0].Data); err != nil {
		t.Fatal(err)
	}
	res.set("prepared") // phase two never happened from the new process' view

	dir := ots.NewDirectory()
	if err := BindRemoteResources(coordORB, dir, []string{ref.String()}); err != nil {
		t.Fatal(err)
	}
	svc2 := ots.NewService(ots.WithLog(crashLog), ots.WithDirectory(dir))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if res.State() != "committed" {
		t.Fatalf("state = %q after recovery", res.State())
	}
}

func TestBindRemoteResourcesRejectsGarbage(t *testing.T) {
	node := orb.New()
	t.Cleanup(node.Shutdown)
	dir := ots.NewDirectory()
	if err := BindRemoteResources(node, dir, []string{"not-an-ior"}); err == nil {
		t.Fatal("garbage name accepted")
	}
}

// outcomeResource answers every phase-two call with err.
type outcomeResource struct{ err error }

func (r outcomeResource) Prepare() (ots.Vote, error) { return ots.VoteCommit, nil }
func (r outcomeResource) Commit() error              { return r.err }
func (r outcomeResource) Rollback() error            { return r.err }
func (r outcomeResource) CommitOnePhase() error      { return r.err }
func (r outcomeResource) Forget() error              { return r.err }

// rawReplyServant answers every operation with a fixed reply body.
type rawReplyServant []byte

func (s rawReplyServant) Dispatch(context.Context, string, *cdr.Decoder) ([]byte, error) {
	return s, nil
}

// TestRemoteResourceHeuristicOutcomes drives each phase-two verb through
// a resource proxy over a real ORB pair: a heuristic answer crosses the
// wire as an outcome octet and comes back as the matching sentinel, while
// a plain servant error stays an error and no heuristic.
func TestRemoteResourceHeuristicOutcomes(t *testing.T) {
	server := orb.New()
	t.Cleanup(server.Shutdown)
	if _, err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	client := orb.New()
	t.Cleanup(client.Shutdown)
	importErr := func(err error) ots.Resource {
		ref := ExportResource(server, outcomeResource{err: err})
		return ImportResource(client, ref)
	}
	plain := errors.New("disk on fire")

	verbs := []struct {
		name string
		call func(ots.Resource) error
	}{
		{"commit", ots.Resource.Commit},
		{"rollback", ots.Resource.Rollback},
		{"commit_one_phase", ots.Resource.CommitOnePhase},
	}
	outcomes := []struct {
		name string
		err  error
		want error // the sentinel the proxy must return; nil for clean
	}{
		{"clean", nil, nil},
		{"heuristic_commit", ots.ErrHeuristicCommit, ots.ErrHeuristicCommit},
		{"heuristic_rollback", ots.ErrHeuristicRollback, ots.ErrHeuristicRollback},
		{"plain_error", plain, nil},
	}
	for _, v := range verbs {
		for _, o := range outcomes {
			t.Run(v.name+"/"+o.name, func(t *testing.T) {
				err := v.call(importErr(o.err))
				switch {
				case o.err == nil:
					if err != nil {
						t.Fatalf("%s = %v, want nil", v.name, err)
					}
				case o.want != nil:
					if !errors.Is(err, o.want) {
						t.Fatalf("%s = %v, want %v", v.name, err, o.want)
					}
				default:
					if err == nil || !strings.Contains(err.Error(), plain.Error()) {
						t.Fatalf("%s = %v, want the servant's error", v.name, err)
					}
					if errors.Is(err, ots.ErrHeuristicCommit) || errors.Is(err, ots.ErrHeuristicRollback) {
						t.Fatalf("%s: plain error decoded as heuristic: %v", v.name, err)
					}
				}
			})
		}
	}

	t.Run("forget", func(t *testing.T) {
		if err := importErr(nil).Forget(); err != nil {
			t.Fatalf("forget = %v, want nil", err)
		}
		if err := importErr(plain).Forget(); err == nil || !strings.Contains(err.Error(), plain.Error()) {
			t.Fatalf("forget = %v, want the servant's error", err)
		}
	})

	t.Run("raw_octets", func(t *testing.T) {
		// An explicit clean octet is clean; an octet no outcome owns is a
		// reply this proxy cannot read.
		clean := server.RegisterServant(ResourceTypeID, rawReplyServant{outcomeClean})
		if err := ImportResource(client, clean).Commit(); err != nil {
			t.Fatalf("commit with the clean octet = %v, want nil", err)
		}
		unknown := server.RegisterServant(ResourceTypeID, rawReplyServant{7})
		if err := ImportResource(client, unknown).Commit(); !orb.IsSystem(err, orb.CodeMarshal) {
			t.Fatalf("commit with outcome octet 7 = %v, want MARSHAL", err)
		}
	})
}
