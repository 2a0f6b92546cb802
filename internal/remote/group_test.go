package remote

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/wal"
)

// groupTestPolicy keeps elections fast under the race detector.
var groupTestPolicy = TakeoverPolicy{Failures: 2, Retry: 20 * time.Millisecond}

// testMember is one coordinator-group member under test: its ORB, log,
// GroupMember and the Run goroutine's plumbing.
type testMember struct {
	o      *orb.ORB
	log    *wal.Log
	g      *GroupMember
	eps    []string
	cancel context.CancelFunc
	done   chan error
}

// listenORB returns a listening ORB and its endpoints.
func listenORB(t *testing.T) (*orb.ORB, []string) {
	t.Helper()
	o := orb.New()
	t.Cleanup(o.Shutdown)
	if _, err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return o, o.Endpoints()
}

// deadEndpoint returns an endpoint that refuses connections (a listener
// that has already shut down) — the "leader died" seed for elections.
func deadEndpoint(t *testing.T) string {
	t.Helper()
	o := orb.New()
	if _, err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ep := o.Endpoints()[0]
	o.Shutdown()
	return ep
}

// newTestMember builds a group member on a fresh listening ORB. Peers and
// leader hints are wired by the caller (endpoints are only known after
// Listen), so cfg.Peers/LeaderHint may reference other members.
func newTestMember(t *testing.T, id string, log *wal.Log, peers, hint []string, takeover func(ctx context.Context) error) *testMember {
	t.Helper()
	o, eps := listenORB(t)
	m := &testMember{o: o, log: log, eps: eps}
	m.g = NewGroupMember(o, log, GroupConfig{
		MemberID:      id,
		Peers:         peers,
		LeaderHint:    hint,
		Takeover:      takeover,
		Poll:          100 * time.Millisecond,
		Policy:        groupTestPolicy,
		ElectionRetry: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
	})
	return m
}

// start launches the member's Run loop; stop cancels it and waits.
func (m *testMember) start(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	m.cancel = cancel
	m.done = make(chan error, 1)
	go func() { m.done <- m.g.Run(ctx) }()
	t.Cleanup(func() { m.stop(t) })
}

func (m *testMember) stop(t *testing.T) {
	t.Helper()
	if m.cancel == nil {
		return
	}
	m.cancel()
	select {
	case err := <-m.done:
		if err != nil {
			t.Errorf("member run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("member run did not stop")
	}
	m.cancel = nil
}

// waitRole blocks until the member reports role (or fails the test).
func waitRole(t *testing.T, m *testMember, role GroupRole) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.g.Role() != role {
		if time.Now().After(deadline) {
			t.Fatalf("member stuck in role %v, want %v", m.g.Role(), role)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// seedLog returns a memory log holding n one-byte records.
func seedLog(t *testing.T, n int) *wal.Log {
	t.Helper()
	l := wal.NewMemory()
	for i := 0; i < n; i++ {
		if _, err := l.Append(wal.Kind(7), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestElectionHighestLSNWins kills the leader of a three-member group
// where one standby holds more durable history than the other: the
// longer log must win the election, and the shorter one must converge to
// it as a follower.
func TestElectionHighestLSNWins(t *testing.T) {
	dead := deadEndpoint(t)
	// b holds 5 durable records, c only their 3-record prefix.
	bLog, cLog := seedLog(t, 5), seedLog(t, 3)

	var tookOver atomic32
	bORB, bEps := listenORB(t)
	cORB, cEps := listenORB(t)
	b := &testMember{o: bORB, log: bLog, eps: bEps}
	c := &testMember{o: cORB, log: cLog, eps: cEps}
	b.g = NewGroupMember(bORB, bLog, GroupConfig{
		MemberID: "b", Peers: []string{cEps[0]}, LeaderHint: []string{dead},
		Takeover:      func(context.Context) error { tookOver.inc(); return nil },
		Poll:          50 * time.Millisecond,
		Policy:        groupTestPolicy,
		ElectionRetry: 20 * time.Millisecond,
	})
	c.g = NewGroupMember(cORB, cLog, GroupConfig{
		MemberID: "c", Peers: []string{bEps[0]}, LeaderHint: []string{dead},
		Takeover:      func(context.Context) error { t.Error("shorter log won the election"); return nil },
		Poll:          50 * time.Millisecond,
		Policy:        groupTestPolicy,
		ElectionRetry: 20 * time.Millisecond,
	})
	b.start(t)
	c.start(t)

	waitRole(t, b, RoleLeader)
	waitRole(t, c, RoleFollower)
	if got := tookOver.load(); got != 1 {
		t.Fatalf("winner ran takeover %d times, want 1", got)
	}
	// b claimed term 1 (record 6); c converges to b's full history.
	waitLSN(t, cLog, 6)
	if ts := cLog.TermState(); ts.Term != 1 || ts.Leader != "b" {
		t.Fatalf("loser's term state = %+v, want term 1 led by b", ts)
	}
	if id, _ := c.g.Leader(); id != "b" {
		t.Fatalf("loser follows %q, want b", id)
	}

	// The replication metrics report the group state from both sides.
	ss := bORB.Metrics()
	_, leading := ss.Get("replication.role", "leader")
	_, isB := ss.Get("replication.member", "b")
	if term, _ := ss.Get("replication.term", ""); !leading || !isB || term != 1 {
		t.Fatalf("leader metrics = %+v", ss)
	}
	waitFollowerAck(t, bORB, "c", 6)
	ss = cORB.Metrics()
	_, following := ss.Get("replication.role", "follower")
	if _, followsB := ss.Get("replication.leader", "b"); !following || !followsB {
		t.Fatalf("follower metrics = %+v", ss)
	}
}

// waitFollowerAck blocks until the leader's replication metrics show
// follower id acked through lsn, with a lag consistent with its last LSN.
func waitFollowerAck(t *testing.T, leader *orb.ORB, id string, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		ss := leader.Metrics()
		if acked, ok := ss.Get("replication.follower_acked", id); ok && uint64(acked) >= lsn {
			lag, _ := ss.Get("replication.follower_lag", id)
			if last, _ := ss.Get("replication.last_lsn", ""); lag != last-acked {
				t.Fatalf("follower %s lag %d inconsistent with acked %d of %d", id, lag, acked, last)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("leader metrics never showed %s acked %d: %+v", id, lsn, ss)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGroupMetricsScrape scrapes a live three-member group over the wire:
// the leader's and a follower's orb-admin "metrics" replies carry role,
// term, leader, fence and — on the leader only — each follower's ack and
// lag, which drops to 0 once the followers hold its whole log.
func TestGroupMetricsScrape(t *testing.T) {
	ctx := context.Background()
	var orbs [3]*orb.ORB
	var eps [3][]string
	for i := range orbs {
		orbs[i], eps[i] = listenORB(t)
		orb.ServeAdmin(orbs[i])
	}
	ids := [3]string{"a", "b", "c"}
	members := make([]*testMember, 3)
	for i := range members {
		var peers []string
		for j := range eps {
			if j != i {
				peers = append(peers, eps[j][0])
			}
		}
		log := wal.NewMemory()
		members[i] = &testMember{o: orbs[i], log: log, eps: eps[i]}
		members[i].g = NewGroupMember(orbs[i], log, GroupConfig{
			MemberID: ids[i], Peers: peers, // followers find the leader by polling
			Poll: 50 * time.Millisecond, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
		})
	}
	leader := members[0]
	if err := leader.g.Promote(ctx); err != nil {
		t.Fatal(err)
	}
	members[1].start(t)
	members[2].start(t)
	lsn, err := leader.log.Append(wal.Kind(7), []byte("decision"))
	if err != nil {
		t.Fatal(err)
	}
	waitFollowerAck(t, leader.o, "b", lsn)
	waitFollowerAck(t, leader.o, "c", lsn)

	scraper := orb.New()
	t.Cleanup(scraper.Shutdown)
	scrape := func(m *testMember) orb.Samples {
		t.Helper()
		ss, err := orb.NewAdminClient(scraper, orb.AdminAt(m.eps...)).Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return ss
	}
	want := func(ss orb.Samples, name, label string, v int64) {
		t.Helper()
		if got, ok := ss.Get(name, label); !ok || got != v {
			t.Fatalf("%s{%s} = %d (present %v), want %d in %+v", name, label, got, ok, v, ss)
		}
	}

	ss := scrape(leader)
	want(ss, "replication.member", "a", 1)
	want(ss, "replication.role", "leader", 1)
	want(ss, "replication.term", "", 1)
	want(ss, "replication.term_leader", "a", 1)
	want(ss, "replication.leader", "a", 1)
	want(ss, "replication.fenced", "", 0)
	want(ss, "replication.last_lsn", "", int64(lsn))
	want(ss, "replication.elections", "", 1)
	for _, id := range []string{"b", "c"} {
		want(ss, "replication.follower_acked", id, int64(lsn))
		want(ss, "replication.follower_lag", id, 0)
	}
	if at, _ := ss.Get("replication.last_election_ns", ""); at == 0 {
		t.Fatal("leader reports no election time")
	}

	ss = scrape(members[1])
	want(ss, "replication.member", "b", 1)
	want(ss, "replication.role", "follower", 1)
	want(ss, "replication.term", "", 1)
	want(ss, "replication.leader", "a", 1)
	want(ss, "replication.fenced", "", 0)
	want(ss, "replication.elections", "", 0)
	for _, s := range ss {
		if strings.HasPrefix(s.Name, "replication.follower_") {
			t.Fatalf("follower reports follower samples: %+v", s)
		}
	}
}

// TestElectionTiebreakMemberID gives both standbys identical logs: the
// smaller member ID must win.
func TestElectionTiebreakMemberID(t *testing.T) {
	dead := deadEndpoint(t)
	aLog, bLog := seedLog(t, 4), seedLog(t, 4)

	aORB, aEps := listenORB(t)
	bORB, bEps := listenORB(t)
	a := &testMember{o: aORB, log: aLog, eps: aEps}
	b := &testMember{o: bORB, log: bLog, eps: bEps}
	a.g = NewGroupMember(aORB, aLog, GroupConfig{
		MemberID: "a", Peers: []string{bEps[0]}, LeaderHint: []string{dead},
		Poll: 50 * time.Millisecond, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
	})
	b.g = NewGroupMember(bORB, bLog, GroupConfig{
		MemberID: "b", Peers: []string{aEps[0]}, LeaderHint: []string{dead},
		Poll: 50 * time.Millisecond, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
	})
	a.start(t)
	b.start(t)

	waitRole(t, a, RoleLeader)
	waitRole(t, b, RoleFollower)
	if ts := aLog.TermState(); ts.Term != 1 || ts.Leader != "a" {
		t.Fatalf("winner term state = %+v", ts)
	}
	waitLSN(t, bLog, 5) // the term record replicated
}

// TestRejoinTruncatesUnreplicatedSuffix is the deposed-leader rejoin
// matrix: leader a dies holding an unreplicated suffix, standby b elects
// itself and moves on, and a — restarted on its old WAL, no operator
// flags — truncates the orphan suffix and converges as a follower of b's
// new term.
func TestRejoinTruncatesUnreplicatedSuffix(t *testing.T) {
	aPath := filepath.Join(t.TempDir(), "a.wal")
	aLog, err := wal.OpenFile(aPath)
	if err != nil {
		t.Fatal(err)
	}

	// Epoch 1: a leads term 1 and replicates three records to b.
	aORB, aEps := listenORB(t)
	a := &testMember{o: aORB, log: aLog, eps: aEps}
	a.g = NewGroupMember(aORB, aLog, GroupConfig{MemberID: "a"})
	if err := a.g.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := aLog.Append(wal.Kind(7), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	bLog := wal.NewMemory()
	bORB, bEps := listenORB(t)
	b := &testMember{o: bORB, log: bLog, eps: bEps}
	b.g = NewGroupMember(bORB, bLog, GroupConfig{
		MemberID: "b", LeaderHint: aEps,
		Poll: 50 * time.Millisecond, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
	})
	b.start(t)
	waitLSN(t, bLog, 4) // term record + 3 data records

	// a appends an orphan the standby never sees — b's stream is paused
	// first, else the long-poll ships it within a round trip — then dies.
	b.stop(t)
	if _, err := aLog.Append(wal.Kind(7), []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	aORB.Shutdown()
	if err := aLog.Close(); err != nil {
		t.Fatal(err)
	}

	// b declares the leader lost, elects itself (sole survivor) and keeps
	// committing in term 2.
	b.start(t)
	waitRole(t, b, RoleLeader)
	if ts := bLog.TermState(); ts.Term != 2 || ts.Leader != "b" {
		t.Fatalf("survivor term state = %+v", ts)
	}
	if _, err := bLog.Append(wal.Kind(7), []byte("post-takeover")); err != nil {
		t.Fatal(err)
	}

	// a restarts on its old WAL: same path, no role flags — just a member
	// pointed at the group.
	aLog2, err := wal.OpenFile(aPath)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { aLog2.Close() })
	if got := aLog2.LastLSN(); got != 5 {
		t.Fatalf("restarted leader's log ends at %d, want 5 (orphan intact)", got)
	}
	a2ORB, _ := listenORB(t)
	a2 := &testMember{o: a2ORB, log: aLog2}
	a2.g = NewGroupMember(a2ORB, aLog2, GroupConfig{
		MemberID: "a", Peers: []string{bEps[0]}, LeaderHint: bEps,
		Poll: 50 * time.Millisecond, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
	})
	a2.start(t)

	// The fenced fetch reply makes a truncate LSN 5 and stream b's term-2
	// history: term record at 5, post-takeover at 6.
	waitLSN(t, aLog2, 6)
	if a2.g.Role() != RoleFollower {
		t.Fatalf("rejoined member role = %v, want follower", a2.g.Role())
	}
	recs, err := aLog2.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if string(r.Data) == "orphan" {
			t.Fatal("unreplicated orphan survived the rejoin truncation")
		}
	}
	if ts := aLog2.TermState(); ts.Term != 2 || ts.Leader != "b" || ts.Fenced {
		t.Fatalf("rejoined term state = %+v", ts)
	}
	// Byte-identical convergence.
	aRecs, _ := aLog2.Records()
	bRecs, _ := bLog.Records()
	if len(aRecs) != len(bRecs) {
		t.Fatalf("rejoined log holds %d records, leader %d", len(aRecs), len(bRecs))
	}
	for i := range aRecs {
		if aRecs[i].LSN != bRecs[i].LSN || string(aRecs[i].Data) != string(bRecs[i].Data) {
			t.Fatalf("record %d diverged: %+v vs %+v", i, aRecs[i], bRecs[i])
		}
	}
}

// TestFencedDeposedLeaderAppendRejected deposes a live leader via a
// claim for a higher term: its in-flight append must fail ErrFenced, the
// decision gate must veto with the FENCED system exception, and the
// rejected payload must never appear in any replica's log.
func TestFencedDeposedLeaderAppendRejected(t *testing.T) {
	aLog := seedLog(t, 2)
	aORB, aEps := listenORB(t)
	a := &testMember{o: aORB, log: aLog, eps: aEps}
	demoted := make(chan uint64, 1)
	a.g = NewGroupMember(aORB, aLog, GroupConfig{
		MemberID: "a",
		OnDemote: func(term uint64, _ string) { demoted <- term },
	})
	if err := a.g.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}

	// b holds the same history (same epoch, same LSNs) and claims term 2.
	bLog := seedLog(t, 2)
	if _, err := bLog.AdoptTerm(1, "a"); err != nil { // mirror a's term record
		t.Fatal(err)
	}
	bORB, bEps := listenORB(t)
	b := &testMember{o: bORB, log: bLog, eps: bEps}
	b.g = NewGroupMember(bORB, bLog, GroupConfig{MemberID: "b", Peers: []string{aEps[0]}})
	ctx := context.Background()
	if !b.g.claimFrom(ctx, []peerState{{endpoint: aEps[0]}}, 2, bLog.LastLSN()) {
		t.Fatal("claim for term 2 rejected")
	}
	if err := b.g.becomeLeader(ctx, 2); err != nil {
		t.Fatal(err)
	}

	// The deposed leader's in-flight append is rejected FENCED.
	if _, err := aLog.Append(wal.Kind(7), []byte("late-decision")); !errors.Is(err, wal.ErrFenced) {
		t.Fatalf("deposed append = %v, want ErrFenced", err)
	}
	if err := a.g.DecisionGate(time.Second)(aLog.LastLSN()); !orb.IsSystem(err, orb.CodeFenced) {
		t.Fatalf("decision gate on deposed leader = %v, want FENCED", err)
	}
	select {
	case term := <-demoted:
		if term != 2 {
			t.Fatalf("demoted for term %d, want 2", term)
		}
	case <-time.After(time.Second):
		t.Fatal("OnDemote never fired")
	}
	if a.g.Role() != RoleFollower {
		t.Fatalf("deposed leader role = %v, want follower", a.g.Role())
	}

	// The rejected payload appears in no replica's log — including the
	// deposed leader's own after it rejoins the new term.
	a.start(t)
	waitLSN(t, aLog, bLog.LastLSN())
	for name, l := range map[string]*wal.Log{"a": aLog, "b": bLog} {
		recs, err := l.Records()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if string(r.Data) == "late-decision" {
				t.Fatalf("rejected append surfaced in %s's log", name)
			}
		}
	}
	if ts := aLog.TermState(); ts.Term != 2 || ts.Fenced {
		t.Fatalf("rejoined deposed leader term state = %+v", ts)
	}
}

// TestElectionRequiresQuorum isolates a member from its whole electorate:
// with two configured peers the quorum is two and its own vote is one, so
// however long it retries it must never claim a term — a partitioned
// minority promoting itself is exactly the two-concurrent-leaders split
// the majority-accept rule exists to prevent.
func TestElectionRequiresQuorum(t *testing.T) {
	dead1, dead2 := deadEndpoint(t), deadEndpoint(t)
	log := seedLog(t, 2)
	o, _ := listenORB(t)
	m := &testMember{o: o, log: log}
	m.g = NewGroupMember(o, log, GroupConfig{
		MemberID: "minority", Peers: []string{dead1, dead2}, LeaderHint: []string{dead1},
		Poll:          50 * time.Millisecond,
		Policy:        groupTestPolicy,
		ElectionRetry: 20 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
	})
	m.start(t)

	// Give it many election rounds' worth of time to (wrongly) promote.
	time.Sleep(600 * time.Millisecond)
	if got := m.g.Role(); got != RoleFollower {
		t.Fatalf("partitioned minority member role = %v, want follower (no quorum)", got)
	}
	if got := log.KnownTerm(); got != 0 {
		t.Fatalf("partitioned minority member adopted term %d with no quorum", got)
	}
}

// TestElectionVoterFetchDoesNotDeposeCandidate: a voter that accepts a
// claim repoints at once and fetches from the candidate under the claimed
// term — often before the candidate has finished its claim round and
// adopted that term. The candidate must recognise its own claim coming
// back, serve the fetch, and go on to adopt the term it won; treating the
// fetch as evidence of another leader fenced the winner at its own term
// and wedged the group. Any other higher term still deposes.
func TestElectionVoterFetchDoesNotDeposeCandidate(t *testing.T) {
	ctx := context.Background()
	log := seedLog(t, 2)
	cand := newTestMember(t, "cand", log, []string{"tcp:127.0.0.1:1"}, nil, nil)

	voterORB, _ := listenORB(t)
	voterLog := seedLog(t, 2)
	voterLog.Fence(1) // the voter accepted the claim for term 1
	voter := testFollower(voterORB, cand.eps, voterLog, 10*time.Millisecond)

	cand.g.setClaiming(1) // claim round for term 1 in flight
	if _, err := voter.Sync(ctx); err != nil {
		t.Fatalf("voter's fetch under the in-flight claim's term = %v, want served", err)
	}
	if log.Fenced() {
		t.Fatal("candidate fenced itself on its own claim's term")
	}
	if err := cand.g.becomeLeader(ctx, 1); err != nil {
		t.Fatalf("candidate could not adopt the term it won: %v", err)
	}
	cand.g.setClaiming(0)

	// Evidence of a term this member is not claiming still deposes it.
	voterLog.Fence(2)
	if _, err := voter.Sync(ctx); !orb.IsSystem(err, orb.CodeFenced) {
		t.Fatalf("fetch under a foreign higher term = %v, want FENCED", err)
	}
	if !log.Fenced() || cand.g.Role() != RoleFollower {
		t.Fatalf("leader not deposed by a foreign higher term (fenced %v, role %v)", log.Fenced(), cand.g.Role())
	}
}

// TestElectionClaimEpochOrdering pins the claim acceptance order to
// (epoch, LSN) lexicographic: a claimant whose epoch is behind the
// voter's does not subsume the voter's history no matter how high its
// raw LSN (its log stopped on an older line), while a claimant on a
// newer epoch is accepted even with a smaller LSN.
func TestElectionClaimEpochOrdering(t *testing.T) {
	// The voter has checkpointed: epoch 1, two records surviving.
	log := seedLog(t, 3)
	if err := log.Checkpoint(func(r wal.Record) bool { return r.LSN >= 2 }); err != nil {
		t.Fatal(err)
	}
	o, _ := listenORB(t)
	g := NewGroupMember(o, log, GroupConfig{MemberID: "voter"})

	// Stale epoch, higher LSN: rejected, and the voter stays unfenced.
	err := g.handleClaim(1, "stale", 0, 99, []string{"tcp:127.0.0.1:1"})
	if !orb.IsSystem(err, orb.CodeFenced) {
		t.Fatalf("stale-epoch claim = %v, want FENCED", err)
	}
	if log.Fenced() {
		t.Fatal("rejected claim fenced the voter")
	}
	// Same epoch, shorter log: rejected.
	err = g.handleClaim(1, "short", 1, log.LastLSN()-1, []string{"tcp:127.0.0.1:1"})
	if !orb.IsSystem(err, orb.CodeFenced) {
		t.Fatalf("shorter same-epoch claim = %v, want FENCED", err)
	}
	// Newer epoch, lower LSN: the claimant resynchronised past a
	// checkpoint the voter has not seen; accepted and repointed.
	if err := g.handleClaim(1, "newer", 2, 1, []string{"tcp:127.0.0.1:1"}); err != nil {
		t.Fatalf("newer-epoch claim = %v, want accepted", err)
	}
	if id, _ := g.Leader(); id != "newer" {
		t.Fatalf("voter follows %q after accepted claim, want newer", id)
	}
}

// TestGroupTakeoverReplicatesThroughNewLeader proves the group keeps
// working after an election: the new leader's appends reach the
// surviving follower through the same stream, and a quorum barrier
// (WaitForAckN) releases against the follower's acks.
func TestGroupTakeoverReplicatesThroughNewLeader(t *testing.T) {
	dead := deadEndpoint(t)
	bLog, cLog := seedLog(t, 2), seedLog(t, 2)
	bORB, bEps := listenORB(t)
	cORB, cEps := listenORB(t)
	b := &testMember{o: bORB, log: bLog, eps: bEps}
	c := &testMember{o: cORB, log: cLog, eps: cEps}
	b.g = NewGroupMember(bORB, bLog, GroupConfig{
		MemberID: "b", Peers: []string{cEps[0]}, LeaderHint: []string{dead},
		Poll: 50 * time.Millisecond, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
	})
	c.g = NewGroupMember(cORB, cLog, GroupConfig{
		MemberID: "c", Peers: []string{bEps[0]}, LeaderHint: []string{dead},
		Poll: 50 * time.Millisecond, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
	})
	b.start(t)
	c.start(t)
	waitRole(t, b, RoleLeader)

	lsn, err := bLog.Append(wal.Kind(7), []byte("post-election-decision"))
	if err != nil {
		t.Fatal(err)
	}
	if !b.g.Primary().WaitForAckN(lsn, 1, 5*time.Second) {
		t.Fatalf("new leader never saw the follower ack LSN %d", lsn)
	}
	waitLSN(t, cLog, lsn)
}

// TestDecisionGateSizedByElectorate pins the one quorum rule at the gate:
// the electorate is this member plus Peers, the quorum is n/2+1, and the
// gate waits for quorum-1 follower acks — no special case for a lone
// member (nobody to wait for) or a pair (the other node, always).
func TestDecisionGateSizedByElectorate(t *testing.T) {
	for _, tc := range []struct{ peers, wantAcks int }{{0, 0}, {1, 1}, {2, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("peers=%d", tc.peers), func(t *testing.T) {
			peers := make([]string, tc.peers)
			for i := range peers {
				peers[i] = fmt.Sprintf("tcp:127.0.0.1:%d", i+1) // never dialed: a leader does not probe
			}
			log := wal.NewMemory()
			m := newTestMember(t, "leader", log, peers, nil, nil)
			if err := m.g.Promote(context.Background()); err != nil {
				t.Fatal(err)
			}
			lsn, err := log.Append(wal.Kind(7), []byte("decision"))
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- m.g.DecisionGate(20 * time.Millisecond)(lsn) }()
			for acked := 0; acked < tc.wantAcks; acked++ {
				select {
				case err := <-done:
					t.Fatalf("gate released after %d of %d acks: %v", acked, tc.wantAcks, err)
				case <-time.After(100 * time.Millisecond):
				}
				m.g.Primary().noteAck(fmt.Sprintf("f%d", acked), lsn)
			}
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("gate with %d acks = %v, want release", tc.wantAcks, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("gate never released after %d acks", tc.wantAcks)
			}
		})
	}
}

// TestAckWatermarksResetOnNewTerm: follower ack watermarks are claims
// about one leadership's history and must not survive into the next. A
// leader collects an ack for LSN 50, is deposed, truncates its suffix back
// to LSN 10 on rejoin, and later leads again — LSNs 11..50 now name
// different records. The stale ack (its follower may be long dead) must
// not release the gate for one of them: the gate blocks until a follower
// acknowledges the new record afresh.
func TestAckWatermarksResetOnNewTerm(t *testing.T) {
	log := wal.NewMemory()
	m := newTestMember(t, "a", log, []string{"tcp:127.0.0.1:1"}, nil, nil) // pair: the gate needs 1 ack
	ctx := context.Background()
	if err := m.g.Promote(ctx); err != nil { // term 1 at LSN 1
		t.Fatal(err)
	}
	for log.LastLSN() < 50 {
		if _, err := log.Append(wal.Kind(7), []byte("term-1")); err != nil {
			t.Fatal(err)
		}
	}
	m.g.Primary().noteAck("b", 50)

	// Deposed by term 2, rejoin truncation cuts the unreplicated suffix.
	if err := m.g.handleClaim(2, "b", 0, 50, []string{"tcp:127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	if err := log.TruncateAfter(10); err != nil {
		t.Fatal(err)
	}

	// Elected again: a different record now occupies an LSN the dead
	// follower once acknowledged.
	if err := m.g.becomeLeader(ctx, 3); err != nil {
		t.Fatal(err)
	}
	lsn, err := log.Append(wal.Kind(7), []byte("term-3 decision"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn > 50 {
		t.Fatalf("new decision at LSN %d, want one the stale watermark covers (<= 50)", lsn)
	}
	done := make(chan error, 1)
	go func() { done <- m.g.DecisionGate(20 * time.Millisecond)(lsn) }()
	select {
	case err := <-done:
		t.Fatalf("gate released LSN %d on an ack from a previous term: %v", lsn, err)
	case <-time.After(200 * time.Millisecond):
	}
	m.g.Primary().noteAck("c", lsn)
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gate after a fresh ack = %v, want release", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gate never released after a fresh ack")
	}
}

// TestInstallSnapshotDuringParkedFetch races an epoch bump against a
// parked long-poll: the follower's fetch is parked on the primary when a
// checkpoint moves the epoch, and the follower must resynchronise from a
// snapshot instead of mixing records across epochs.
func TestInstallSnapshotDuringParkedFetch(t *testing.T) {
	primaryLog := wal.NewMemory()
	for i := 0; i < 4; i++ {
		if _, err := primaryLog.Append(wal.Kind(7), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	_, _, endpoints := startPrimary(t, primaryLog)

	followerORB := orb.New()
	t.Cleanup(followerORB.Shutdown)
	followerLog := wal.NewMemory()
	f := testFollower(followerORB, endpoints, followerLog, 10*time.Second)

	// Catch up, then park the next fetch on the primary's long poll.
	ctx := context.Background()
	if _, err := f.Sync(ctx); err != nil {
		t.Fatal(err)
	}
	waitLSN(t, followerLog, 4)
	parked := make(chan error, 1)
	go func() {
		_, err := f.Sync(ctx)
		parked <- err
	}()
	time.Sleep(100 * time.Millisecond) // let the fetch park

	// The epoch bump lands mid-poll: checkpoint away everything but the
	// last record, then append into the new epoch.
	if err := primaryLog.Checkpoint(func(r wal.Record) bool { return r.LSN >= 4 }); err != nil {
		t.Fatal(err)
	}
	if _, err := primaryLog.Append(wal.Kind(7), []byte("new-epoch")); err != nil {
		t.Fatal(err)
	}

	if err := <-parked; err != nil {
		t.Fatalf("parked fetch after epoch bump: %v", err)
	}
	// One more round if the resync raced the post-checkpoint append.
	waitLSN(t, followerLog, 5)
	deadline := time.Now().Add(5 * time.Second)
	for {
		fe, fn := followerLog.State()
		pe, pn := primaryLog.State()
		if fe == pe && fn == pn {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower at epoch %d next %d, primary %d %d", fe, fn, pe, pn)
		}
		if _, err := f.Sync(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// atomic32 is a tiny test counter.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) inc() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

func (a *atomic32) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// TestGroupMetricsReportsFaultedLog fails the sync of a leader's batch
// after its follower's parked fetch read it. The leader's log faults: its
// appends fail with ErrFenced, and both its term state and its group
// scrape report the fault, while the fence, which means a higher term,
// stays down.
func TestGroupMetricsReportsFaultedLog(t *testing.T) {
	aLog, bLog := wal.NewMemory(), wal.NewMemory()
	aORB, aEps := listenORB(t)
	a := &testMember{o: aORB, log: aLog, eps: aEps}
	a.g = NewGroupMember(aORB, aLog, GroupConfig{MemberID: "a"})
	if err := a.g.Promote(context.Background()); err != nil {
		t.Fatal(err)
	}
	bORB, bEps := listenORB(t)
	b := &testMember{o: bORB, log: bLog, eps: bEps}
	b.g = NewGroupMember(bORB, bLog, GroupConfig{
		MemberID: "b", LeaderHint: aEps,
		Poll: 5 * time.Second, Policy: groupTestPolicy, ElectionRetry: 20 * time.Millisecond,
	})
	b.start(t)
	waitLSN(t, bLog, aLog.LastLSN())
	if !a.g.Primary().WaitForAckN(aLog.LastLSN(), 1, 5*time.Second) {
		t.Fatal("b never acknowledged a's log")
	}
	time.Sleep(20 * time.Millisecond) // b's next fetch parks

	faulted := func() (wal.TermState, int64, int64) {
		ss := aORB.Metrics()
		fenced, _ := ss.Get("replication.fenced", "")
		faulted, ok := ss.Get("replication.faulted", "")
		if !ok {
			t.Fatalf("scrape has no replication.faulted: %+v", ss)
		}
		return aLog.TermState(), fenced, faulted
	}
	if ts, fenced, fault := faulted(); ts.Faulted || ts.Fenced || fenced != 0 || fault != 0 {
		t.Fatalf("before the fault: term state %+v, fenced %d, faulted %d; want neither", ts, fenced, fault)
	}
	shipped := aLog.LastLSN() + 1
	aLog.InjectSyncFault(func() error {
		for deadline := time.Now().Add(5 * time.Second); bLog.LastLSN() < shipped && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		return errors.New("injected sync failure")
	})
	if _, err := aLog.Append(wal.Kind(7), []byte("shipped")); err == nil {
		t.Fatal("append whose sync failed succeeded")
	}
	if bLog.LastLSN() != shipped {
		t.Fatalf("follower at LSN %d, want the shipped record %d", bLog.LastLSN(), shipped)
	}
	if _, err := aLog.Append(wal.Kind(7), []byte("late")); !errors.Is(err, wal.ErrFenced) {
		t.Fatalf("append on the faulted log = %v, want ErrFenced", err)
	}
	if ts, fenced, fault := faulted(); !ts.Faulted || ts.Fenced || fenced != 0 || fault != 1 {
		t.Fatalf("after the fault: term state %+v, fenced %d, faulted %d; want faulted alone", ts, fenced, fault)
	}
}
