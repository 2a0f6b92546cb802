package remote

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/wal"
)

// Self-healing coordinator group: N members share one replicated WAL
// behind the wal-replication servant, exactly one of them leads, and the
// group survives any sequence of member deaths short of total loss
// without operator intervention.
//
// The moving parts:
//
//   - Every member serves the replication servant from birth — followers
//     answer repl_state (their stream position feeds elections) and
//     repl_claim (a candidate's leadership claim) even while they stream.
//   - Leadership is a durable term (wal.KindTerm) in the log itself; the
//     election is driven by the fetch-ack machinery: when a follower's
//     takeover budget declares the leader lost, it polls its peers'
//     repl_state and the best-positioned member — newest epoch first,
//     then highest durable LSN, member-ID tiebreak (lowest wins) —
//     claims the next term. The claim only confers leadership once a
//     majority of the configured electorate (this member plus cfg.Peers)
//     positively accepts it; unreachable peers cast no vote, so a
//     partitioned minority can never self-promote into a second
//     concurrent leader. Peers accept a claim only from a candidate
//     whose log subsumes their own — the decision gate held every
//     released decision until a quorum durably had it, and any two
//     quorums intersect, so the election cannot orphan a released
//     decision.
//   - A deposed leader is fenced, not corrupted: the claim (or any fetch
//     from a follower that out-terms it) fences its local append path, so
//     a decision racing phase two fails FENCED and delivers neither
//     outcome; the next leader's recovery settles it.
//   - Re-join is automatic: a dead leader restarted on its old WAL
//     streams from the new leader, is answered replFenced with the exact
//     truncation bound (the first term start beyond its own), cuts its
//     unreplicated suffix crash-atomically, and demotes to a streaming
//     standby. No role flags change.
type GroupRole int32

// Group roles.
const (
	// RoleFollower streams the leader's WAL.
	RoleFollower GroupRole = iota
	// RoleLeader hosts the live coordinator state and serves appends.
	RoleLeader
)

// String implements fmt.Stringer.
func (r GroupRole) String() string {
	if r == RoleLeader {
		return "leader"
	}
	return "follower"
}

// errRepointed reports that a follower stream was cancelled because the
// member learned of a different leader (an accepted claim) and should
// re-aim, not elect.
var errRepointed = errors.New("remote: follower repointed to a new leader")

// GroupConfig configures one coordinator-group member.
type GroupConfig struct {
	// MemberID names this member; it keys ack watermarks, breaks election
	// ties (lowest wins) and names terms. Must be unique in the group.
	MemberID string
	// Peers are the replication endpoints of the other members. The
	// quorum rule, applied with no special case: the electorate is this
	// member plus Peers (n = len(Peers)+1) and the quorum is n/2+1, for
	// both the election (positive claim acceptances, counting this
	// member's own vote) and the decision gate (the leader's own append
	// plus quorum-1 follower acks; it never degrades). So no peers means
	// a quorum of one — the member elects itself when its leader is lost
	// and gates on nobody — while a pair naming each other holds every
	// released decision on both nodes and never self-promotes.
	Peers []string
	// LeaderHint is where to start streaming from (typically the initial
	// leader). It is only a stream starting point, not an elector. Empty
	// means discover by polling peers.
	LeaderHint []string
	// Takeover activates the recovered coordinator state when this member
	// becomes leader: re-host OTS recovery, replay the activity journal,
	// re-register factories — whatever the deployment hosts. It runs after
	// the new term is durable. A nil Takeover only claims the term.
	Takeover func(ctx context.Context) error
	// OnDemote observes this member being deposed while leading (the new
	// term and leader ID). The log is already fenced when it runs.
	OnDemote func(term uint64, leaderID string)
	// Poll is the follower long-poll per fetch (default 2s).
	Poll time.Duration
	// Policy says when the follower declares the leader lost.
	Policy TakeoverPolicy
	// ElectionRetry is the pause between election rounds when deferring to
	// a better-positioned candidate or after a rejected claim (default
	// 50ms).
	ElectionRetry time.Duration
	// ProbeTimeout bounds each repl_state/repl_claim call during an
	// election round (default 1s).
	ProbeTimeout time.Duration
}

// GroupMember is one member of a self-healing coordinator group.
type GroupMember struct {
	o       *orb.ORB
	log     *wal.Log
	cfg     GroupConfig
	primary *ReplicationPrimary

	mu           sync.Mutex
	role         GroupRole
	leaderID     string
	leaderEps    []string
	claiming     uint64 // the term of this member's in-flight leadership claim, 0 when none
	lastElection time.Time
	elections    uint64
	repoint      chan struct{} // closed and renewed when leadership knowledge changes
}

// NewGroupMember registers the group-aware replication servant for log on
// o and the member's group state as o's "replication" metrics source. It
// returns the member, initially a follower. Call Promote to boot it as the
// group's first leader, Run to stream/elect.
func NewGroupMember(o *orb.ORB, log *wal.Log, cfg GroupConfig) *GroupMember {
	if cfg.Poll <= 0 {
		cfg.Poll = 2 * time.Second
	}
	if cfg.Policy.Failures <= 0 {
		cfg.Policy.Failures = 3
	}
	if cfg.Policy.Retry <= 0 {
		cfg.Policy.Retry = 100 * time.Millisecond
	}
	if cfg.ElectionRetry <= 0 {
		cfg.ElectionRetry = 50 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	g := &GroupMember{
		o:         o,
		log:       log,
		cfg:       cfg,
		primary:   &ReplicationPrimary{log: log, acks: make(map[string]uint64), ackCh: make(chan struct{})},
		leaderEps: append([]string(nil), cfg.LeaderHint...),
		repoint:   make(chan struct{}),
	}
	o.RegisterServantWithKey(ReplicationKey, ReplicationTypeID, &replicationServant{g: g})
	o.SetMetrics("replication", g.metrics)
	return g
}

// Primary returns the member's replication handle (ack watermarks, the
// decision gate). It is live in every role; watermarks only advance while
// this member leads.
func (g *GroupMember) Primary() *ReplicationPrimary { return g.primary }

// Role returns the member's current role.
func (g *GroupMember) Role() GroupRole {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.role
}

// Leader returns the group's current leader as this member knows it.
func (g *GroupMember) Leader() (id string, endpoints []string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leaderID, append([]string(nil), g.leaderEps...)
}

// info feeds repl_state.
func (g *GroupMember) info() (string, bool, int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	var at int64
	if !g.lastElection.IsZero() {
		at = g.lastElection.UnixMilli()
	}
	return g.cfg.MemberID, g.role == RoleLeader, at
}

// signalLocked wakes everything blocked on leadership knowledge. The
// caller must hold g.mu.
func (g *GroupMember) signalLocked() {
	close(g.repoint)
	g.repoint = make(chan struct{})
}

// handleClaim decides a repl_claim: accept iff the term is new and
// the claimant's log subsumes ours — a newer epoch, or the same epoch and
// at least as long a log. A claimant still on an older epoch missed a
// checkpoint this log has folded in, so cross-epoch LSNs are not compared:
// the stale-epoch claim is rejected outright. Acceptance repoints this
// member to the claimant; a rejected claim answers FENCED so the stale
// candidate backs off.
func (g *GroupMember) handleClaim(term uint64, leaderID string, claimEpoch, claimLast uint64, endpoints []string) error {
	if known := g.log.KnownTerm(); term <= known {
		id, _ := g.Leader()
		return orb.Systemf(orb.CodeFenced, "term=%d leader=%s claim for stale term %d", known, id, term)
	}
	epoch, _ := g.log.State()
	if last := g.log.LastLSN(); claimEpoch < epoch || (claimEpoch == epoch && claimLast < last) {
		return orb.Systemf(orb.CodeFenced, "term=%d durable epoch %d lsn %d not subsumed by claimant epoch %d lsn %d",
			g.log.KnownTerm(), epoch, last, claimEpoch, claimLast)
	}
	g.log.Fence(term)
	g.mu.Lock()
	wasLeader := g.role == RoleLeader
	g.role = RoleFollower
	g.leaderID = leaderID
	g.leaderEps = append([]string(nil), endpoints...)
	g.signalLocked()
	g.mu.Unlock()
	if wasLeader && g.cfg.OnDemote != nil {
		g.cfg.OnDemote(term, leaderID)
	}
	return nil
}

// noteDeposed runs when a fetching follower's term proved this
// member stale. The log is already fenced; drop the leader role and let
// Run discover the real leader.
func (g *GroupMember) noteDeposed(term uint64) {
	g.mu.Lock()
	wasLeader := g.role == RoleLeader
	g.role = RoleFollower
	g.leaderID = ""
	g.leaderEps = nil
	g.signalLocked()
	g.mu.Unlock()
	if wasLeader && g.cfg.OnDemote != nil {
		g.cfg.OnDemote(term, "")
	}
}

// Promote makes this member the group's leader: it durably claims the
// next term and runs the Takeover callback. The group's first leader
// promotes at boot; election winners go through the same path.
func (g *GroupMember) Promote(ctx context.Context) error {
	return g.becomeLeader(ctx, g.log.KnownTerm()+1)
}

// becomeLeader claims term durably, flips the role and activates the
// hosted state.
func (g *GroupMember) becomeLeader(ctx context.Context, term uint64) error {
	if _, err := g.log.AdoptTerm(term, g.cfg.MemberID); err != nil {
		return fmt.Errorf("remote: claim term %d: %w", term, err)
	}
	g.primary.resetAcks()
	g.mu.Lock()
	g.role = RoleLeader
	g.leaderID = g.cfg.MemberID
	g.leaderEps = append([]string(nil), g.o.Endpoints()...)
	g.lastElection = time.Now()
	g.elections++
	g.signalLocked()
	g.mu.Unlock()
	if g.cfg.Takeover != nil {
		if err := g.cfg.Takeover(ctx); err != nil {
			return fmt.Errorf("remote: takeover as term-%d leader: %w", term, err)
		}
	}
	return nil
}

// Run operates the member until ctx ends: stream the leader while a
// follower, hold the role while the leader, elect when the leader is
// lost. It returns nil on ctx cancellation and the takeover error if
// activating won leadership fails.
func (g *GroupMember) Run(ctx context.Context) error {
	for {
		if ctx.Err() != nil {
			return nil
		}
		if g.Role() == RoleLeader {
			g.mu.Lock()
			ch := g.repoint
			g.mu.Unlock()
			if g.Role() != RoleLeader {
				continue
			}
			select {
			case <-ctx.Done():
				return nil
			case <-ch:
			}
			continue
		}
		err := g.followOnce(ctx)
		switch {
		case ctx.Err() != nil:
			return nil
		case errors.Is(err, errRepointed):
			// loop: stream the new leader
		case errors.Is(err, ErrPrimaryLost):
			if err := g.elect(ctx); err != nil {
				return err
			}
		case err != nil:
			sleepCtx(ctx, g.cfg.ElectionRetry)
		}
	}
}

// followOnce streams the known leader until the stream ends: repointed
// (errRepointed), leader lost (ErrPrimaryLost), promoted by an election
// we ran meanwhile, or ctx done (nil).
func (g *GroupMember) followOnce(ctx context.Context) error {
	g.mu.Lock()
	eps := append([]string(nil), g.leaderEps...)
	repoint := g.repoint
	g.mu.Unlock()
	if len(eps) == 0 {
		return ErrPrimaryLost // nothing to follow; elect (which also discovers leaders)
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		select {
		case <-repoint:
			cancel()
		case <-runCtx.Done():
		}
	}()
	f := NewReplicationFollower(g.o, ReplicationAt(eps...), g.log, g.cfg.MemberID, g.cfg.Poll, g.cfg.Policy)
	err := f.Run(runCtx)
	if err == nil && ctx.Err() == nil {
		return errRepointed
	}
	return err
}

// peerState is one peer's repl_state during an election round.
type peerState struct {
	endpoint string
	st       ReplState
}

// elect runs election rounds until this member wins, discovers a live
// leader, or ctx ends. One round: poll every peer's repl_state; follow
// any live leader with a term we do not beat; defer to any reachable
// candidate whose durable position beats ours — newer epoch first, then
// longer log within the same epoch, then smaller member ID — and
// otherwise claim max(term)+1. The claim confers leadership only once a
// majority of the electorate accepts it (claimFrom); a failed claim
// backs off and re-polls.
func (g *GroupMember) elect(ctx context.Context) error {
	g.mu.Lock()
	if g.role != RoleLeader { // an explicit Promote may have raced the lost stream
		g.leaderID = ""
		g.leaderEps = nil
	}
	g.mu.Unlock()
	for {
		if ctx.Err() != nil {
			return nil
		}
		// A claim may have arrived while we were polling: follow it.
		if id, eps := g.Leader(); id != "" && len(eps) > 0 {
			return nil
		}
		myEpoch, _ := g.log.State()
		myLast := g.log.LastLSN()
		myKnown := g.log.KnownTerm()
		peers := g.pollPeers(ctx)
		maxTerm := myKnown
		defer_ := false
		for _, p := range peers {
			if p.st.Term > maxTerm {
				maxTerm = p.st.Term
			}
			if p.st.IsLeader && p.st.Term >= myKnown {
				// A live leader exists; follow it.
				g.mu.Lock()
				g.leaderID = p.st.MemberID
				g.leaderEps = []string{p.endpoint}
				g.signalLocked()
				g.mu.Unlock()
				return nil
			}
			// Durability order is (epoch, LSN) lexicographic: a member on a
			// newer epoch has resynchronised past a checkpoint this one has
			// not seen, so its history subsumes ours regardless of raw LSNs;
			// LSNs order members only within one epoch.
			last := p.st.NextLSN - 1
			if p.st.Epoch > myEpoch ||
				(p.st.Epoch == myEpoch && (last > myLast || (last == myLast && p.st.MemberID < g.cfg.MemberID))) {
				defer_ = true
			}
		}
		if defer_ {
			// A better-positioned member exists; give its claim time to
			// arrive before re-polling.
			sleepCtx(ctx, g.cfg.ElectionRetry)
			continue
		}
		if won, err := g.standFor(ctx, peers, maxTerm+1, myLast); won {
			return err
		}
		sleepCtx(ctx, g.cfg.ElectionRetry)
	}
}

// standFor claims term from the reachable peers and, on a quorum of
// accepts, takes office. The claim is marked in flight for its whole
// duration: a voter that accepts it starts fetching from this member under
// that term at once — possibly before the round finishes and the term is
// adopted — and the servant must not read its own claim coming back as
// evidence of another leader (see replicationServant.fenceFetch).
func (g *GroupMember) standFor(ctx context.Context, peers []peerState, term, myLast uint64) (won bool, err error) {
	g.setClaiming(term)
	defer g.setClaiming(0)
	if !g.claimFrom(ctx, peers, term, myLast) {
		return false, nil
	}
	return true, g.becomeLeader(ctx, term)
}

// isClaiming reports whether term is this member's own in-flight claim.
func (g *GroupMember) isClaiming(term uint64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return term == g.claiming
}

// setClaiming records the term of this member's in-flight claim (0: none).
func (g *GroupMember) setClaiming(term uint64) {
	g.mu.Lock()
	g.claiming = term
	g.mu.Unlock()
}

// pollPeers fetches every peer's repl_state concurrently; unreachable
// peers are dropped — a dead member cannot vote and cannot be orphaned by
// an election it does not see (it rejoins through the fence instead).
func (g *GroupMember) pollPeers(ctx context.Context) []peerState {
	type res struct {
		ps peerState
		ok bool
	}
	out := make(chan res, len(g.cfg.Peers))
	for _, ep := range g.cfg.Peers {
		go func(ep string) {
			probeCtx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
			defer cancel()
			st, err := FetchReplState(probeCtx, g.o, ep)
			out <- res{peerState{endpoint: ep, st: st}, err == nil}
		}(ep)
	}
	var peers []peerState
	for range g.cfg.Peers {
		if r := <-out; r.ok {
			peers = append(peers, r.ps)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].st.MemberID < peers[j].st.MemberID })
	return peers
}

// claimFrom sends repl_claim to every reachable peer and counts positive
// acceptances. The claim succeeds only when a majority of the configured
// electorate accepts it: this member's own vote plus enough peer accepts
// to reach quorum. A FENCED rejection abandons the claim immediately
// (someone knows a higher term, a newer epoch, or a longer log). An
// unreachable or timed-out peer casts NO vote — counting silence as
// assent would let a partitioned minority member promote itself and
// split the group into two concurrent leaders appending different
// records at overlapping LSNs.
func (g *GroupMember) claimFrom(ctx context.Context, peers []peerState, term, myLast uint64) bool {
	epoch, _ := g.log.State()
	self := g.o.Endpoints()
	accepts := 1 // this member's own durable vote
	for _, p := range peers {
		probeCtx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
		e := cdr.NewEncoder(64)
		e.WriteUint64(term)
		e.WriteString(g.cfg.MemberID)
		e.WriteUint64(epoch)
		e.WriteUint64(myLast)
		e.WriteStringList(self)
		_, err := g.o.Invoke(probeCtx, ReplicationAt(p.endpoint), "repl_claim", e.Bytes())
		cancel()
		if orb.IsSystem(err, orb.CodeFenced) {
			return false
		}
		if err == nil {
			accepts++
		}
		// Peers that died between the poll and the claim simply do not
		// vote — they rejoin through the fence later.
	}
	return accepts >= g.quorum()
}

// quorum applies the rule GroupConfig.Peers states: a majority of the
// configured electorate (this member plus cfg.Peers). Any two majorities
// intersect, so a partition can elect at most one leader, and the decision
// gate's ack quorum (quorum()-1 followers plus the leader itself)
// guarantees every election majority contains at least one member whose
// log holds every released decision — whose longer log then fences out
// any claimant missing one.
func (g *GroupMember) quorum() int {
	return (len(g.cfg.Peers)+1)/2 + 1
}

// DecisionGate returns the group-aware commit gate for this member's
// leadership (ots.WithDecisionGate): phase two of a commit is released
// only once a majority of the electorate durably holds the decision —
// the leader's own append plus quorum()-1 follower acks — and a fence
// raised at any point vetoes with FENCED. The gate blocks rather than
// degrades when acks are missing; interval is how often the blocked
// gate re-checks the fence, not a degrade deadline.
func (g *GroupMember) DecisionGate(interval time.Duration) func(lsn uint64) error {
	return g.primary.DecisionGateN(g.quorum()-1, interval)
}

// metrics emits the member's group state, its "replication" metrics
// source: identity, role, term and leaders as info samples, the durable
// position, fence and log fault, election history, and — while leading —
// each follower's ack watermark and lag behind the last durable LSN.
func (g *GroupMember) metrics(emit func(orb.Sample)) {
	g.mu.Lock()
	role, leaderID, elections := g.role, g.leaderID, g.elections
	var lastElection int64 // Unix nanoseconds, 0 for never
	if !g.lastElection.IsZero() {
		lastElection = g.lastElection.UnixNano()
	}
	g.mu.Unlock()
	ts := g.log.TermState()
	last := g.log.LastLSN()
	var fenced, faulted int64
	if ts.Fenced {
		fenced = 1
	}
	if ts.Faulted {
		faulted = 1
	}
	for _, s := range []orb.Sample{
		{Name: "member", Label: g.cfg.MemberID, Value: 1},
		{Name: "role", Label: role.String(), Value: 1},
		{Name: "term", Value: int64(ts.Term)},
		{Name: "term_leader", Label: ts.Leader, Value: 1},
		{Name: "leader", Label: leaderID, Value: 1},
		{Name: "last_lsn", Value: int64(last)},
		{Name: "fenced", Value: fenced},
		{Name: "faulted", Value: faulted},
		{Name: "last_election_ns", Value: lastElection},
		{Name: "elections", Value: int64(elections)},
	} {
		emit(s)
	}
	if role != RoleLeader {
		return
	}
	acks := g.primary.FollowerAcks()
	for _, id := range slices.Sorted(maps.Keys(acks)) {
		emit(orb.Sample{Name: "follower_acked", Label: id, Value: int64(acks[id])})
		emit(orb.Sample{Name: "follower_lag", Label: id, Value: int64(last - min(last, acks[id]))})
	}
}

// ReplState is a decoded repl_state reply: the peer's stream position and
// group identity.
type ReplState struct {
	// Epoch and NextLSN are the peer log's replication position.
	Epoch, NextLSN uint64
	// Acked is the most advanced watermark a follower acknowledged to the
	// peer (meaningful while it leads).
	Acked uint64
	// Term and TermStart mirror the peer's durable term state.
	Term, TermStart uint64
	// TermLeader is the member that claimed the peer's term.
	TermLeader string
	// MemberID is the peer's group identity.
	MemberID string
	// IsLeader reports whether the peer currently leads its group.
	IsLeader bool
	// LastElectionMillis is when the peer last won an election (Unix
	// milliseconds, 0 for never).
	LastElectionMillis int64
}

// FetchReplState polls the replication servant at endpoint for its stream
// position and group identity.
func FetchReplState(ctx context.Context, o *orb.ORB, endpoint string) (ReplState, error) {
	body, err := o.Invoke(ctx, ReplicationAt(endpoint), "repl_state", nil)
	if err != nil {
		return ReplState{}, fmt.Errorf("repl_state: %w", err)
	}
	d := cdr.NewDecoder(body)
	st := ReplState{
		Epoch:              d.ReadUint64(),
		NextLSN:            d.ReadUint64(),
		Acked:              d.ReadUint64(),
		Term:               d.ReadUint64(),
		TermStart:          d.ReadUint64(),
		TermLeader:         d.ReadString(),
		MemberID:           d.ReadString(),
		IsLeader:           d.ReadBool(),
		LastElectionMillis: d.ReadInt64(),
	}
	if err := d.Err(); err != nil {
		return ReplState{}, orb.Systemf(orb.CodeMarshal, "repl_state reply: %v", err)
	}
	return st, nil
}

// sleepCtx pauses for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
	case <-timer.C:
	}
}
