package remote

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/wal"
)

// WAL replication over the ORB: every coordinator-group member exposes
// its log as a well-known servant and the followers stream the leader's
// into their own wal.Log. The protocol is pull-based — the follower
// long-polls repl_fetch so a healthy leader ships each record within one
// round trip — with epochs delimiting checkpoints: a checkpoint compacts
// records (preserving LSNs), so a follower that sees the leader's epoch
// move resynchronises from a full repl_snapshot instead of chasing LSNs
// that no longer exist. Each fetch doubles as the follower's
// acknowledgement of everything at or below its watermark; the leader's
// ReplicationPrimary tracks that watermark so the decision gate can hold
// phase two until a quorum of the group holds the decision.
//
// The verbs belong to the priority admission class
// (orb.DefaultPriorityOps): shedding replication under overload would let
// the followers fall behind exactly when the leader is most likely to die,
// and a shed repl_claim counts as no vote, so a loaded group could not
// elect a leader.
const (
	// ReplicationTypeID is the interface id of the WAL replication servant.
	ReplicationTypeID = "IDL:ActivityService/WALReplication:1.0"
	// ReplicationKey is the well-known object key the replication servant
	// serves under — like ots-recovery, a member needs only a peer's
	// endpoint to find it.
	ReplicationKey = "wal-replication"
)

// ErrPrimaryLost is returned by ReplicationFollower.Run when the leader
// has been unreachable for the takeover policy's failure budget: the
// member should stop following and stand for election.
var ErrPrimaryLost = errors.New("remote: replication primary lost")

// fetch reply status octets.
const (
	replOK            = 0
	replEpochMismatch = 1
	// replFenced tells the fetching follower its stream position belongs
	// to a deposed term: either the follower holds an unreplicated suffix
	// it must truncate before streaming (rejoin), or the *server* just
	// learned from the follower's term that it has itself been deposed.
	replFenced = 2
)

// ReplicationPrimary is the leader-side handle of a GroupMember's
// replication servant: it tracks per-follower acknowledgement watermarks
// and lets the commit path wait on them.
type ReplicationPrimary struct {
	log *wal.Log

	mu    sync.Mutex
	acks  map[string]uint64 // per-follower watermarks, keyed by follower ID
	ackCh chan struct{}     // closed and renewed whenever any watermark advances
}

// noteAck records that follower id has durably applied every record with
// LSN at or below lsn.
func (p *ReplicationPrimary) noteAck(id string, lsn uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if lsn > p.acks[id] {
		p.acks[id] = lsn
		close(p.ackCh)
		p.ackCh = make(chan struct{})
	}
}

// resetAcks forgets every follower watermark. A watermark is a claim
// about one leadership's history: a member that was deposed, truncated its
// suffix and leads again assigns the same LSNs to different records, so an
// ack collected under the old term must not release a decision of the new
// one. Live followers re-acknowledge on their next fetch.
func (p *ReplicationPrimary) resetAcks() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acks = make(map[string]uint64)
}

// Acked returns the highest LSN any follower has acknowledged as durable.
func (p *ReplicationPrimary) Acked() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var most uint64
	for _, lsn := range p.acks {
		if lsn > most {
			most = lsn
		}
	}
	return most
}

// FollowerAcks returns a copy of the per-follower ack watermarks (the
// admin scrape reports them as lag against the log's last LSN).
func (p *ReplicationPrimary) FollowerAcks() map[string]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]uint64, len(p.acks))
	for id, lsn := range p.acks {
		out[id] = lsn
	}
	return out
}

// ackedByNLocked reports whether at least n followers have acknowledged
// lsn. The caller must hold p.mu.
func (p *ReplicationPrimary) ackedByNLocked(lsn uint64, n int) bool {
	count := 0
	for _, a := range p.acks {
		if a >= lsn {
			count++
		}
	}
	return count >= n
}

// WaitForAckN blocks until at least n distinct followers have acknowledged
// lsn (reporting true) or timeout elapses (false).
func (p *ReplicationPrimary) WaitForAckN(lsn uint64, n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		p.mu.Lock()
		if p.ackedByNLocked(lsn, n) {
			p.mu.Unlock()
			return true
		}
		ch := p.ackCh
		p.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			return false
		}
		timer := time.NewTimer(wait)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return false
		}
	}
}

// DecisionGateN is the commit gate behind ots.WithDecisionGate. It
// releases a freshly-logged commit decision only once n distinct
// followers have durably acknowledged its LSN — so every member a later
// election could pick already holds the decision — and a fence raised at
// any point stops the commit with FENCED, wrapping wal.ErrFenced: a
// deposed leader cannot know whether its successor holds the decision
// (a follower's ack rides its next fetch), so the transaction service
// delivers no phase two and leaves the outcome to the next leader, whose
// recovery commits the decision if it has it and presumes abort if not.
//
// A missing ack does NOT degrade to asynchronous shipping: the gate
// blocks, re-checking the fence every interval, until the acks arrive or
// this member is deposed. Degrading would let a leader deliver phase two,
// die, and leave the election to pick a standby that never saw the
// decision; vetoing on a slow standby would be unsafe the other way,
// because the decision record is already durable locally and would replay
// as commit after a crash while the client heard rollback. Blocking is
// the only outcome consistent on both sides of a crash. n < 1 skips the
// ack wait (a single-member group has nobody to wait for) but keeps both
// fence checks. GroupMember.DecisionGate sizes n from the electorate.
func (p *ReplicationPrimary) DecisionGateN(n int, interval time.Duration) func(lsn uint64) error {
	if interval <= 0 {
		interval = time.Second
	}
	return func(lsn uint64) error {
		for {
			if err := p.fenceCheck(); err != nil {
				return err
			}
			if n < 1 || p.WaitForAckN(lsn, n, interval) {
				return p.fenceCheck()
			}
		}
	}
}

// fenceCheck surfaces a raised fence as the FENCED system exception,
// wrapping wal.ErrFenced so the transaction service knows the outcome is
// not its own to settle.
func (p *ReplicationPrimary) fenceCheck() error {
	if !p.log.Fenced() {
		return nil
	}
	return fmt.Errorf("%w: %w", orb.Systemf(orb.CodeFenced, "term=%d deposed mid-commit", p.log.KnownTerm()), wal.ErrFenced)
}

// replicationServant exposes a group member's wal.Log over the ORB and
// routes claims and fence evidence into the member's election state.
type replicationServant struct {
	g *GroupMember
}

// ReplicationAt builds the IOR of the well-known replication servant
// reachable at the given endpoints (profiles, in preference order). Bare
// host:port addresses are accepted alongside the "tcp:host:port" and
// "inproc:" forms ORB.Endpoints reports.
func ReplicationAt(endpoints ...string) orb.IOR {
	return orb.NewIOR(ReplicationTypeID, ReplicationKey, endpoints...)
}

// maxFetchWait caps how long one repl_fetch may park a dispatch slot.
const maxFetchWait = 30 * time.Second

// Dispatch implements orb.Servant.
func (s *replicationServant) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	switch op {
	case "repl_state":
		epoch, next := s.g.log.State()
		ts := s.g.log.TermState()
		memberID, leader, lastElection := s.g.info()
		e := cdr.NewEncoder(64)
		e.WriteUint64(epoch)
		e.WriteUint64(next)
		e.WriteUint64(s.g.primary.Acked())
		e.WriteUint64(ts.Term)
		e.WriteUint64(ts.Start)
		e.WriteString(ts.Leader)
		e.WriteString(memberID)
		e.WriteBool(leader)
		e.WriteInt64(lastElection)
		return e.Bytes(), nil

	case "repl_fetch":
		epoch := in.ReadUint64()
		after := in.ReadUint64()
		waitMillis := in.ReadUint32()
		max := in.ReadUint32()
		followerID := in.ReadString()
		followerTerm := in.ReadUint64()
		if err := in.Err(); err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "repl_fetch: %v", err)
		}
		if out, fenced := s.fenceFetch(after, followerTerm); fenced {
			return out, nil
		}
		curEpoch, _ := s.g.log.State()
		e := cdr.NewEncoder(256)
		if epoch != curEpoch {
			// The follower's stream position predates a checkpoint (or it
			// is ahead after a failed takeover); it must resynchronise from
			// a snapshot. Its watermark is from another epoch — ignore it.
			e.WriteOctet(replEpochMismatch)
			e.WriteUint64(curEpoch)
			e.WriteUint32(0)
			return e.Bytes(), nil
		}
		// A fetch after X acknowledges X: the follower only advances its
		// watermark once records are durable in its own log.
		s.g.primary.noteAck(followerID, after)
		if wait := time.Duration(waitMillis) * time.Millisecond; wait > 0 {
			if wait > maxFetchWait {
				wait = maxFetchWait
			}
			s.g.log.WaitSince(ctx, epoch, after, wait)
			// The epoch may have moved while parked; re-read and report
			// honestly so the follower resyncs rather than mixing streams.
			if curEpoch, _ = s.g.log.State(); curEpoch != epoch {
				e.WriteOctet(replEpochMismatch)
				e.WriteUint64(curEpoch)
				e.WriteUint32(0)
				return e.Bytes(), nil
			}
		}
		recs, err := s.g.log.RecordsSince(after, int(max))
		if err != nil {
			return nil, fmt.Errorf("repl_fetch: %w", err)
		}
		e.WriteOctet(replOK)
		e.WriteUint64(curEpoch)
		e.WriteUint32(uint32(len(recs)))
		for _, r := range recs {
			e.WriteUint64(r.LSN)
			e.WriteUint32(uint32(r.Kind))
			e.WriteBytes(r.Data)
		}
		return e.Bytes(), nil

	case "repl_snapshot":
		epoch, next := s.g.log.State()
		snap, err := s.g.log.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("repl_snapshot: %w", err)
		}
		e := cdr.NewEncoder(64 + len(snap))
		e.WriteUint64(epoch)
		e.WriteUint64(next)
		e.WriteBytes(snap)
		return e.Bytes(), nil

	case "repl_claim":
		term := in.ReadUint64()
		leaderID := in.ReadString()
		claimEpoch := in.ReadUint64()
		claimLast := in.ReadUint64()
		endpoints := in.ReadStringList()
		if err := in.Err(); err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "repl_claim: %v", err)
		}
		if err := s.g.handleClaim(term, leaderID, claimEpoch, claimLast, endpoints); err != nil {
			return nil, err
		}
		epoch, next := s.g.log.State()
		e := cdr.NewEncoder(32)
		e.WriteUint64(epoch)
		e.WriteUint64(next - 1)
		return e.Bytes(), nil

	default:
		return nil, orb.Systemf(orb.CodeBadOperation, "WALReplication has no operation %q", op)
	}
}

// fenceFetch applies the term checks guarding repl_fetch, implementing
// both directions of the fence:
//
//   - The follower proves a higher term than this server knows: the server
//     has been deposed — fence the local log so in-flight appends (a
//     decision racing phase two) fail FENCED, tell the group, and answer
//     replFenced so the follower looks for the real leader. The one term
//     that proves nothing is the one this member is itself claiming: a
//     voter that accepted the claim fetches under it before the candidate
//     has adopted it, and fencing on that would wedge the winner (it could
//     never adopt the term it won). That fetch is served as a plain one
//     and parks until the term record lands.
//   - The follower's term is behind this server's and its stream position
//     reaches into a newer term's history: the follower is a deposed
//     leader holding an unreplicated suffix. Streaming to it would silently
//     diverge (its orphan records occupy LSNs this log assigned to other
//     records), so the reply carries the exact truncation bound — the
//     start of the first term beyond the follower's — for the follower's
//     crash-atomic rejoin cut.
func (s *replicationServant) fenceFetch(after, followerTerm uint64) ([]byte, bool) {
	if followerTerm > s.g.log.KnownTerm() && !s.g.isClaiming(followerTerm) {
		s.g.log.Fence(followerTerm)
		s.g.noteDeposed(followerTerm)
		return encodeFencedReply(followerTerm, 0, ""), true
	}
	if term := s.g.log.Term(); followerTerm < term {
		if cut, ok := s.g.log.TermStartAfter(followerTerm); ok && after >= cut {
			ts := s.g.log.TermState()
			return encodeFencedReply(ts.Term, cut-1, ts.Leader), true
		}
	}
	return nil, false
}

// encodeFencedReply builds a replFenced fetch reply: the server's term,
// the truncation bound for a rejoining deposed leader (0 when the server
// itself is the stale party), and the ID of the leader that claimed term.
func encodeFencedReply(term, truncateTo uint64, leaderID string) []byte {
	e := cdr.NewEncoder(64)
	e.WriteOctet(replFenced)
	e.WriteUint64(term)
	e.WriteUint64(truncateTo)
	e.WriteString(leaderID)
	return e.Bytes()
}

// TakeoverPolicy says when a follower should declare the primary lost:
// after Failures consecutive failed fetch rounds, Retry apart.
type TakeoverPolicy struct {
	// Failures is how many consecutive fetch failures Run tolerates before
	// returning ErrPrimaryLost.
	Failures int
	// Retry is the pause between a failed round and the next attempt.
	Retry time.Duration
}

// followerBatch caps the records one repl_fetch asks for.
const followerBatch = 256

// ReplicationFollower streams a leader's WAL into a local follower log.
// GroupMember.followOnce is its only constructor outside tests.
type ReplicationFollower struct {
	orb    *orb.ORB
	ref    orb.IOR
	log    *wal.Log
	id     string
	poll   time.Duration
	policy TakeoverPolicy
}

// NewReplicationFollower returns a follower that streams the replication
// servant at ref through o into log. id names the follower on the wire
// (the leader keys its ack watermark by it), poll is how long each fetch
// long-polls when caught up (clamped by the server to 30s), and policy
// says when Run declares the leader lost.
func NewReplicationFollower(o *orb.ORB, ref orb.IOR, log *wal.Log, id string, poll time.Duration, policy TakeoverPolicy) *ReplicationFollower {
	return &ReplicationFollower{orb: o, ref: ref, log: log, id: id, poll: poll, policy: policy}
}

// Sync runs one replication round: fetch the records beyond the follower's
// position and apply them, or resynchronise from a snapshot after an epoch
// mismatch. From the first round on, the log refuses local appends until
// the member adopts a term (wal.Log.Follow). It returns the number of records (or snapshots, counted as
// one) applied. A healthy caught-up round long-polls on the primary until
// something happens or the poll timeout elapses, then returns (0, nil).
func (f *ReplicationFollower) Sync(ctx context.Context) (int, error) {
	f.log.Follow()
	epoch, next := f.log.State()
	e := cdr.NewEncoder(64)
	e.WriteUint64(epoch)
	e.WriteUint64(next - 1)
	e.WriteUint32(uint32(f.poll / time.Millisecond))
	e.WriteUint32(followerBatch)
	e.WriteString(f.id)
	e.WriteUint64(f.log.KnownTerm())
	body, err := f.orb.Invoke(ctx, f.ref, "repl_fetch", e.Bytes())
	if err != nil {
		return 0, fmt.Errorf("repl_fetch: %w", err)
	}
	d := cdr.NewDecoder(body)
	status := d.ReadOctet()
	if err := d.Err(); err != nil {
		return 0, orb.Systemf(orb.CodeMarshal, "repl_fetch reply: %v", err)
	}
	if status == replFenced {
		return f.handleFenced(d)
	}
	d.ReadUint64() // primary epoch; re-read under repl_snapshot when resyncing
	count := d.ReadUint32()
	if err := d.Err(); err != nil {
		return 0, orb.Systemf(orb.CodeMarshal, "repl_fetch reply: %v", err)
	}
	if status == replEpochMismatch {
		if err := f.resync(ctx); err != nil {
			return 0, err
		}
		return 1, nil
	}
	if count == 0 {
		return 0, nil
	}
	// The batch aliases body, which this call owns; AppendRecords copies
	// what it writes.
	recs := make([]wal.Record, 0, min(count, followerBatch))
	for i := uint32(0); i < count && d.Err() == nil; i++ {
		recs = append(recs, wal.Record{
			LSN:  d.ReadUint64(),
			Kind: wal.Kind(d.ReadUint32()),
			Data: d.ReadBytes(),
		})
	}
	if err := d.Err(); err != nil {
		return 0, orb.Systemf(orb.CodeMarshal, "repl_fetch record: %v", err)
	}
	// One write and one fsync for the batch; duplicates are skipped.
	applied, err := f.log.AppendRecords(recs)
	if err != nil {
		return 0, fmt.Errorf("apply %d shipped records from LSN %d: %w", count, recs[0].LSN, err)
	}
	return applied, nil
}

// handleFenced applies a replFenced fetch reply — the automatic rejoin
// path. A reply naming a term beyond this follower's and a truncation
// bound below its position is the deposed-leader case: the follower cuts
// its unreplicated suffix (crash-atomic, the torn-tail repair path),
// fences its local appends under the new term, and resumes streaming —
// the next fetch starts below the cut and the new leader's term record
// arrives in sequence. Any other fenced reply means the *server* is the
// stale party (this follower out-ran its term); it counts as a failed
// round so the takeover budget eventually moves the follower elsewhere.
func (f *ReplicationFollower) handleFenced(d *cdr.Decoder) (int, error) {
	term := d.ReadUint64()
	truncateTo := d.ReadUint64()
	leaderID := d.ReadString()
	if err := d.Err(); err != nil {
		return 0, orb.Systemf(orb.CodeMarshal, "repl_fetch fenced reply: %v", err)
	}
	if term >= f.log.KnownTerm() && truncateTo > 0 && f.log.LastLSN() > truncateTo {
		f.log.Fence(term)
		if err := f.log.TruncateAfter(truncateTo); err != nil {
			return 0, fmt.Errorf("rejoin truncation to %d: %w", truncateTo, err)
		}
		return 1, nil
	}
	return 0, orb.Systemf(orb.CodeFenced, "term=%d leader=%s fetch fenced", term, leaderID)
}

// resync installs a full primary snapshot, adopting its epoch.
func (f *ReplicationFollower) resync(ctx context.Context) error {
	body, err := f.orb.Invoke(ctx, f.ref, "repl_snapshot", nil)
	if err != nil {
		return fmt.Errorf("repl_snapshot: %w", err)
	}
	d := cdr.NewDecoder(body)
	epoch := d.ReadUint64()
	d.ReadUint64() // next LSN; implied by the snapshot contents
	snap := d.ReadBytesClone()
	if err := d.Err(); err != nil {
		return orb.Systemf(orb.CodeMarshal, "repl_snapshot reply: %v", err)
	}
	if err := f.log.InstallSnapshot(epoch, snap); err != nil {
		return fmt.Errorf("install snapshot: %w", err)
	}
	return nil
}

// Run streams the primary until ctx is cancelled (returning nil) or the
// primary has been unreachable for the takeover policy's failure budget
// (returning ErrPrimaryLost, the standby's cue to take over). Transient
// failures inside the budget are retried after the policy's pause.
func (f *ReplicationFollower) Run(ctx context.Context) error {
	failures := 0
	for {
		if ctx.Err() != nil {
			return nil
		}
		_, err := f.Sync(ctx)
		if err == nil {
			failures = 0
			continue
		}
		if ctx.Err() != nil {
			return nil
		}
		failures++
		if failures >= f.policy.Failures {
			return fmt.Errorf("%w: %d consecutive fetch failures, last: %v",
				ErrPrimaryLost, failures, err)
		}
		timer := time.NewTimer(f.policy.Retry)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil
		case <-timer.C:
		}
	}
}
