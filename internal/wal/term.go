package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Coordinator-group terms: a monotonic fencing epoch stored durably in the
// log itself. A leader claims a term by appending a KindTerm record
// (AdoptTerm); the record ships to every follower through the ordinary
// replication stream, so term adoption needs no side channel and survives
// checkpoints (Checkpoint force-keeps the latest term record). A member
// that learns of a higher term — a deposed primary told by a claim, or a
// stale server probed by an up-to-date follower — fences its local append
// path (Fence): every subsequent Append fails with ErrFenced until the
// member either wins a later election (AdoptTerm clears the fence) or
// truncates its unreplicated suffix and rejoins as a follower
// (TruncateAfter + the streamed term record).
//
// Terms are deliberately not consensus: the election protocol in
// internal/remote picks the member with the highest durable LSN (member-ID
// tiebreak) among reachable peers. The term record marks where the new
// leader's history begins — termStart — which is exactly the truncation
// point a rejoining deposed leader needs: everything below the term record
// was streamed from the old leader and is a shared prefix; everything the
// old leader holds at or beyond it was never replicated.

// KindTerm is the record kind of durable term records. It is owned by the
// log itself and lives at the top of the kind space so client packages
// (OTS 0x11–0x15, activity journal 0x21–0x25) can never collide with it.
// Replay switches in those packages ignore unknown kinds, so term records
// flow through shared logs harmlessly.
const KindTerm Kind = 0xFFF0

// ErrFenced reports an append rejected because the log has adopted (or
// been told of) a higher term than the one this process was leading: a
// deposed primary's late writes must not reach the log.
var ErrFenced = errors.New("wal: log is fenced by a higher term")

// EncodeTermRecord builds the data payload of a KindTerm record.
func EncodeTermRecord(term uint64, leaderID string) []byte {
	b := make([]byte, 8+len(leaderID))
	binary.BigEndian.PutUint64(b[:8], term)
	copy(b[8:], leaderID)
	return b
}

// DecodeTermRecord parses a KindTerm record payload.
func DecodeTermRecord(data []byte) (term uint64, leaderID string, err error) {
	if len(data) < 8 {
		return 0, "", fmt.Errorf("wal: term record of %d bytes", len(data))
	}
	return binary.BigEndian.Uint64(data[:8]), string(data[8:]), nil
}

// TermState is a snapshot of the log's group-membership position.
type TermState struct {
	// Term is the highest term durably recorded in the log (0 before any
	// election).
	Term uint64
	// Start is the LSN of the record that began Term (0 when Term is 0).
	Start uint64
	// Leader is the member ID that claimed Term.
	Leader string
	// Fenced reports whether a fence raised for a higher term rejects
	// local appends with ErrFenced.
	Fenced bool
	// FencedAt is the higher term the fence was raised for (0 when not
	// fenced). It can exceed Term: the fence is in-memory evidence, the
	// durable record arrives later via the replication stream.
	FencedAt uint64
	// Faulted reports whether a batch a reader took failed to sync, so
	// local appends fail with ErrFenced though no higher term is known.
	// Fenced does not cover it: it is evidence of a higher term, which a
	// fault is not.
	Faulted bool
}

// TermState returns the log's current term position.
func (l *Log) TermState() TermState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return TermState{
		Term:     l.term,
		Start:    l.termStart,
		Leader:   l.termLeader,
		Fenced:   l.fenced,
		FencedAt: l.fencedTerm,
		Faulted:  l.fault != nil,
	}
}

// Term returns the highest term durably recorded in the log.
func (l *Log) Term() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.term
}

// KnownTerm returns the highest term this log has evidence of: the durable
// term, or the fence term when a fence was raised for a term whose record
// has not arrived yet. Followers advertise it on repl_fetch.
func (l *Log) KnownTerm() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fencedTerm > l.term {
		return l.fencedTerm
	}
	return l.term
}

// Follow marks the log as a follower's: from now on it holds the
// leader's stream, whose LSNs local Append and AppendLazy would take
// (AppendRecords then skips the leader's record at such an LSN), so they
// fail with ErrFenced until the log adopts a term of its own (AdoptTerm).
// Unlike a fence it is no evidence of a higher term: TermState does not
// report it. A reopened log takes local appends until its member fetches
// again.
func (l *Log) Follow() {
	l.mu.Lock()
	l.following = true
	l.mu.Unlock()
}

// Fenced reports whether local appends are currently rejected.
func (l *Log) Fenced() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fenced
}

// Fence rejects all subsequent Append calls with ErrFenced because a
// higher term than this log's durable one exists. It reports whether the
// fence was raised (false when term is not beyond the durable term — stale
// evidence must not fence a legitimate leader). Raising it fails every
// buffered record with ErrFenced, the records of Appends queued behind a
// flush in progress included, and then waits out that flush, whose batch
// was taken before the fence: no local append becomes durable after Fence
// returns. The fence is in-memory: the
// durable term record arrives through the replication stream once the
// member rejoins, and a restarted process re-discovers the higher term
// from its peers before serving.
func (l *Log) Fence(term uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if term <= l.term {
		return false
	}
	l.fenced = true
	if term > l.fencedTerm {
		l.fencedTerm = term
	}
	l.failTailLocked(l.fencedErrLocked())
	l.waitFlushLocked()
	return true
}

// fencedErrLocked is the error a fenced log rejects local appends with.
// The caller must hold l.mu.
func (l *Log) fencedErrLocked() error {
	return fmt.Errorf("%w: term %d", ErrFenced, l.fencedTerm)
}

// AdoptTerm durably claims term for leaderID: the term record is appended
// (and synced) to the log, the fence — if any — is cleared, a following
// log takes local appends again, and the record's LSN (the new term's
// start) is returned. The term must be
// strictly beyond both the durable term and any fence term, or ErrFenced
// is returned: claiming a term at or below one that is known to exist
// would let two leaders share a fencing epoch.
func (l *Log) AdoptTerm(term uint64, leaderID string) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.readyLocked(); err != nil {
		return 0, err
	}
	if l.fault != nil {
		return 0, l.fault
	}
	// <= on both bounds: a member fenced at term T must not itself claim T —
	// the fence is evidence that some other member owns that epoch, and two
	// leaders sharing one fencing epoch is exactly what terms exist to
	// prevent.
	if term <= l.term || term <= l.fencedTerm {
		return 0, fmt.Errorf("%w: claiming term %d, term %d known", ErrFenced, term, max(l.term, l.fencedTerm))
	}
	lsn := l.nextFreeLocked()
	l.bufferLocked(Record{LSN: lsn, Kind: KindTerm, Data: EncodeTermRecord(term, leaderID)})
	if err := l.flushLocked(false); err != nil {
		return 0, err
	}
	l.term = term
	l.termStart = lsn
	l.termLeader = leaderID
	l.termMarks = append(l.termMarks, termMark{term: term, lsn: lsn, leader: leaderID})
	l.fenced = false
	l.fencedTerm = 0
	l.following = false
	return lsn, nil
}

// termMark is one durable KindTerm record's position. The log caches every
// term record's (term, LSN, leader) in memory — rebuilt whenever the record
// set is rescanned and folded in on every append/adopt — so TermStartAfter
// and TruncateAfter can answer without rescanning the backend.
type termMark struct {
	term, lsn uint64
	leader    string
}

// TermStartAfter returns the LSN of the earliest durable term record
// whose term is beyond term, and whether one exists. It is the exact
// rejoin truncation bound for a deposed leader that last led term: every
// record below that LSN is a prefix shared with the current leader (each
// leader streamed its predecessor's log before claiming), and everything
// at or beyond it on the deposed leader's log was never replicated.
// Answered from the in-memory term-record cache — fenceFetch calls this
// on every fetch from a stale-term follower, so it must not cost a log
// scan per polling round.
func (l *Log) TermStartAfter(term uint64) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, false
	}
	for _, m := range l.termMarks {
		if m.term > term {
			return m.lsn, true
		}
	}
	return 0, false
}

// TruncateAfter durably discards every record with LSN beyond lsn — a
// rejoining deposed leader cutting its unreplicated suffix back to the new
// leader's term start. The truncation reuses the torn-tail repair path
// (truncate + sync), so it is crash-atomic: a crash before the sync leaves
// the old suffix for the next open's repair scan to handle; after it, the
// suffix is gone for good. The cut comes from the record index and the
// log's position and term state from the surviving index entries and term
// marks, so the file is not reread; an existing fence stays up —
// truncation prepares a rejoin, it does not confer leadership. Records
// AppendLazy buffered are synced first and cut like any other.
func (l *Log) TruncateAfter(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.readyLocked(); err != nil {
		return err
	}
	if err := l.flushLocked(false); err != nil {
		return err
	}
	if err := l.repairLocked(); err != nil {
		return err
	}
	cut := l.firstAfterLocked(lsn)
	off := l.size
	if cut < len(l.index) {
		off = l.index[cut].off
	}
	if off < l.size {
		if err := l.be.truncate(off); err != nil {
			return fmt.Errorf("wal: truncate suffix: %w", err)
		}
		if err := l.be.sync(); err != nil {
			return fmt.Errorf("wal: sync suffix truncation: %w", err)
		}
	}
	l.size = off
	l.dirty = false
	l.index = l.index[:cut]
	l.nextLSN = 1
	if cut > 0 {
		l.nextLSN = l.index[cut-1].lsn + 1
	}
	marks := 0
	for marks < len(l.termMarks) && l.termMarks[marks].lsn <= lsn {
		marks++
	}
	l.termMarks = l.termMarks[:marks]
	l.termFromMarksLocked()
	l.notifyLocked()
	return nil
}

// adoptScannedLocked rebuilds the log's stream position and both in-memory
// caches — the record index and the term marks, and with them the term
// state — from a scanned record set laid out from offset zero (open,
// snapshot install, a checkpoint's kept set). The caller must hold l.mu.
func (l *Log) adoptScannedLocked(recs []Record) {
	l.nextLSN = 1
	if len(recs) > 0 {
		l.nextLSN = recs[len(recs)-1].LSN + 1
	}
	l.index = make([]indexEntry, len(recs))
	l.termMarks = nil
	off := 0
	for i, r := range recs {
		l.index[i] = indexEntry{lsn: r.LSN, off: off}
		off += headerSize + 10 + len(r.Data)
		if r.Kind != KindTerm {
			continue
		}
		if term, leader, err := DecodeTermRecord(r.Data); err == nil {
			l.termMarks = append(l.termMarks, termMark{term: term, lsn: r.LSN, leader: leader})
		}
	}
	l.termFromMarksLocked()
}

// termFromMarksLocked sets the term state from the newest term mark, as a
// reopen of the same records would. The caller must hold l.mu.
func (l *Log) termFromMarksLocked() {
	l.term, l.termStart, l.termLeader = 0, 0, ""
	if n := len(l.termMarks); n > 0 {
		m := l.termMarks[n-1]
		l.term, l.termStart, l.termLeader = m.term, m.lsn, m.leader
	}
}

// noteTermRecordLocked folds a freshly appended KindTerm record into the
// term marks and the term state: followers streaming a new leader's log
// adopt its term as the record lands, and a fence raised for that term
// (the claim preceding the stream) comes down — the member is now provably
// inside the new term's history. The caller must hold l.mu.
func (l *Log) noteTermRecordLocked(r Record) {
	term, leader, err := DecodeTermRecord(r.Data)
	if err != nil {
		return
	}
	l.termMarks = append(l.termMarks, termMark{term: term, lsn: r.LSN, leader: leader})
	if term < l.term {
		return
	}
	l.term = term
	l.termStart = r.LSN
	l.termLeader = leader
	if l.fencedTerm <= term {
		l.fenced = false
		l.fencedTerm = 0
	}
}
