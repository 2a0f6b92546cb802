package wal

import (
	"fmt"
	"sort"
	"time"
)

// This file is the log's replication surface: the primary side exposes its
// stream position and incremental reads, the follower side a write path
// that preserves shipped LSNs. The wire protocol over these primitives
// lives in internal/remote (GroupMember's servant / ReplicationFollower).
//
// Epochs delimit compactions: every Checkpoint (and InstallSnapshot)
// advances the epoch, so a follower streaming records within one epoch
// knows the records it already holds are a superset of what the primary
// dropped, and an epoch change tells it to resynchronise from a full
// Snapshot instead of chasing LSNs that no longer exist.

// The stream position is durable: records AppendLazy buffered are not part
// of it until a sync covers them, so State, LastLSN, RecordsSince and
// WaitSince never report them — an election never counts an unsynced LSN,
// a follower never fetches one, and a parked fetch is not woken by one.

// State returns the log's replication position: the current epoch and one
// past the LSN of the last durable record.
func (l *Log) State() (epoch, nextLSN uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch, l.nextLSN
}

// LastLSN returns the LSN of the last durable record, or 0 for a log that
// has never been appended to.
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// RecordsSince returns, in LSN order, the durable records with LSN greater
// than after — at most max of them when max is given and positive, all of
// them otherwise. Records compacted away by a checkpoint are not
// resurrected — callers track the epoch (State) to detect compaction.
//
// The first record is found by binary search in the in-memory record
// index and the batch is read with one positional read of exactly its
// bytes, so the cost follows the batch, not the log's size. The bytes go
// through the same checksumming parser as replay: a record that fails its
// checksum ends the batch.
func (l *Log) RecordsSince(after uint64, max ...int) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	first := l.firstAfterLocked(after)
	end := len(l.index)
	if len(max) > 0 && max[0] > 0 && end-first > max[0] {
		end = first + max[0]
	}
	if first == end {
		return nil, nil
	}
	to := l.size
	if end < len(l.index) {
		to = l.index[end].off
	}
	from := l.index[first].off
	b, err := l.be.readAt(from, to-from)
	if err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	recs, _ := parseRecords(b)
	return recs, nil
}

// firstAfterLocked returns the position in the record index of the first
// record with LSN greater than lsn (len(l.index) if there is none). The
// caller must hold l.mu.
func (l *Log) firstAfterLocked(lsn uint64) int {
	return sort.Search(len(l.index), func(i int) bool { return l.index[i].lsn > lsn })
}

// WaitSince blocks until the log's stream state has moved past (epoch,
// after) — a record with LSN greater than after became durable, the epoch
// changed (checkpoint), or the log closed — or until timeout elapses. It
// reports whether the state moved; false means the timeout fired with the
// log still exactly at (epoch, after). Replication fetch long-polls on it.
func (l *Log) WaitSince(epoch, after uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		l.mu.Lock()
		if l.closed || l.epoch != epoch || l.nextLSN > after+1 {
			l.mu.Unlock()
			return true
		}
		ch := l.waitCh
		l.mu.Unlock()
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

// AppendRecords durably appends a batch of records shipped from a primary,
// preserving their LSNs, with one write and one fsync, and returns how many
// it applied. A record at or below the position the batch has reached is
// skipped: followers apply the stream in order and drop duplicates. Term
// records among the applied ones update the term state. Like Append, any
// torn tail from a failed append is repaired first, and a failed write or
// sync applies none of the batch.
//
// Records AppendLazy buffered are dropped: their LSNs belong to the
// shipped stream now, and losing them is what a crash before the next sync
// would have done.
func (l *Log) AppendRecords(recs []Record) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	l.dropTailLocked()
	var terms []Record
	for _, r := range recs {
		if r.LSN < l.nextFreeLocked() {
			continue
		}
		l.bufferLocked(r)
		if r.Kind == KindTerm {
			terms = append(terms, r)
		}
	}
	applied := len(l.pending)
	if err := l.flushLocked(); err != nil {
		return 0, err
	}
	for _, r := range terms {
		l.noteTermRecordLocked(r)
	}
	return applied, nil
}

// InstallSnapshot atomically replaces the log's entire contents with a
// primary's Snapshot and adopts the primary's epoch, resynchronising a
// follower after the primary compacted records the follower had not yet
// fetched. The swap is crash-atomic (same mechanism as Checkpoint): a
// crash mid-install leaves either the old follower log or the complete
// snapshot. Records AppendLazy buffered are dropped with the old contents.
func (l *Log) InstallSnapshot(epoch uint64, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if err := l.be.replace(data); err != nil {
		return fmt.Errorf("wal: install snapshot: %w", err)
	}
	l.dropTailLocked()
	recs, valid, total, err := l.scan()
	if err != nil {
		return fmt.Errorf("wal: install snapshot: %w", err)
	}
	if valid < total {
		// A snapshot is always a whole number of records; torn bytes mean
		// the shipped data was corrupt. The valid prefix is kept.
		if err := l.be.truncate(valid); err != nil {
			return fmt.Errorf("wal: install snapshot truncate: %w", err)
		}
		if err := l.be.sync(); err != nil {
			return fmt.Errorf("wal: install snapshot sync: %w", err)
		}
	}
	l.adoptScannedLocked(recs)
	if l.fenced && l.fencedTerm <= l.term {
		// The snapshot carries the term the fence was raised for: this
		// member now provably holds the new leader's history, so its
		// append path need not stay fenced.
		l.fenced = false
		l.fencedTerm = 0
	}
	l.size = valid
	l.dirty = false
	l.epoch = epoch
	l.notifyLocked()
	return nil
}
