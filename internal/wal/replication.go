package wal

import (
	"context"
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
// of it until a sync covers them, so State and LastLSN never report them,
// and neither does the record index — an election never counts an
// unsynced LSN, and a lazy record alone never wakes a parked fetch.
//
// A fetch may read one batch early (after Ongaro's thesis, §10.2.1: a
// leader writes its own disk in parallel with replicating). A group flush
// that starts while a WaitSince is parked wakes it and lends the batch it
// is writing to RecordsSince, which serves a reader caught up with the
// durable stream the batch's records, parsed from the flusher's buffer,
// and never a record past the batch; once the flush ends the stream reads
// from the medium again. The follower writes and syncs the batch while the
// leader does, and acknowledges only what it synced, so a decision costs
// the slower of the two writes instead of their sum. A flush with no fetch
// parked, and every other flush (a follower's AppendRecords, Records,
// Checkpoint, Close), lends nothing: a reader waits for it as before.
//
// Early reads cost one guarantee. A batch some reader took whose write or
// sync then fails cannot give its LSNs back, since a follower may hold
// them: the log faults, and every later local append (Append, AppendLazy,
// AdoptTerm) fails with an error wrapping ErrFenced until the log is
// reopened. A failed batch nobody read drops its LSNs for reuse, as ever.

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
// While a flush lends its batch (see above), a reader at the durable
// stream position gets the batch's records instead, before they are
// durable; any other reader waits for the flush.
//
// The first record is found by binary search in the in-memory record
// index and the batch is read with one positional read of exactly its
// bytes, so the cost follows the batch, not the log's size. The bytes go
// through the same checksumming parser as replay: a record that fails its
// checksum ends the batch.
func (l *Log) RecordsSince(after uint64, max ...int) ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	limit := 0
	if len(max) > 0 {
		limit = max[0]
	}
	if l.flight != nil && after+1 == l.nextLSN {
		return l.flightLocked(limit), nil
	}
	if err := l.readyLocked(); err != nil {
		return nil, err
	}
	first := l.firstAfterLocked(after)
	end := len(l.index)
	if limit > 0 && end-first > limit {
		end = first + limit
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

// flightLocked parses the first limit records (all when limit is not
// positive) of the batch a flush in progress lends, and marks it shipped.
// The caller must hold l.mu.
func (l *Log) flightLocked(limit int) []Record {
	to := len(l.flight)
	if limit > 0 && limit < len(l.flightAt) {
		to = l.flightAt[limit].off
	}
	recs, _ := parseRecords(l.flight[:to])
	l.shipped = true
	return recs
}

// faultLocked is the end of a flush whose batch a reader took and whose
// write or sync failed with err: the batch's LSNs may live on in a
// follower's log, so instead of leaving them for reuse the log refuses
// every later local append with the error it returns, which wraps both
// ErrFenced and err. The caller must hold l.mu.
func (l *Log) faultLocked(batch []indexEntry, err error) error {
	l.fault = fmt.Errorf("%w: LSNs %d-%d were shipped before their flush failed: %w",
		ErrFenced, batch[0].lsn, batch[len(batch)-1].lsn, err)
	return l.fault
}

// firstAfterLocked returns the position in the record index of the first
// record with LSN greater than lsn (len(l.index) if there is none). The
// caller must hold l.mu.
func (l *Log) firstAfterLocked(lsn uint64) int {
	return sort.Search(len(l.index), func(i int) bool { return l.index[i].lsn > lsn })
}

// WaitSince blocks until the log's stream state has moved past (epoch,
// after) — a record with LSN greater than after became durable or is
// lent by a flush in progress, the epoch changed (checkpoint), or the log
// closed — or until timeout elapses or ctx ends. It reports whether the
// state moved; false means the timeout fired, or ctx ended, with the log
// still exactly at (epoch, after). Replication fetch long-polls on it
// with its dispatch context, so a shutting-down server never waits out a
// parked fetch, and a group flush that starts while it waits lends its
// batch to RecordsSince.
func (l *Log) WaitSince(ctx context.Context, epoch, after uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.movedLocked(epoch, after) {
		wait := time.Until(deadline)
		if wait <= 0 || ctx.Err() != nil {
			return false
		}
		ch := l.waitCh
		l.parked++
		l.mu.Unlock()
		timer := time.NewTimer(wait)
		select {
		case <-ch:
		case <-timer.C:
		case <-ctx.Done():
		}
		timer.Stop()
		l.mu.Lock()
		l.parked--
	}
	return true
}

// movedLocked reports whether the stream state is past (epoch, after).
// The caller must hold l.mu.
func (l *Log) movedLocked(epoch, after uint64) bool {
	return l.closed || l.epoch != epoch || l.nextLSN > after+1 ||
		l.flight != nil && l.flushEnd > after+1
}

// AppendRecords durably appends a batch of records shipped from a primary,
// preserving their LSNs, with one write and one fsync, and returns how many
// it applied. A record at or below the position the batch has reached is
// skipped: followers apply the stream in order and drop duplicates. Term
// records among the applied ones update the term state. Like Append, any
// torn tail from a failed append is repaired first, and a failed write or
// sync applies none of the batch.
//
// Records buffered locally are dropped: their LSNs belong to the shipped
// stream now, and losing them is what a crash before the next sync would
// have done. An Append waiting on one of them fails.
func (l *Log) AppendRecords(recs []Record) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.readyLocked(); err != nil {
		return 0, err
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
	if err := l.flushLocked(false); err != nil {
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
// snapshot. Records buffered locally are dropped with the old contents,
// and an Append waiting on one of them fails.
func (l *Log) InstallSnapshot(epoch uint64, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.readyLocked(); err != nil {
		return err
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
