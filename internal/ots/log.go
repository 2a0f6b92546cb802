package ots

import (
	"errors"
	"fmt"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/wal"
)

// Log record kinds used by the transaction service.
const (
	// RecordDecision is a durable commit decision: the transaction will
	// commit, listing the recovery names of its prepared participants.
	// Presumed abort means this is the only record that must be forced
	// before phase two.
	RecordDecision wal.Kind = 0x11
	// RecordDone marks a decision as fully delivered, allowing the decision
	// record to be garbage-collected at the next checkpoint. It is appended
	// lazily and becomes durable with the log's next sync: losing it only
	// makes recovery re-drive an idempotent phase two.
	RecordDone wal.Kind = 0x12
	// RecordHeuristic records a participant's unilateral (heuristic)
	// outcome so heuristic damage survives restart: the terminator, an
	// operator or a later recovery pass can still see which participants
	// diverged until ForgetHeuristics acknowledges them.
	RecordHeuristic wal.Kind = 0x13
	// RecordHeuristicForget acknowledges a transaction's heuristic
	// records: they stop being reported and are garbage-collected at the
	// next checkpoint.
	RecordHeuristicForget wal.Kind = 0x14
	// RecordVoid retracts a decision the decision gate vetoed: the
	// transaction rolled back, so recovery must not replay the decision
	// record left before it. It is forced like the decision, and the next
	// checkpoint drops both.
	RecordVoid wal.Kind = 0x15
)

// Every record kind above starts with the 16-byte transaction id, which is
// all RecordDone, RecordHeuristicForget and RecordVoid hold.

// decisionRecord is the decoded form of a RecordDecision entry.
type decisionRecord struct {
	tx    ids.UID
	names []string
}

func encodeDecision(tx ids.UID, names []string) []byte {
	e := cdr.NewEncoder(64)
	e.WriteRaw(tx[:])
	e.WriteUint32(uint32(len(names)))
	for _, n := range names {
		e.WriteString(n)
	}
	return append([]byte(nil), e.Bytes()...)
}

func decodeDecision(b []byte) (decisionRecord, error) {
	var rec decisionRecord
	if len(b) < 16 {
		return rec, fmt.Errorf("ots: decision record too short (%d bytes)", len(b))
	}
	copy(rec.tx[:], b[:16])
	d := cdr.NewDecoder(b[16:])
	n := d.ReadUint32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		rec.names = append(rec.names, d.ReadString())
	}
	if err := d.Err(); err != nil {
		return rec, fmt.Errorf("ots: decode decision: %w", err)
	}
	return rec, nil
}

// HeuristicRecord is one durably recorded heuristic outcome: a prepared
// participant that resolved unilaterally instead of waiting for the
// coordinator's phase two.
type HeuristicRecord struct {
	// Tx is the transaction the participant was prepared under.
	Tx ids.UID
	// Resource is the participant's recovery name (may be empty for
	// anonymous participants, which cannot be re-bound after restart).
	Resource string
	// Outcome is what the participant unilaterally did: StatusCommitted
	// or StatusRolledBack.
	Outcome Status
}

func encodeHeuristic(rec HeuristicRecord) []byte {
	e := cdr.NewEncoder(64)
	e.WriteRaw(rec.Tx[:])
	e.WriteOctet(byte(rec.Outcome))
	e.WriteString(rec.Resource)
	return append([]byte(nil), e.Bytes()...)
}

func decodeHeuristic(b []byte) (HeuristicRecord, error) {
	var rec HeuristicRecord
	if len(b) < 17 {
		return rec, fmt.Errorf("ots: heuristic record too short (%d bytes)", len(b))
	}
	copy(rec.Tx[:], b[:16])
	d := cdr.NewDecoder(b[16:])
	rec.Outcome = Status(d.ReadOctet())
	rec.Resource = d.ReadString()
	if err := d.Err(); err != nil {
		return rec, fmt.Errorf("ots: decode heuristic: %w", err)
	}
	return rec, nil
}

func encodeTx(tx ids.UID) []byte {
	out := make([]byte, 16)
	copy(out, tx[:])
	return out
}

func decodeTx(b []byte) (ids.UID, error) {
	var u ids.UID
	if len(b) < 16 {
		return u, fmt.Errorf("ots: record too short for a transaction id (%d bytes)", len(b))
	}
	copy(u[:], b[:16])
	return u, nil
}

// logDecision forces the commit decision naming the participants of rs
// that voted commit; read-only voters have no phase two to recover.
// Without a log the service runs non-durably and the decision is a no-op.
func (t *Transaction) logDecision(rs []ResourceAction) error {
	s := t.svc
	if s.log == nil {
		return nil
	}
	rec := decisionRecord{tx: t.id, names: make([]string, 0, len(rs))}
	for _, r := range rs {
		if r.voted == VoteCommit && r.name != "" {
			rec.names = append(rec.names, r.name)
		}
	}
	lsn, err := s.log.Append(RecordDecision, encodeDecision(t.id, rec.names))
	if err != nil {
		return err
	}
	if s.decisionGate != nil {
		if err := s.decisionGate(lsn); err != nil {
			if errors.Is(err, wal.ErrFenced) {
				// A deposed leader cannot tell whether the decision
				// reached the follower that succeeds it (an ack rides the
				// follower's next fetch): the outcome is the next
				// leader's to settle, so it is neither voided nor rolled
				// back here.
				return fmt.Errorf("decision gate: %w", err)
			}
			// Any other veto unwinds to rollback, so the decision is
			// voided before anything can replay it.
			if _, verr := s.log.Append(RecordVoid, encodeTx(t.id)); verr == nil {
				s.fold(func(v *logView) { v.void(t.id) })
			}
			return fmt.Errorf("decision gate vetoed: %w", err)
		}
	}
	s.fold(func(v *logView) { v.decision(rec) })
	return nil
}

// logDone marks tx's decision delivered, for a commit and for a recovery
// pass alike, and emits StageDone. The record is lazy — it rides the log's
// next sync instead of paying for its own — and losing it to a crash
// before that sync only causes harmless re-delivery of idempotent commits
// on recovery.
func (s *Service) logDone(tx ids.UID) error {
	if s.log != nil {
		if _, err := s.log.AppendLazy(RecordDone, encodeTx(tx)); err != nil {
			return err
		}
		s.fold(func(v *logView) { v.done(tx) })
	}
	s.emit(Event{Tx: tx, Stage: StageDone})
	return nil
}

// recordHeuristic durably records one participant's heuristic outcome,
// deduplicating per (transaction, resource) so re-driven deliveries that
// keep hitting the same heuristic do not grow the log. Best-effort: with
// no log (or a failing one) the heuristic is still reported to the
// terminator through the commit error, it just will not survive restart.
func (s *Service) recordHeuristic(tx ids.UID, resource string, outcome Status) {
	if s.log == nil {
		return
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	v, err := s.loadViewLocked()
	if err == nil && v.hasHeuristic(tx, resource) {
		return
	}
	rec := HeuristicRecord{Tx: tx, Resource: resource, Outcome: outcome}
	if _, err := s.log.Append(RecordHeuristic, encodeHeuristic(rec)); err != nil {
		return
	}
	if v != nil {
		v.heuristic(rec)
	}
	s.totMu.Lock()
	s.totals.HeuristicsRecorded++
	s.totMu.Unlock()
}
