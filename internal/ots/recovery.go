package ots

import (
	"errors"
	"fmt"
	"sort"

	"github.com/extendedtx/activityservice/internal/ids"
	"github.com/extendedtx/activityservice/internal/wal"
)

// RecoveryStats summarises one recovery pass.
type RecoveryStats struct {
	// DecisionsReplayed counts commit decisions that were re-driven.
	DecisionsReplayed int
	// ResourcesCommitted counts participants that received commit
	// (including participants found to have heuristically committed —
	// their outcome matches the decision).
	ResourcesCommitted int
	// ResourcesMissing counts participant names with no directory binding;
	// their decisions stay in the log for a later pass.
	ResourcesMissing int
	// ResourcesFailed counts participants whose commit delivery failed
	// with an unknown outcome; their decisions stay in the log and a later
	// pass re-drives them.
	ResourcesFailed int
	// ResourcesHeuristic counts participants that reported a heuristic
	// outcome during the pass; the heuristic is recorded durably.
	ResourcesHeuristic int
}

// RecoveryTotals accumulates recovery activity across the service's
// lifetime, plus point-in-time gauges of outstanding recovery state. The
// orb-admin scrape surfaces them (see internal/remote.ServeRecovery).
type RecoveryTotals struct {
	// Passes counts completed Recover invocations.
	Passes uint64
	// DecisionsReplayed totals decisions re-driven across all passes.
	DecisionsReplayed uint64
	// ResourcesCommitted totals commit deliveries across all passes.
	ResourcesCommitted uint64
	// ResourcesMissing totals unresolvable participant names seen.
	ResourcesMissing uint64
	// ResourcesFailed totals failed commit deliveries seen.
	ResourcesFailed uint64
	// HeuristicsRecorded totals heuristic records appended to the log
	// (by live completion and by recovery passes).
	HeuristicsRecorded uint64
	// PendingDecisions gauges decisions currently lacking a done marker.
	PendingDecisions int
	// PendingHeuristics gauges heuristic records not yet forgotten.
	PendingHeuristics int
}

// logView is the decoded state of the decision log: the one shared scan
// every recovery entry point reads. It is built lazily, kept current by
// the append paths (noteDecision/noteDone/recordHeuristic) and dropped on
// checkpoint, so a recovery pass — however many Recover, ReplayCompletion
// and Heuristics calls it makes — costs a single log scan.
type logView struct {
	decisions  map[ids.UID]decisionRecord
	done       map[ids.UID]bool
	heuristics map[ids.UID][]HeuristicRecord
}

// loadViewLocked returns the cached view, scanning the log to build it if
// needed. The caller must hold s.viewMu.
func (s *Service) loadViewLocked() (*logView, error) {
	if s.view != nil {
		return s.view, nil
	}
	v := &logView{
		decisions:  make(map[ids.UID]decisionRecord),
		done:       make(map[ids.UID]bool),
		heuristics: make(map[ids.UID][]HeuristicRecord),
	}
	err := s.log.Replay(func(r wal.Record) error {
		switch r.Kind {
		case RecordDecision:
			rec, err := decodeDecision(r.Data)
			if err != nil {
				return err
			}
			v.decisions[rec.tx] = rec
		case RecordDone:
			tx, err := decodeDone(r.Data)
			if err != nil {
				return err
			}
			v.done[tx] = true
		case RecordHeuristic:
			rec, err := decodeHeuristic(r.Data)
			if err != nil {
				return err
			}
			v.heuristics[rec.Tx] = append(v.heuristics[rec.Tx], rec)
		case RecordHeuristicForget:
			tx, err := decodeDone(r.Data) // same 16-byte layout
			if err != nil {
				return err
			}
			delete(v.heuristics, tx)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("ots: scan log: %w", err)
	}
	s.view = v
	return v, nil
}

// noteDecision folds a freshly appended decision into the cached view.
func (s *Service) noteDecision(rec decisionRecord) {
	s.viewMu.Lock()
	if s.view != nil {
		s.view.decisions[rec.tx] = rec
	}
	s.viewMu.Unlock()
}

// noteDone folds a freshly appended done marker into the cached view.
func (s *Service) noteDone(tx ids.UID) {
	s.viewMu.Lock()
	if s.view != nil {
		s.view.done[tx] = true
	}
	s.viewMu.Unlock()
}

// Recover replays the decision log after a restart: every transaction with
// a durable commit decision but no done marker has commit re-delivered to
// its named participants (participants must be idempotent — delivery is
// at-least-once). Participants that were prepared but have no decision
// record are presumed aborted; they learn that via ReplayCompletion.
//
// A participant whose delivery fails keeps its decision live — no done
// marker is appended — so a later pass (or a restarted service) re-drives
// it; a participant that answers with a heuristic outcome is recorded
// durably and counts as resolved.
func (s *Service) Recover() (RecoveryStats, error) {
	var stats RecoveryStats
	if s.log == nil {
		return stats, nil
	}
	s.viewMu.Lock()
	v, err := s.loadViewLocked()
	if err != nil {
		s.viewMu.Unlock()
		return stats, err
	}
	type pending struct {
		tx    ids.UID
		names []string
	}
	var jobs []pending
	for tx, rec := range v.decisions {
		if v.done[tx] {
			continue
		}
		jobs = append(jobs, pending{tx: tx, names: append([]string(nil), rec.names...)})
	}
	s.viewMu.Unlock()

	for _, job := range jobs {
		stats.DecisionsReplayed++
		undone := false
		for _, name := range job.names {
			r, ok := s.dir.Lookup(name)
			if !ok {
				undone = true
				stats.ResourcesMissing++
				continue
			}
			carrier := &Transaction{svc: s, id: job.tx} // carrier for the retry policy
			err := carrier.deliverCommit(r)
			switch {
			case err == nil:
				stats.ResourcesCommitted++
				s.emit(Event{Tx: job.tx, Stage: StageCommitDelivered, Resource: name})
			case errors.Is(err, ErrHeuristicRollback):
				stats.ResourcesHeuristic++
				s.recordHeuristic(job.tx, name, StatusRolledBack)
			case errors.Is(err, ErrHeuristicCommit):
				stats.ResourcesCommitted++
				stats.ResourcesHeuristic++
				s.recordHeuristic(job.tx, name, StatusCommitted)
			default:
				undone = true
				stats.ResourcesFailed++
			}
		}
		if !undone {
			// Lazy, like logDone: a crash before the next sync only makes
			// the next pass re-drive this decision once more.
			if _, err := s.log.AppendLazy(RecordDone, encodeDone(job.tx)); err != nil {
				s.accumulate(stats)
				return stats, fmt.Errorf("ots: recovery done record: %w", err)
			}
			s.noteDone(job.tx)
			s.emit(Event{Tx: job.tx, Stage: StageDone})
		}
	}
	s.accumulate(stats)
	return stats, nil
}

// accumulate folds one pass's stats into the lifetime totals.
func (s *Service) accumulate(stats RecoveryStats) {
	s.totMu.Lock()
	s.totals.Passes++
	s.totals.DecisionsReplayed += uint64(stats.DecisionsReplayed)
	s.totals.ResourcesCommitted += uint64(stats.ResourcesCommitted)
	s.totals.ResourcesMissing += uint64(stats.ResourcesMissing)
	s.totals.ResourcesFailed += uint64(stats.ResourcesFailed)
	s.totMu.Unlock()
}

// RecoveryTotals reports the lifetime recovery counters plus gauges of the
// outstanding recovery state (decisions without a done marker, heuristic
// records not yet forgotten). Gauges read the shared log view; if the log
// cannot be scanned they are zero.
func (s *Service) RecoveryTotals() RecoveryTotals {
	s.totMu.Lock()
	t := s.totals
	s.totMu.Unlock()
	if s.log == nil {
		return t
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	v, err := s.loadViewLocked()
	if err != nil {
		return t
	}
	for tx := range v.decisions {
		if !v.done[tx] {
			t.PendingDecisions++
		}
	}
	for _, recs := range v.heuristics {
		t.PendingHeuristics += len(recs)
	}
	return t
}

// ReplayCompletion tells a prepared participant its transaction's outcome:
// StatusCommitted when a durable commit decision names it, otherwise
// StatusRolledBack (presumed abort).
//
// The answer stays consistent with the checkpointing rules: a name in a
// decision that already has a done marker still answers StatusCommitted —
// the record is durable until CheckpointLog compacts it away — and only
// after the checkpoint drops the pair does the name fall back to presumed
// abort (by then every named participant has acknowledged commit, so no
// correct participant is left to ask).
func (s *Service) ReplayCompletion(resourceName string) (Status, error) {
	if s.log == nil {
		return StatusRolledBack, nil
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	v, err := s.loadViewLocked()
	if err != nil {
		return StatusRolledBack, err
	}
	for _, rec := range v.decisions {
		for _, n := range rec.names {
			if n == resourceName {
				return StatusCommitted, nil
			}
		}
	}
	return StatusRolledBack, nil
}

// InDoubtResources returns, sorted and deduplicated, the recovery names
// appearing in commit decisions that have no done marker — the
// participants a restarted coordinator must re-bind (for remote
// participants, via BindRemoteResources) before calling Recover.
func (s *Service) InDoubtResources() ([]string, error) {
	if s.log == nil {
		return nil, nil
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	v, err := s.loadViewLocked()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	for tx, rec := range v.decisions {
		if v.done[tx] {
			continue
		}
		for _, n := range rec.names {
			if n != "" && !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// Heuristics returns the recorded heuristic outcomes that have not been
// forgotten, ordered by transaction then resource name. They survive
// restart: the records live in the decision log until ForgetHeuristics
// acknowledges them and a checkpoint compacts them away.
func (s *Service) Heuristics() ([]HeuristicRecord, error) {
	if s.log == nil {
		return nil, nil
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	v, err := s.loadViewLocked()
	if err != nil {
		return nil, err
	}
	var out []HeuristicRecord
	for _, recs := range v.heuristics {
		out = append(out, recs...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tx != out[j].Tx {
			return out[i].Tx.String() < out[j].Tx.String()
		}
		return out[i].Resource < out[j].Resource
	})
	return out, nil
}

// ForgetHeuristics acknowledges a transaction's recorded heuristic
// outcomes: a durable forget marker stops them being reported (and lets
// the next checkpoint drop them), and participants still bound in the
// directory receive Forget so they may discard their own heuristic state.
// Calling it for a transaction with no recorded heuristics is a no-op.
func (s *Service) ForgetHeuristics(tx ids.UID) error {
	if s.log == nil {
		return nil
	}
	s.viewMu.Lock()
	v, err := s.loadViewLocked()
	if err != nil {
		s.viewMu.Unlock()
		return err
	}
	recs := v.heuristics[tx]
	if len(recs) == 0 {
		s.viewMu.Unlock()
		return nil
	}
	if _, err := s.log.Append(RecordHeuristicForget, encodeDone(tx)); err != nil {
		s.viewMu.Unlock()
		return fmt.Errorf("ots: heuristic forget record: %w", err)
	}
	delete(v.heuristics, tx)
	s.viewMu.Unlock()

	for _, rec := range recs {
		if r, ok := s.dir.Lookup(rec.Resource); ok {
			_ = r.Forget()
		}
	}
	return nil
}

// CheckpointLog compacts the decision log: decision/done pairs whose done
// marker is present are dropped, as are heuristic records that have been
// forgotten (and the forget markers themselves, once applied). Records
// owned by other subsystems sharing the log are kept.
func (s *Service) CheckpointLog() error {
	if s.log == nil {
		return nil
	}
	s.viewMu.Lock()
	defer s.viewMu.Unlock()
	v, err := s.loadViewLocked()
	if err != nil {
		return err
	}
	err = s.log.Checkpoint(func(r wal.Record) bool {
		switch r.Kind {
		case RecordDecision:
			rec, err := decodeDecision(r.Data)
			if err != nil {
				return false
			}
			return !v.done[rec.tx]
		case RecordDone:
			tx, err := decodeDone(r.Data)
			if err != nil {
				return false
			}
			// A done marker is only needed while its decision remains.
			return !v.done[tx]
		case RecordHeuristic:
			rec, err := decodeHeuristic(r.Data)
			if err != nil {
				return false
			}
			return len(v.heuristics[rec.Tx]) > 0
		case RecordHeuristicForget:
			// Applied during the scan; its targets are dropped with it.
			return false
		default:
			// Records owned by other subsystems sharing the log are kept.
			return true
		}
	})
	// The compacted log is the new truth; rebuild the view on next use.
	s.view = nil
	return err
}
