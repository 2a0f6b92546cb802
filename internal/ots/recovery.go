package ots

import (
	"fmt"
	"sort"

	"github.com/extendedtx/activityservice/internal/core"
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
// every recovery entry point reads. It is a fold of the log's records, one
// mutator per record kind: a scan (loadViewLocked) applies each record it
// reads, and each writer applies the record it just wrote, so a cached
// view answers as a fresh scan of the same log would. It is built lazily
// and dropped on checkpoint, so a recovery pass — however many Recover,
// ReplayCompletion and Heuristics calls it makes — costs a single scan.
type logView struct {
	decisions  map[ids.UID]decisionRecord
	finished   map[ids.UID]bool
	heuristics map[ids.UID][]HeuristicRecord
}

// decision folds a RecordDecision.
func (v *logView) decision(rec decisionRecord) { v.decisions[rec.tx] = rec }

// done folds a RecordDone.
func (v *logView) done(tx ids.UID) { v.finished[tx] = true }

// void folds a RecordVoid: the vetoed decision never happened.
func (v *logView) void(tx ids.UID) { delete(v.decisions, tx) }

// heuristic folds a RecordHeuristic, keeping one per (transaction,
// resource).
func (v *logView) heuristic(rec HeuristicRecord) {
	if !v.hasHeuristic(rec.Tx, rec.Resource) {
		v.heuristics[rec.Tx] = append(v.heuristics[rec.Tx], rec)
	}
}

// forget folds a RecordHeuristicForget.
func (v *logView) forget(tx ids.UID) { delete(v.heuristics, tx) }

func (v *logView) hasHeuristic(tx ids.UID, resource string) bool {
	for _, r := range v.heuristics[tx] {
		if r.Resource == resource {
			return true
		}
	}
	return false
}

// pending reports whether tx has a live decision: one without a done
// marker, which recovery must still deliver.
func (v *logView) pending(tx ids.UID) bool {
	_, ok := v.decisions[tx]
	return ok && !v.finished[tx]
}

// apply decodes r and folds it; records owned by other subsystems sharing
// the log are ignored. A record that fails to decode fails the whole scan,
// so the partial value it folds is never read.
func (v *logView) apply(r wal.Record) error {
	switch r.Kind {
	case RecordDecision:
		rec, err := decodeDecision(r.Data)
		v.decision(rec)
		return err
	case RecordHeuristic:
		rec, err := decodeHeuristic(r.Data)
		v.heuristic(rec)
		return err
	}
	tx, err := decodeTx(r.Data)
	switch r.Kind {
	case RecordDone:
		v.done(tx)
	case RecordHeuristicForget:
		v.forget(tx)
	case RecordVoid:
		v.void(tx)
	default:
		return nil
	}
	return err
}

// loadViewLocked returns the cached view, scanning the log to build it if
// needed. The caller must hold s.viewMu. It fails with wal.ErrFenced once
// the log knows a term later than the one the service was made in: a
// deposed member's view may predate the new leader's decisions, so it
// must not answer for them. The next leader's takeover hosts a fresh
// service.
func (s *Service) loadViewLocked() (*logView, error) {
	if known := s.log.KnownTerm(); known > s.term {
		return nil, fmt.Errorf("ots: service of term %d, log knows term %d: %w", s.term, known, wal.ErrFenced)
	}
	if s.view != nil {
		return s.view, nil
	}
	v := &logView{
		decisions:  make(map[ids.UID]decisionRecord),
		finished:   make(map[ids.UID]bool),
		heuristics: make(map[ids.UID][]HeuristicRecord),
	}
	if err := s.log.Replay(v.apply); err != nil {
		return nil, fmt.Errorf("ots: scan log: %w", err)
	}
	s.view = v
	return v, nil
}

// fold applies a record the service just wrote to the cached view, if one
// is built.
func (s *Service) fold(apply func(*logView)) {
	s.viewMu.Lock()
	if s.view != nil {
		apply(s.view)
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
	var jobs []decisionRecord
	for tx, rec := range v.decisions {
		if v.pending(tx) {
			jobs = append(jobs, rec)
		}
	}
	s.viewMu.Unlock()

	for _, job := range jobs {
		stats.DecisionsReplayed++
		tx := &Transaction{svc: s, id: job.tx}
		rs := make([]ResourceAction, 0, len(job.names))
		for _, name := range job.names {
			if r, ok := s.dir.Lookup(name); ok {
				rs = append(rs, ResourceAction{resource: r, name: name, voted: VoteCommit, tx: tx})
			}
		}
		p := s.redeliver(rs)
		missing := len(job.names) - len(rs)
		stats.ResourcesMissing += missing
		stats.ResourcesCommitted += p.committed
		stats.ResourcesHeuristic += p.heuristic
		stats.ResourcesFailed += p.failed
		if missing == 0 && p.failed == 0 {
			if err := s.logDone(job.tx); err != nil {
				s.accumulate(stats)
				return stats, fmt.Errorf("ots: recovery done record: %w", err)
			}
		}
	}
	s.accumulate(stats)
	return stats, nil
}

// redeliver re-drives commit to rs as a live commit's phase two drives it,
// through the service's broadcast of a one-signal 2PCSignalSet, and
// tallies the replies.
func (s *Service) redeliver(rs []ResourceAction) phaseTwo {
	set := &redriveSet{}
	set.BaseSet = core.NewBaseSet(SetName)
	set.Signals(core.Signal{Name: SignalCommit}).Outcomes(ResultCommitted, ResultRolledBack)
	s.broadcast(set, rs, core.CompletionSuccess)
	return set.replies
}

// redriveSet is recovery's 2PCSignalSet: commit alone, its replies
// tallied.
type redriveSet struct {
	core.SequenceSet
	replies phaseTwo
}

// SetResponse implements core.SignalSet.
func (s *redriveSet) SetResponse(resp core.Outcome, deliveryErr error) (bool, error) {
	s.replies.add(resp, deliveryErr)
	return s.SequenceSet.SetResponse(resp, deliveryErr)
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
// cannot be scanned, or the service no longer answers for the log's term,
// they are zero.
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
		if v.pending(tx) {
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
		if !v.pending(tx) {
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
	if _, err := s.log.Append(RecordHeuristicForget, encodeTx(tx)); err != nil {
		s.viewMu.Unlock()
		return fmt.Errorf("ots: heuristic forget record: %w", err)
	}
	v.forget(tx)
	s.viewMu.Unlock()

	for _, rec := range recs {
		if r, ok := s.dir.Lookup(rec.Resource); ok {
			_ = r.Forget()
		}
	}
	return nil
}

// CheckpointLog compacts the decision log: decision/done pairs whose done
// marker is present are dropped, as are vetoed decisions with their void
// markers and heuristic records that have been forgotten (with the forget
// markers). A transaction that recorded heuristics after a forget keeps
// all of its heuristic and forget records, so the compacted log folds to
// the same heuristics. Records owned by other subsystems sharing the log
// are kept.
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
		if r.Kind < RecordDecision || r.Kind > RecordVoid {
			return true // owned by another subsystem sharing the log
		}
		tx, err := decodeTx(r.Data)
		if err != nil {
			return false
		}
		switch r.Kind {
		case RecordDecision:
			return v.pending(tx)
		case RecordHeuristic, RecordHeuristicForget:
			return len(v.heuristics[tx]) > 0
		default: // done and void: their decision goes with them
			return false
		}
	})
	// The compacted log is the new truth; rebuild the view on next use.
	s.view = nil
	return err
}
