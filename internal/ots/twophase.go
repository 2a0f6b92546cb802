package ots

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/extendedtx/activityservice/internal/core"
)

// The 2PCSignalSet of fig. 8: its name, its signals, the outcomes a
// ResourceAction answers with ("done" is fig. 8's acknowledgement, a
// heuristic outcome a participant's unilateral resolution) and the
// collated results.
const (
	SetName        = "2pc"
	SignalPrepare  = "prepare"
	SignalCommit   = "commit"
	SignalRollback = "rollback"

	OutcomeDone              = "done"
	OutcomeReadOnly          = "read-only"
	OutcomeAbort             = "abort"
	OutcomeHeuristicCommit   = "heuristic-commit"
	OutcomeHeuristicRollback = "heuristic-rollback"

	ResultCommitted  = "committed"
	ResultRolledBack = "rolled-back"
)

// The 2PCSignalSet's sequences, shared by every transaction: "prepare"
// then "commit", or "rollback" after an "abort" vote (or a delivery
// failure during voting). An activity completing in a failure status skips
// the vote and rolls straight back.
var (
	voteThenCommit = []core.Signal{{Name: SignalPrepare}, {Name: SignalCommit}}
	rollBack       = []core.Signal{{Name: SignalRollback}}
)

// InitSignalSet makes s, a zero SequenceSet, a fresh 2PCSignalSet (sets
// are single-use, per fig. 7) and returns it. It is the one declaration of
// the protocol: hls/twopc registers it as is, and a top-level commit here
// wraps it in a commitSet.
func InitSignalSet(s *core.SequenceSet) *core.SequenceSet {
	s.BaseSet = core.NewBaseSet(SetName)
	return s.Signals(voteThenCommit...).
		OnFailure(rollBack...).
		Veto(OutcomeAbort).
		Outcomes(ResultCommitted, ResultRolledBack)
}

// ResourceAction adapts a Resource to the Action protocol, and is the one
// place a participant's replies are classified. A failed Prepare is an
// abort that leaves the participant unvoted, so rollback still reaches it
// (a lost reply may hide a prepare that took effect). A heuristic phase-two
// reply is the participant's final answer: an outcome, which no RetryPolicy
// retries, recorded against the transaction. Any other phase-two error is a
// delivery error, which the coordinator's RetryPolicy retries.
//
// It takes no lock: it relies on its caller to deliver one signal at a
// time, with each delivery ordered before the next. A coordinator does so
// in-process (serial rounds run in sequence; a concurrent round's workers
// finish before the next round starts), and internal/remote's action
// servant does so for every delivery that crosses the wire, so a
// redelivery never overlaps an earlier one.
type ResourceAction struct {
	resource Resource
	name     string       // the recovery name; empty when not recoverable
	voted    Vote         // zero until Prepare answers: rollback then reaches the resource
	tx       *Transaction // gets the replies' events and heuristic records; nil for none
}

var _ core.Action = (*ResourceAction)(nil)

// NewResourceAction wraps r.
func NewResourceAction(r Resource) *ResourceAction {
	return &ResourceAction{resource: r}
}

// ProcessSignal implements core.Action.
func (a *ResourceAction) ProcessSignal(_ context.Context, sig core.Signal) (core.Outcome, error) {
	switch sig.Name {
	case SignalPrepare:
		vote, err := a.resource.Prepare()
		if err != nil {
			return core.Outcome{Name: OutcomeAbort, Data: err.Error()}, nil
		}
		a.voted = vote
		switch vote {
		case VoteReadOnly:
			return core.Outcome{Name: OutcomeReadOnly}, nil
		case VoteCommit:
			return core.Outcome{Name: OutcomeDone}, nil
		default:
			// A vetoing resource has already rolled itself back.
			return core.Outcome{Name: OutcomeAbort}, nil
		}
	case SignalCommit:
		if a.voted != VoteCommit {
			return core.Outcome{Name: OutcomeReadOnly}, nil // no phase two
		}
		return a.settle(sig.Name, a.resource.Commit())
	case SignalRollback:
		if a.voted == VoteRollback || a.voted == VoteReadOnly {
			return core.Outcome{Name: OutcomeDone}, nil // nothing to undo
		}
		return a.settle(sig.Name, a.resource.Rollback())
	default:
		return core.Outcome{}, fmt.Errorf("ots: unexpected signal %q", sig.Name)
	}
}

// settle classifies err, the participant's reply to phase-two signal sig.
func (a *ResourceAction) settle(sig string, err error) (core.Outcome, error) {
	var out Status
	switch {
	case err == nil:
		if a.tx != nil && sig == SignalCommit {
			a.tx.svc.emit(Event{Tx: a.tx.id, Stage: StageCommitDelivered, Resource: a.name})
		}
		return core.Outcome{Name: OutcomeDone}, nil
	case errors.Is(err, ErrHeuristicCommit):
		out = StatusCommitted
	case errors.Is(err, ErrHeuristicRollback):
		out = StatusRolledBack
	default:
		return core.Outcome{}, fmt.Errorf("ots: %s: %w", sig, err)
	}
	if a.tx != nil {
		a.tx.svc.recordHeuristic(a.tx.id, a.name, out)
	}
	if out == StatusCommitted {
		return core.Outcome{Name: OutcomeHeuristicCommit}, nil
	}
	return core.Outcome{Name: OutcomeHeuristicRollback}, nil
}

// phaseTwo tallies commit replies as ResourceAction classifies them:
// committed (delivered, or heuristically committed), damaged (heuristically
// rolled back), heuristic (either kind) and failed (every attempt failed:
// the outcome is unknown, and the decision stays live for recovery).
type phaseTwo struct{ committed, damaged, heuristic, failed int }

func (p *phaseTwo) add(out core.Outcome, err error) {
	switch {
	case err != nil:
		p.failed++
	case out.Name == OutcomeDone:
		p.committed++
	case out.Name == OutcomeHeuristicCommit:
		p.committed++
		p.heuristic++
	case out.Name == OutcomeHeuristicRollback:
		p.damaged++
		p.heuristic++
	}
}

// commitSet is the 2PCSignalSet of one top-level commit, with the commit
// decision inside it, where fig. 8 puts the protocol: the GetSignal that
// turns from prepare to commit takes it.
type commitSet struct {
	core.SequenceSet
	t  *Transaction
	rs []ResourceAction // the participants, in registration order

	prepared   int    // participants that voted commit
	cause      string // the error of the first Prepare that failed, if one did
	err        error  // why the decision failed; the set then rolls back
	committing bool   // the commit broadcast is under way
	replies    phaseTwo
}

// GetSignal implements core.SignalSet, setting the transaction's status
// for the broadcast it returns. Turning from prepare to commit, it takes
// the decision, and returns rollback instead if that fails.
func (s *commitSet) GetSignal() (core.Signal, bool, error) {
	sig, last, err := s.SequenceSet.GetSignal()
	if err == nil && sig.Name == SignalCommit {
		if s.err = s.decide(); s.err != nil {
			sig = core.Signal{Name: SignalRollback, SetName: SetName}
		}
	}
	switch sig.Name {
	case SignalCommit:
		s.committing = true
		s.t.setStatus(StatusCommitting)
	case SignalRollback:
		s.t.setStatus(StatusRollingBack)
	}
	return sig, last, err
}

// decide takes the commit decision: with no participant voting commit
// (all read-only) there is nothing to decide; otherwise the transaction is
// prepared, and the decision record naming the commit voters must be
// durable and pass the decision gate before phase two starts (presumed
// abort — without the record, recovery rolls back).
func (s *commitSet) decide() error {
	for i := range s.rs {
		if s.rs[i].voted == VoteCommit {
			s.prepared++
		}
	}
	if s.prepared == 0 {
		return nil
	}
	t := s.t
	t.setStatus(StatusPrepared)
	t.svc.emit(Event{Tx: t.id, Stage: StagePrepared})
	if err := t.logDecision(s.rs); err != nil {
		return err
	}
	t.svc.emit(Event{Tx: t.id, Stage: StageDecisionLogged})
	return nil
}

// SetResponse implements core.SignalSet, keeping the first failed
// Prepare's error and tallying the commit replies.
func (s *commitSet) SetResponse(resp core.Outcome, deliveryErr error) (bool, error) {
	switch why, _ := resp.Data.(string); {
	case s.committing:
		s.replies.add(resp, deliveryErr)
	case why != "" && s.cause == "":
		s.cause = why
	}
	return s.SequenceSet.SetResponse(resp, deliveryErr)
}

// GetOutcome implements core.SignalSet: a failed decision rolled back.
func (s *commitSet) GetOutcome() (core.Outcome, error) {
	if s.err != nil {
		return core.Outcome{Name: ResultRolledBack}, nil
	}
	return s.SequenceSet.GetOutcome()
}

// drive runs a commitSet over rs, the transaction's participants, through
// a fresh activity of the service's core, completed with cs: Success votes
// and decides, Fail rolls straight back. Delivery is serial, retried by the
// service's RetryPolicy.
func (t *Transaction) drive(rs []ResourceAction, cs core.CompletionStatus) *commitSet {
	set := &commitSet{t: t, rs: rs}
	InitSignalSet(&set.SequenceSet)
	var buf [8]core.Action
	run := slices.Grow(buf[:0], len(rs))
	for i := range rs {
		rs[i].tx = t
		run = append(run, &rs[i])
	}
	a := t.svc.core.Begin(SetName)
	// None of these can fail: the activity is fresh, nothing else holds it,
	// and the set's GetSignal and SetResponse never err.
	_ = a.RegisterSignalSet(set)
	_ = a.AddActions(SetName, run...)
	a.SetCompletionSet(SetName)
	_, _ = a.CompleteWithStatus(context.TODO(), cs)
	return set
}

// commitTwoPhase commits over two or more participants. Each phase-two
// reply is delivered, heuristic (a definitive, recorded divergence) or
// failed (outcome unknown). Only a failed delivery keeps the decision
// live: the participant is still prepared and Recover must re-drive it, so
// the done record is appended only when none failed, and no participant is
// told to Forget.
func (t *Transaction) commitTwoPhase(rs []ResourceAction, reportHeuristics bool) error {
	set := t.drive(rs, core.CompletionSuccess)
	if set.Failed() || set.err != nil {
		t.setStatus(StatusRolledBack)
		switch {
		case set.cause != "":
			return fmt.Errorf("%w: prepare failed: %s", ErrRolledBack, set.cause)
		case set.err == nil:
			return fmt.Errorf("%w: participant voted rollback", ErrRolledBack)
		}
		// Both wrapped: callers unwind on ErrRolledBack, and a decision-gate
		// veto keeps its cause inspectable (a deposed coordinator's FENCED
		// system exception carries the leader hint clients redirect on).
		return fmt.Errorf("%w: decision log: %w", ErrRolledBack, set.err)
	}
	t.setStatus(StatusCommitted)
	p := set.replies
	if set.prepared > 0 && p.failed == 0 {
		// Best-effort: a lost done record costs one idempotent re-drive.
		_ = t.svc.logDone(t.id)
	}
	switch {
	case !reportHeuristics:
	case p.damaged > 0:
		return fmt.Errorf("%w: %d committed, %d heuristically rolled back, %d undelivered",
			ErrHeuristicMixed, p.committed, p.damaged, p.failed)
	case p.failed > 0 && p.committed > 0:
		return fmt.Errorf("%w: %d committed, %d failed", ErrHeuristicMixed, p.committed, p.failed)
	case p.failed > 0:
		return fmt.Errorf("%w: all %d phase-two deliveries failed", ErrHeuristicHazard, p.failed)
	}
	return nil
}
