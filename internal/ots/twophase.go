package ots

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/wal"
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
// A transaction enrols a participant whose resource is a
// core.EndpointBatcher (a remote resource proxy) as a batchingAction, so a
// same-host run of participants takes each round in one call, each reply
// classified here (Skip, Answer) as a direct call's is. Any other
// participant is enrolled as itself, no batcher, and costs a broadcast no
// more than a plain Action.
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

var (
	_ core.Action          = (*ResourceAction)(nil)
	_ core.EndpointBatcher = (*batchingAction)(nil)
)

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
			return prepareFailed(err), nil
		}
		return a.vote(vote), nil
	case SignalCommit:
		if out, ok := a.Skip(SignalCommit); ok {
			return out, nil
		}
		return a.settle(sig.Name, a.resource.Commit())
	case SignalRollback:
		if out, ok := a.Skip(SignalRollback); ok {
			return out, nil
		}
		return a.settle(sig.Name, a.resource.Rollback())
	default:
		return core.Outcome{}, fmt.Errorf("ots: unexpected signal %q", sig.Name)
	}
}

// Answer classifies the participant's reply to signal sig, which a batch
// gave, as ProcessSignal classifies a direct call's: prepare's vote, and
// the operation's error.
func (a *ResourceAction) Answer(sig string, vote Vote, err error) (core.Outcome, error) {
	switch {
	case sig != SignalPrepare:
		return a.settle(sig, err)
	case err != nil:
		return prepareFailed(err), nil
	}
	return a.vote(vote), nil
}

// prepareFailed is the reply to a Prepare that failed: an abort carrying
// the error, which leaves the participant unvoted.
func prepareFailed(err error) core.Outcome {
	return core.Outcome{Name: OutcomeAbort, Data: err.Error()}
}

// Resource returns the participant's resource.
func (a *ResourceAction) Resource() Resource { return a.resource }

// vote records the participant's vote and classifies it.
func (a *ResourceAction) vote(vote Vote) core.Outcome {
	a.voted = vote
	switch vote {
	case VoteReadOnly:
		return core.Outcome{Name: OutcomeReadOnly}
	case VoteCommit:
		return core.Outcome{Name: OutcomeDone}
	default:
		// A vetoing resource has already rolled itself back.
		return core.Outcome{Name: OutcomeAbort}
	}
}

// Skip answers phase-two signal sig when the participant needs no call:
// commit when it did not vote commit, rollback when it voted rollback or
// read-only and so has nothing to undo.
func (a *ResourceAction) Skip(sig string) (core.Outcome, bool) {
	switch {
	case sig == SignalCommit && a.voted != VoteCommit:
		return core.Outcome{Name: OutcomeReadOnly}, true
	case sig == SignalRollback && (a.voted == VoteRollback || a.voted == VoteReadOnly):
		return core.Outcome{Name: OutcomeDone}, true
	}
	return core.Outcome{}, false
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

// batchingAction is a ResourceAction over a resource that is a
// core.EndpointBatcher, made one itself: the resource names the endpoint
// and delivers the run, whose members are batchingActions too.
type batchingAction ResourceAction

// ProcessSignal implements core.Action, as the ResourceAction does.
func (b *batchingAction) ProcessSignal(ctx context.Context, sig core.Signal) (core.Outcome, error) {
	return (*ResourceAction)(b).ProcessSignal(ctx, sig)
}

// BatchEndpoint implements core.EndpointBatcher.
func (b *batchingAction) BatchEndpoint() string {
	return b.resource.(core.EndpointBatcher).BatchEndpoint()
}

// DeliverBatch implements core.EndpointBatcher.
func (b *batchingAction) DeliverBatch(ctx context.Context, sig core.Signal, run []core.Action, stop string, retry core.RetryPolicy) ([]core.SubtreeResult, error) {
	return b.resource.(core.EndpointBatcher).DeliverBatch(ctx, sig, run, stop, retry)
}

// Participant returns the ResourceAction a transaction enrolled as member
// of a batched run, and false when member is not one.
func Participant(member core.Action) (*ResourceAction, bool) {
	b, ok := member.(*batchingAction)
	return (*ResourceAction)(b), ok
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
// the decision, and returns rollback instead if that fails, or ends the
// set with no phase two if it failed with wal.ErrFenced (inDoubt).
func (s *commitSet) GetSignal() (core.Signal, bool, error) {
	sig, last, err := s.SequenceSet.GetSignal()
	if err == nil && sig.Name == SignalCommit {
		if s.err = s.decide(); s.inDoubt() {
			return core.Signal{}, false, core.ErrExhausted
		} else if s.err != nil {
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

// inDoubt reports whether the decision failed on a fenced log or gate:
// this coordinator was deposed, or its log faulted after shipping the
// decision, so a follower may hold the decision durably and commit it
// once it leads. Neither phase two is safe to deliver from here; the
// group's next leader resolves the transaction (recovery commits a
// decision it holds, and presumes abort otherwise).
func (s *commitSet) inDoubt() bool {
	return errors.Is(s.err, wal.ErrFenced)
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
// the service's broadcast: Success votes and decides, Fail rolls straight
// back.
func (t *Transaction) drive(rs []ResourceAction, cs core.CompletionStatus) *commitSet {
	set := &commitSet{t: t, rs: rs}
	InitSignalSet(&set.SequenceSet)
	for i := range rs {
		rs[i].tx = t
	}
	t.svc.broadcast(set, rs, cs)
	return set
}

// broadcast enrols rs with a fresh activity of the service's core, in
// order, and completes it with cs, set its completion set. Delivery is
// serial, retried by the service's RetryPolicy, so a same-host run of
// remote participants takes each round in one call.
func (s *Service) broadcast(set core.SignalSet, rs []ResourceAction, cs core.CompletionStatus) {
	var buf [8]core.Action
	run := slices.Grow(buf[:0], len(rs))
	for i := range rs {
		var m core.Action = &rs[i]
		if _, ok := rs[i].resource.(core.EndpointBatcher); ok {
			m = (*batchingAction)(&rs[i])
		}
		run = append(run, m)
	}
	a := s.core.Begin(SetName)
	// None of these can fail: the activity is fresh, nothing else holds it,
	// and the set's GetSignal and SetResponse never err.
	_ = a.RegisterSignalSet(set)
	_ = a.AddActions(SetName, run...)
	a.SetCompletionSet(SetName)
	_, _ = a.CompleteWithStatus(context.TODO(), cs)
}

// commitTwoPhase commits over two or more participants. Each phase-two
// reply is delivered, heuristic (a definitive, recorded divergence) or
// failed (outcome unknown). Only a failed delivery keeps the decision
// live: the participant is still prepared and Recover must re-drive it, so
// the done record is appended only when none failed, and no participant is
// told to Forget.
func (t *Transaction) commitTwoPhase(rs []ResourceAction, reportHeuristics bool) error {
	set := t.drive(rs, core.CompletionSuccess)
	if set.inDoubt() {
		t.setStatus(StatusUnknown)
		return fmt.Errorf("ots: outcome unknown, left to the group's next leader: %w", set.err)
	}
	if set.Failed() || set.err != nil {
		t.setStatus(StatusRolledBack)
		switch {
		case set.cause != "":
			return fmt.Errorf("%w: prepare failed: %s", ErrRolledBack, set.cause)
		case set.err == nil:
			return fmt.Errorf("%w: participant voted rollback", ErrRolledBack)
		}
		// Both wrapped: callers unwind on ErrRolledBack, and a decision-gate
		// veto keeps its cause inspectable.
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
