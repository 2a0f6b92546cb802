package ots

import (
	"fmt"

	"github.com/extendedtx/activityservice/internal/ids"
)

// Stage identifies one boundary of the top-level commit protocol, in the
// order a committing transaction crosses them. The stages are exactly the
// crash boundaries the recovery machinery reasons about: a crash before
// StageDecisionLogged is presumed abort, a crash after it (and before the
// log's next sync covers the done record StageDone buffered) leaves a
// decision that Recover must re-drive.
type Stage int

// Commit protocol stages, in protocol order.
const (
	// StagePrepared fires when every participant has voted and none
	// vetoed — the transaction is prepared but the decision is not yet
	// durable. A crash here is resolved by presumed abort.
	StagePrepared Stage = iota + 1
	// StageDecisionLogged fires when the commit decision record is
	// durable. From here on the transaction commits, whatever happens.
	StageDecisionLogged
	// StageCommitDelivered fires once per participant whose phase-two
	// commit delivery succeeded; Event.Resource carries its recovery name.
	StageCommitDelivered
	// StageDone fires when the done record is appended, marking the
	// decision fully delivered and checkpointable. The record is lazy: it
	// is durable only once the log's next sync covers it.
	StageDone
)

// String returns the stage's lower-case name.
func (s Stage) String() string {
	switch s {
	case StagePrepared:
		return "prepared"
	case StageDecisionLogged:
		return "decision-logged"
	case StageCommitDelivered:
		return "commit-delivered"
	case StageDone:
		return "done"
	default:
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Event is one observed commit-protocol step (see WithEventHook).
type Event struct {
	// Tx identifies the committing transaction.
	Tx ids.UID
	// Stage is the protocol boundary just crossed.
	Stage Stage
	// Resource is the participant's recovery name for per-resource stages
	// (StageCommitDelivered); empty otherwise.
	Resource string
}
