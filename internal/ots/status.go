package ots

import "fmt"

// Status is the state of a transaction, following the CosTransactions
// status vocabulary.
type Status int

// StatusUnknown is the zero Status: the outcome could not be determined
// (for example, a recovery query that failed in transit, or a commit whose
// decision failed on a fenced log or gate and is left to the next leader).
const StatusUnknown Status = 0

// Transaction statuses.
const (
	// StatusActive means the transaction accepts work and registrations.
	StatusActive Status = iota + 1
	// StatusMarkedRollback means the transaction is active but can only
	// roll back (rollback_only was called or the timeout fired).
	StatusMarkedRollback
	// StatusPreparing means phase one of 2PC is running.
	StatusPreparing
	// StatusPrepared means every participant voted and the decision has not
	// yet been taken.
	StatusPrepared
	// StatusCommitting means phase two is delivering commit to participants.
	StatusCommitting
	// StatusCommitted is terminal: the transaction committed.
	StatusCommitted
	// StatusRollingBack means rollback is being delivered to participants.
	StatusRollingBack
	// StatusRolledBack is terminal: the transaction rolled back.
	StatusRolledBack
)

var statusNames = map[Status]string{
	StatusUnknown:        "unknown",
	StatusActive:         "active",
	StatusMarkedRollback: "marked-rollback",
	StatusPreparing:      "preparing",
	StatusPrepared:       "prepared",
	StatusCommitting:     "committing",
	StatusCommitted:      "committed",
	StatusRollingBack:    "rolling-back",
	StatusRolledBack:     "rolled-back",
}

// String returns the lower-case CosTransactions-style name.
func (s Status) String() string {
	if n, ok := statusNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Terminal reports whether the status is an end state.
func (s Status) Terminal() bool {
	return s == StatusCommitted || s == StatusRolledBack
}

// Vote is a participant's phase-one answer.
type Vote int

// Phase-one votes.
const (
	// VoteCommit means the participant is prepared and will commit or roll
	// back as instructed.
	VoteCommit Vote = iota + 1
	// VoteRollback vetoes the transaction.
	VoteRollback
	// VoteReadOnly means the participant did no undoable work and needs no
	// phase two.
	VoteReadOnly
)

// String returns "commit", "rollback" or "read-only".
func (v Vote) String() string {
	switch v {
	case VoteCommit:
		return "commit"
	case VoteRollback:
		return "rollback"
	case VoteReadOnly:
		return "read-only"
	default:
		return fmt.Sprintf("Vote(%d)", int(v))
	}
}
