package orb

import (
	"errors"
	"fmt"
)

// ExceptionCode identifies a system exception category, mirroring the CORBA
// system exception minor set the Activity Service cares about.
type ExceptionCode string

// System exception codes.
const (
	// CodeObjectNotExist: the object key has no servant.
	CodeObjectNotExist ExceptionCode = "OBJECT_NOT_EXIST"
	// CodeBadOperation: the servant does not implement the operation.
	CodeBadOperation ExceptionCode = "BAD_OPERATION"
	// CodeCommFailure: the transport failed mid-call; completion unknown.
	CodeCommFailure ExceptionCode = "COMM_FAILURE"
	// CodeTransient: the request never reached the servant; safe to retry.
	CodeTransient ExceptionCode = "TRANSIENT"
	// CodeMarshal: the request or reply body could not be decoded.
	CodeMarshal ExceptionCode = "MARSHAL"
	// CodeNoImplement: no transport can reach the IOR.
	CodeNoImplement ExceptionCode = "NO_IMPLEMENT"
	// CodeTimeout: the invocation deadline passed.
	CodeTimeout ExceptionCode = "TIMEOUT"
	// CodeWrongShard: the target replica does not own the routed key
	// under its current shard map. The detail carries the replica's map
	// epoch ("epoch=N ..."), so a stale client can refresh its map and
	// retry against the real owner. Like OBJECT_NOT_EXIST it asserts the
	// operation did not run, but it is deliberately NOT TRANSIENT: the
	// profile selector must not blindly fail the call over to the next
	// endpoint of the same (wrong) member — the cure is a map refresh,
	// which the shard router layers above the selector.
	CodeWrongShard ExceptionCode = "WRONG_SHARD"
	// CodeFenced: the target is a deposed coordinator-group member (or
	// the caller's claim/append carries a stale term). The detail leads
	// with the group's current term and, when known, the leader's member
	// id ("term=N leader=<id> ..."). Like WRONG_SHARD it asserts the
	// operation did not run and is deliberately NOT TRANSIENT: blind
	// failover to the next profile of the same deposed member cannot
	// help, so the exception surfaces to the caller after one attempt.
	CodeFenced ExceptionCode = "FENCED"
	// codeApplication marks a user (servant-raised) error on the wire; it
	// is unwrapped back to a plain error on the client side.
	codeApplication ExceptionCode = "APPLICATION"
)

// SystemError is a CORBA-style system exception.
type SystemError struct {
	// Code classifies the failure (TRANSIENT, COMM_FAILURE, ...).
	Code ExceptionCode
	// Detail is the human-readable cause.
	Detail string
}

// Error implements error.
func (e *SystemError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("orb: %s", e.Code)
	}
	return fmt.Sprintf("orb: %s: %s", e.Code, e.Detail)
}

// Is matches two SystemErrors by code, enabling
// errors.Is(err, &SystemError{Code: CodeTransient}).
func (e *SystemError) Is(target error) bool {
	var se *SystemError
	if !errors.As(target, &se) {
		return false
	}
	return se.Code == e.Code
}

// Systemf builds a SystemError with a formatted detail.
func Systemf(code ExceptionCode, format string, args ...any) *SystemError {
	return &SystemError{Code: code, Detail: fmt.Sprintf(format, args...)}
}

// IsSystem reports whether err is a SystemError with the given code.
func IsSystem(err error, code ExceptionCode) bool {
	var se *SystemError
	return errors.As(err, &se) && se.Code == code
}
