package remote

import (
	"context"
	"fmt"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
)

// coordinatorServant exposes one activity's coordination surface:
// registering (remote) actions, broadcasting signal sets, and completion.
// It lives as long as its activity: once the activity has completed, the
// servant deactivates itself, so the ORB stops holding the activity and
// every later call on the reference raises OBJECT_NOT_EXIST.
type coordinatorServant struct {
	orb      *orb.ORB
	key      string
	activity *core.Activity
}

// ExportActivity activates a coordinator servant for a on o, returning the
// reference a remote party uses to join the activity. The servant retires
// when the activity completes.
func ExportActivity(o *orb.ORB, a *core.Activity) orb.IOR {
	s := &coordinatorServant{orb: o, key: "activity/" + a.ID().String(), activity: a}
	return o.RegisterServantWithKey(s.key, CoordinatorTypeID, s)
}

// Dispatch implements orb.Servant.
func (s *coordinatorServant) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	if s.activity.State() == core.ActivityCompleted {
		// Completed in-process, or by a complete this request raced: retire
		// now, and answer as the ORB would have — the call did not run.
		s.orb.Deactivate(s.key)
		return nil, orb.Systemf(orb.CodeObjectNotExist, "key %q: activity completed", s.key)
	}
	switch op {
	case "add_action":
		setName := in.ReadString()
		ref := orb.DecodeIOR(in)
		if err := in.Err(); err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "add_action: %v", err)
		}
		// The registered action is a proxy back to the caller's node.
		_, err := s.activity.AddNamedAction(setName, "remote:"+ref.Key, ImportAction(s.orb, ref))
		return nil, err
	case "signal":
		setName := in.ReadString()
		if err := in.Err(); err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "signal: %v", err)
		}
		out, err := s.activity.Signal(ctx, setName)
		if err != nil {
			return nil, err
		}
		return encodeOutcome(out)
	case "complete":
		status := core.CompletionStatus(in.ReadOctet())
		if err := in.Err(); err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "complete: %v", err)
		}
		if !status.Valid() {
			// Refused before the activity is touched: the servant stays,
			// so the caller can retry with a valid status.
			return nil, orb.Systemf(orb.CodeMarshal, "complete: %v", status)
		}
		out, err := s.activity.CompleteWithStatus(ctx, status)
		if s.activity.State() == core.ActivityCompleted {
			// Retired before the reply leaves, so nothing the caller sends
			// after it reaches this servant. A failed broadcast, or a FailOnly
			// activity refusing Success, still completes the activity; a
			// complete refused before the state changed (children active,
			// suspended) keeps the servant so the caller can retry.
			s.orb.Deactivate(s.key)
		}
		if err != nil {
			return nil, err
		}
		return encodeOutcome(out)
	case "status":
		e := cdr.NewEncoder(8)
		e.WriteOctet(byte(s.activity.State()))
		e.WriteOctet(byte(s.activity.CompletionStatus()))
		return e.Bytes(), nil
	default:
		return nil, orb.Systemf(orb.CodeBadOperation, "ActivityCoordinator has no operation %q", op)
	}
}

func encodeOutcome(out core.Outcome) ([]byte, error) {
	e := cdr.NewEncoder(64)
	if err := out.Encode(e); err != nil {
		return nil, orb.Systemf(orb.CodeMarshal, "encode outcome: %v", err)
	}
	return e.Bytes(), nil
}

// ActivityProxy is the client side of a remote activity coordinator.
type ActivityProxy struct {
	orb *orb.ORB
	ref orb.IOR
}

// NewActivityProxy returns a proxy for the coordinator at ref.
func NewActivityProxy(o *orb.ORB, ref orb.IOR) *ActivityProxy {
	return &ActivityProxy{orb: o, ref: ref}
}

// Ref returns the proxied reference.
func (p *ActivityProxy) Ref() orb.IOR { return p.ref }

// AddAction registers a local action with the remote activity: the action
// is exported on the local ORB and its reference enrolled remotely, so
// signals flow back across the wire — the enlistment pattern every
// distributed extended-transaction model needs.
func (p *ActivityProxy) AddAction(ctx context.Context, setName string, action core.Action) (orb.IOR, error) {
	ref := ExportAction(p.orb, action)
	e := cdr.NewEncoder(64)
	e.WriteString(setName)
	ref.Encode(e)
	if _, err := p.orb.Invoke(ctx, p.ref, "add_action", e.Bytes()); err != nil {
		return orb.IOR{}, fmt.Errorf("remote: add_action: %w", err)
	}
	return ref, nil
}

// Signal drives the named signal set on the remote activity.
func (p *ActivityProxy) Signal(ctx context.Context, setName string) (core.Outcome, error) {
	e := cdr.NewEncoder(32)
	e.WriteString(setName)
	body, err := p.orb.Invoke(ctx, p.ref, "signal", e.Bytes())
	if err != nil {
		return core.Outcome{}, fmt.Errorf("remote: signal %q: %w", setName, err)
	}
	return decodeOutcome(body)
}

// Complete completes the remote activity with the given status.
func (p *ActivityProxy) Complete(ctx context.Context, cs core.CompletionStatus) (core.Outcome, error) {
	e := cdr.NewEncoder(8)
	e.WriteOctet(byte(cs))
	body, err := p.orb.Invoke(ctx, p.ref, "complete", e.Bytes())
	if err != nil {
		return core.Outcome{}, fmt.Errorf("remote: complete: %w", err)
	}
	return decodeOutcome(body)
}

// Status reports the remote activity's lifecycle state and completion
// status while the activity runs. A completed activity's coordinator is
// retired, so Status on it fails with OBJECT_NOT_EXIST rather than
// reporting ActivityCompleted.
func (p *ActivityProxy) Status(ctx context.Context) (core.ActivityState, core.CompletionStatus, error) {
	body, err := p.orb.Invoke(ctx, p.ref, "status", nil)
	if err != nil {
		return 0, 0, fmt.Errorf("remote: status: %w", err)
	}
	d := cdr.NewDecoder(body)
	st := core.ActivityState(d.ReadOctet())
	cs := core.CompletionStatus(d.ReadOctet())
	if err := d.Err(); err != nil {
		return 0, 0, orb.Systemf(orb.CodeMarshal, "status reply: %v", err)
	}
	return st, cs, nil
}

// decodeOutcome reads a reply body as a core.Outcome. The result is an
// owned copy: outcome strings and any-data are copied off the stream.
func decodeOutcome(body []byte) (core.Outcome, error) {
	out, err := core.DecodeOutcome(cdr.NewDecoder(body))
	if err != nil {
		return core.Outcome{}, fmt.Errorf("remote: decode outcome: %w", err)
	}
	return out, nil
}
