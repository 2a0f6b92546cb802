// Package remote bridges the Activity Service (internal/core) onto the ORB
// (internal/orb), letting extended transactions "span a network of systems
// connected indirectly by some distribution infrastructure" as the paper's
// abstract puts it.
//
// It provides: Action servants and proxies (a coordinator on one node
// signalling Actions on another), activity coordinator servants and proxies
// (remote registration and completion), and interceptors that propagate the
// activity context implicitly in a request's service context, mirroring how
// the CORBA Activity Service rides on the ORB's service-context mechanism.
//
// Every reference exported here (actions, coordinators, resources)
// inherits the ORB's multi-profile IORs: a host listening on several
// addresses hands out references that stay invocable — with transparent
// failover in the client ORB — while any one endpoint survives, which is
// what lets coordinated recovery keep converging while replicas move.
package remote

import (
	"context"
	"fmt"
	"sync"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
)

// Interface type ids.
const (
	// ActionTypeID is the interface id of exported Actions.
	ActionTypeID = "IDL:ActivityService/Action:1.0"
	// CoordinatorTypeID is the interface id of exported activity
	// coordinators.
	CoordinatorTypeID = "IDL:ActivityService/ActivityCoordinator:1.0"
)

// actionServant adapts a core.Action to the ORB. Every delivery to an
// exported Action goes through its servant — a direct process_signal, a
// keyed batch (relayServant.deliverKeyed) and a relay-tree member alike —
// and the servant delivers one signal at a time. Over the wire deliveries
// can overlap: a retry after a timeout, a failed endpoint batch
// redelivered member by member, or a re-adopted tree span can arrive while
// an earlier delivery still runs. The servant orders them, so an Action
// may keep per-delivery state without a lock of its own.
type actionServant struct {
	mu     sync.Mutex
	action core.Action
}

var _ core.Action = (*actionServant)(nil)

// ProcessSignal implements core.Action: it delivers sig to the exported
// Action once every earlier delivery through this servant has returned.
func (s *actionServant) ProcessSignal(ctx context.Context, sig core.Signal) (core.Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.action.ProcessSignal(ctx, sig)
}

// Dispatch implements orb.Servant.
func (s *actionServant) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	if op != "process_signal" {
		return nil, orb.Systemf(orb.CodeBadOperation, "Action has no operation %q", op)
	}
	sig, err := core.DecodeSignal(in)
	if err != nil {
		return nil, orb.Systemf(orb.CodeMarshal, "process_signal: %v", err)
	}
	out, err := s.ProcessSignal(ctx, sig)
	if err != nil {
		return nil, err // user errors surface as RemoteError at the caller
	}
	e := cdr.NewEncoder(64)
	if err := out.Encode(e); err != nil {
		return nil, orb.Systemf(orb.CodeMarshal, "encode outcome: %v", err)
	}
	return e.Bytes(), nil
}

// ExportAction activates action on o and returns its reference. The first
// export on o also installs o's relay servant (ServeRelay), so a serial
// broadcast can reach every action o hosts with one call per signal.
func ExportAction(o *orb.ORB, action core.Action) orb.IOR {
	installRelay(o)
	return o.RegisterServant(ActionTypeID, &actionServant{action: action})
}

// ExportActionWithKey activates action under a stable key (for recovery),
// installing o's relay servant like ExportAction.
func ExportActionWithKey(o *orb.ORB, key string, action core.Action) orb.IOR {
	installRelay(o)
	return o.RegisterServantWithKey(key, ActionTypeID, &actionServant{action: action})
}

// remoteAction is the client-side proxy: a core.Action whose ProcessSignal
// is a remote invocation.
type remoteAction struct {
	orb *orb.ORB
	ref orb.IOR
}

// ImportAction returns a core.Action proxy for the Action at ref.
func ImportAction(o *orb.ORB, ref orb.IOR) core.Action {
	return &remoteAction{orb: o, ref: ref}
}

// ProcessSignal implements core.Action.
func (r *remoteAction) ProcessSignal(ctx context.Context, sig Signal) (core.Outcome, error) {
	e := cdr.NewEncoder(64)
	if err := sig.Encode(e); err != nil {
		return core.Outcome{}, fmt.Errorf("remote: encode signal: %w", err)
	}
	body, err := r.orb.Invoke(ctx, r.ref, "process_signal", e.Bytes())
	if err != nil {
		return core.Outcome{}, processSignalError(r.ref.Key, err)
	}
	out, err := core.DecodeOutcome(cdr.NewDecoder(body))
	if err != nil {
		return core.Outcome{}, fmt.Errorf("remote: decode outcome: %w", err)
	}
	return out, nil
}

// processSignalError words a failed process_signal on the Action under key.
// A relay serving an endpoint batch words its members' failures with it
// too, so a batched delivery error reads as the direct call's would.
func processSignalError(key string, err error) error {
	return fmt.Errorf("remote: process_signal on %s: %w", key, err)
}

// Signal aliases core.Signal for the proxy signature.
type Signal = core.Signal
