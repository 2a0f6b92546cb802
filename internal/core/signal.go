// Package core implements the paper's primary contribution: the Activity
// Service framework — Activities, Signals, SignalSets, Actions,
// PropertyGroups and the activity coordinator that drives them.
//
// The framework is deliberately free of extended-transaction semantics:
// it only coordinates. Each extended transaction model (two-phase commit,
// open nested transactions with compensation, LRUOW, workflow, BTP — see
// the hls packages) is expressed as SignalSets declared on SequenceSet
// and Action implementations layered on top, exactly as §3.1 of the paper prescribes: "as new types of
// extended transaction models emerge, so will new signal set instances and
// associated actions", with the service "interacting with their interfaces
// in an entirely uniform and transparent way".
package core

import (
	"context"
	"fmt"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// Signal is activity-specific data transmitted to registered Actions,
// mirroring the paper's IDL:
//
//	struct Signal {
//	    string signal_name;
//	    string signal_set_name;
//	    any    application_specific_data;
//	};
//
// Data must be cdr-any codable (nil, bool, int64, float64, string, []byte,
// []any, map[string]any) so signals can cross the ORB unchanged.
type Signal struct {
	// Name is the signal's name within its set ("prepare", "commit", ...).
	Name string
	// SetName is the producing SignalSet.
	SetName string
	// Data is the application-specific payload (cdr-any codable).
	Data any
}

// String renders "set/name" for traces.
func (s Signal) String() string { return s.SetName + "/" + s.Name }

// Encode writes the signal to a CDR stream.
func (s Signal) Encode(e *cdr.Encoder) error {
	e.WriteString(s.Name)
	e.WriteString(s.SetName)
	if err := cdr.EncodeAny(e, s.Data); err != nil {
		return fmt.Errorf("core: encode signal %s: %w", s, err)
	}
	return nil
}

// DecodeSignal reads a signal from a CDR stream.
func DecodeSignal(d *cdr.Decoder) (Signal, error) {
	var s Signal
	s.Name = d.ReadString()
	s.SetName = d.ReadString()
	data, err := cdr.DecodeAny(d)
	if err != nil {
		return Signal{}, fmt.Errorf("core: decode signal: %w", err)
	}
	s.Data = data
	return s, nil
}

// Outcome is an Action's response to a Signal, and also the collated final
// result a SignalSet produces for a whole protocol run.
type Outcome struct {
	// Name is the outcome's name ("prepared", "committed", ...).
	Name string
	// Data is the application-specific payload (cdr-any codable).
	Data any
}

// String returns the outcome name.
func (o Outcome) String() string { return o.Name }

// Encode writes the outcome to a CDR stream.
func (o Outcome) Encode(e *cdr.Encoder) error {
	e.WriteString(o.Name)
	if err := cdr.EncodeAny(e, o.Data); err != nil {
		return fmt.Errorf("core: encode outcome %s: %w", o, err)
	}
	return nil
}

// DecodeOutcome reads an outcome from a CDR stream.
func DecodeOutcome(d *cdr.Decoder) (Outcome, error) {
	var o Outcome
	o.Name = d.ReadString()
	data, err := cdr.DecodeAny(d)
	if err != nil {
		return Outcome{}, fmt.Errorf("core: decode outcome: %w", err)
	}
	o.Data = data
	return o, nil
}

// CompletionStatus is the state an Activity would complete in, per §3.2.1.
type CompletionStatus int

// Completion statuses.
const (
	// CompletionSuccess: the activity performed its work; the status may
	// still be changed.
	CompletionSuccess CompletionStatus = iota + 1
	// CompletionFail: an application error occurred; the status may still
	// be changed.
	CompletionFail
	// CompletionFailOnly: an error occurred and the only possible outcome
	// is failure; the status can no longer be changed.
	CompletionFailOnly
)

// Valid reports whether c is Success, Fail or FailOnly.
func (c CompletionStatus) Valid() bool {
	return c >= CompletionSuccess && c <= CompletionFailOnly
}

// String returns the paper's enumeration spelling.
func (c CompletionStatus) String() string {
	switch c {
	case CompletionSuccess:
		return "CompletionStatusSuccess"
	case CompletionFail:
		return "CompletionStatusFail"
	case CompletionFailOnly:
		return "CompletionStatusFailOnly"
	default:
		return fmt.Sprintf("CompletionStatus(%d)", int(c))
	}
}

// Action receives Signals, per the paper's IDL:
//
//	interface Action {
//	    Outcome process_signal(in Signal sig) raises(ActionError);
//	};
//
// Signal delivery is at least once (§3.4): implementations must make
// ProcessSignal idempotent, or be wrapped with Idempotent. An Action
// enrols through Activity.AddAction and stays enrolled for the life of
// the activity; there is no remove_action.
type Action interface {
	// ProcessSignal reacts to one delivered signal.
	ProcessSignal(ctx context.Context, sig Signal) (Outcome, error)
}

// ActionFunc adapts a function to the Action interface.
type ActionFunc func(ctx context.Context, sig Signal) (Outcome, error)

// ProcessSignal implements Action.
func (f ActionFunc) ProcessSignal(ctx context.Context, sig Signal) (Outcome, error) {
	return f(ctx, sig)
}
