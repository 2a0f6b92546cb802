// Package wscf implements §5.2 of the paper: the Web Services Coordination
// Framework — the Activity Service re-cast for Web services.
//
// The paper notes one essential difference from the CORBA original: WSCF
// "does not assume an underlying OTS implementation: all coordination
// services (including transactions) must be constructed on top of the
// framework." This package therefore depends only on the activity core —
// no internal/ots import — and builds its coordination types (an
// ACID-style completion protocol and a BTP-style business agreement
// protocol) purely out of SignalSets and Actions.
//
// The vocabulary follows the later WS-Coordination lineage the paper
// anticipates: a CoordinationContext identifies the activity and its
// coordination type; participants register for a protocol under that
// context; the coordinator drives the protocol's signals.
package wscf

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/ids"
)

// Coordination type URIs (in the WS-Coordination idiom).
const (
	// TypeAtomic is the ACID-style completion coordination type.
	TypeAtomic = "http://schemas.example.org/ws/coordination/atomic"
	// TypeBusiness is the BTP-style business-agreement coordination type.
	TypeBusiness = "http://schemas.example.org/ws/coordination/business"
)

// Protocol names within the coordination types.
const (
	// ProtocolCompletion is the two-phase completion protocol of TypeAtomic.
	ProtocolCompletion = "completion"
	// ProtocolBusinessAgreement is the confirm/cancel protocol of
	// TypeBusiness.
	ProtocolBusinessAgreement = "business-agreement"
)

// WSCF errors.
var (
	// ErrUnknownType reports an unsupported coordination type.
	ErrUnknownType = errors.New("wscf: unknown coordination type")
	// ErrAborted reports that the atomic protocol aborted.
	ErrAborted = errors.New("wscf: coordination aborted")
)

// CoordinationContext identifies a coordinated activity, the wire-level
// "context" a Web service passes along with application messages.
type CoordinationContext struct {
	// Identifier is the globally unique activity id.
	Identifier ids.UID
	// Type is the coordination type URI.
	Type string
	// Registration names the coordinator to register with. In this
	// in-process implementation it is the activity name; a deployment
	// would carry an endpoint reference.
	Registration string
}

// Participant is a Web-service participant in the completion protocol.
// Prepare votes (nil = prepared); Commit and Cancel finish. Methods must
// tolerate repeated invocation: delivery is at least once.
type Participant interface {
	// Prepare votes: nil means prepared, an error aborts the context.
	Prepare() error
	// Commit makes the work final (commit for TypeAtomic, confirm for
	// TypeBusiness).
	Commit() error
	// Cancel undoes the work.
	Cancel() error
}

// Coordinator is the WSCF activation + registration service: it creates
// coordination contexts and registers participants, backed entirely by the
// activity service. A context is its activity: the service's live registry
// is the one record of which contexts exist.
type Coordinator struct {
	svc *core.Service
}

// NewCoordinator returns a WSCF coordinator over svc.
func NewCoordinator(svc *core.Service) *Coordinator {
	return &Coordinator{svc: svc}
}

// CreateCoordinationContext starts a coordinated activity of the given
// type (the WS-Coordination "Activation" service).
func (c *Coordinator) CreateCoordinationContext(name, coordType string) (CoordinationContext, error) {
	switch coordType {
	case TypeAtomic, TypeBusiness:
	default:
		return CoordinationContext{}, fmt.Errorf("%w: %q", ErrUnknownType, coordType)
	}
	a := c.svc.Begin(name)
	if err := a.RegisterSignalSet(newCompletionSet(coordType)); err != nil {
		return CoordinationContext{}, err
	}
	a.SetCompletionSet(ProtocolCompletion)
	return CoordinationContext{Identifier: a.ID(), Type: coordType, Registration: name}, nil
}

// Register enrolls a participant for the context's protocol (the
// WS-Coordination "Registration" service).
func (c *Coordinator) Register(cc CoordinationContext, name string, p Participant) error {
	a, err := c.lookup(cc)
	if err != nil {
		return err
	}
	_, err = a.AddNamedAction(ProtocolCompletion, name, &participantAction{p: p})
	return err
}

// RegisterAction enrolls a raw Action (e.g. a remote proxy) for the
// context's protocol.
func (c *Coordinator) RegisterAction(cc CoordinationContext, name string, action core.Action) error {
	a, err := c.lookup(cc)
	if err != nil {
		return err
	}
	_, err = a.AddNamedAction(ProtocolCompletion, name, action)
	return err
}

// Complete drives the context's protocol to its successful outcome
// (commit for TypeAtomic, confirm for TypeBusiness). For TypeAtomic a
// participant prepare failure aborts everyone and returns ErrAborted.
func (c *Coordinator) Complete(ctx context.Context, cc CoordinationContext) error {
	a, err := c.lookup(cc)
	if err != nil {
		return err
	}
	out, err := a.CompleteWithStatus(ctx, core.CompletionSuccess)
	if err != nil {
		return fmt.Errorf("wscf: complete: %w", err)
	}
	if out.Name != "committed" {
		return fmt.Errorf("%w: outcome %s", ErrAborted, out.Name)
	}
	return nil
}

// Abort cancels the context's protocol.
func (c *Coordinator) Abort(ctx context.Context, cc CoordinationContext) error {
	a, err := c.lookup(cc)
	if err != nil {
		return err
	}
	if _, err := a.CompleteWithStatus(ctx, core.CompletionFail); err != nil {
		return fmt.Errorf("wscf: abort: %w", err)
	}
	return nil
}

// lookup returns the live activity cc names, if it is a coordination
// context: one that carries the completion protocol. An identifier naming
// another model's activity on the same service is refused.
func (c *Coordinator) lookup(cc CoordinationContext) (*core.Activity, error) {
	a, ok := c.svc.Find(cc.Identifier)
	if ok {
		_, ok = a.SignalSet(ProtocolCompletion)
	}
	if !ok {
		return nil, fmt.Errorf("wscf: unknown coordination context %s", cc.Identifier.Short())
	}
	return a, nil
}

// The completion protocol's sequences, shared by every context. It is
// built with no transaction service underneath: TypeAtomic votes with
// "prepare", then sends "commit", or "cancel" after an "aborted" vote;
// TypeBusiness confirms or cancels in one round. A failing context cancels
// in one round under either type.
var (
	voteThenCommit = []core.Signal{{Name: "prepare"}, {Name: "commit"}}
	confirm        = []core.Signal{{Name: "confirm"}}
	cancel         = []core.Signal{{Name: "cancel"}}
)

func newCompletionSet(coordType string) *core.SequenceSet {
	set := core.NewSequenceSet(ProtocolCompletion).OnFailure(cancel...).Outcomes("committed", "aborted")
	if coordType == TypeBusiness {
		return set.Signals(confirm...)
	}
	return set.Signals(voteThenCommit...).Veto("aborted")
}

// participantAction adapts a Participant to the Action protocol.
type participantAction struct {
	p Participant

	mu       sync.Mutex
	prepared bool
}

func (a *participantAction) ProcessSignal(_ context.Context, sig core.Signal) (core.Outcome, error) {
	switch sig.Name {
	case "prepare":
		if err := a.p.Prepare(); err != nil {
			return core.Outcome{Name: "aborted", Data: err.Error()}, nil
		}
		a.mu.Lock()
		a.prepared = true
		a.mu.Unlock()
		return core.Outcome{Name: "prepared"}, nil
	case "commit", "confirm":
		if err := a.p.Commit(); err != nil {
			return core.Outcome{}, fmt.Errorf("wscf: commit: %w", err)
		}
		return core.Outcome{Name: "committed"}, nil
	case "cancel":
		if err := a.p.Cancel(); err != nil {
			return core.Outcome{}, fmt.Errorf("wscf: cancel: %w", err)
		}
		return core.Outcome{Name: "cancelled"}, nil
	default:
		return core.Outcome{}, fmt.Errorf("wscf: unexpected signal %q", sig.Name)
	}
}
