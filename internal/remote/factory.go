package remote

import (
	"context"
	"errors"
	"sync/atomic"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
)

// Activity-factory servant identity. activityd serves one under the
// well-known key; the shard router aims routed begins at the factory of
// the member owning the activity name.
const (
	// ActivityFactoryTypeID is the interface id of the activity factory.
	ActivityFactoryTypeID = "IDL:ActivityService/ActivityFactory:1.0"
	// ActivityFactoryKey is the well-known object key the factory serves
	// under.
	ActivityFactoryKey = "activity-factory"
)

// ActivityFactory creates activities on request and exports their
// coordinators: operation "begin" takes an activity name and returns
// the coordinator IOR. When the factory is sharded (WithFactoryShard),
// every begin is admitted by the member's CheckOwner guard first, and
// a draining core.Service converts into a WrongShard redirect too — the
// begin never ran, so the client-side router retries it elsewhere
// without risking double execution.
type ActivityFactory struct {
	svc      *core.Service
	orb      *orb.ORB
	delivery core.DeliveryPolicy
	member   *ShardMember

	ref    orb.IOR
	begins atomic.Uint64
}

// FactoryOption configures a served activity factory.
type FactoryOption func(*ActivityFactory)

// WithFactoryDelivery sets the delivery policy of the completion set the
// factory declares for every remotely begun activity (remote activities
// coordinate remote actions — the latency-bound regime parallel and tree
// fan-out target). Without it that set delivers serially: its one signal
// cannot advance, so each run of consecutive actions one caller hosts
// costs one endpoint batch (core.EndpointBatcher) rather than a call per
// action.
func WithFactoryDelivery(p core.DeliveryPolicy) FactoryOption {
	return func(f *ActivityFactory) { f.delivery = p }
}

// WithFactoryShard guards every begin with the member's shard check:
// names this member does not own are refused with a WrongShard
// redirect before any state is created.
func WithFactoryShard(m *ShardMember) FactoryOption {
	return func(f *ActivityFactory) { f.member = m }
}

// ServeActivityFactory activates an activity factory for svc on o under
// the well-known ActivityFactoryKey, and registers the "activity" metrics
// source: activity.begun (begins served) and activity.live (activities of
// svc begun and not yet completed).
func ServeActivityFactory(o *orb.ORB, svc *core.Service, opts ...FactoryOption) *ActivityFactory {
	f := &ActivityFactory{svc: svc, orb: o}
	for _, opt := range opts {
		opt(f)
	}
	f.ref = o.RegisterServantWithKey(ActivityFactoryKey, ActivityFactoryTypeID, f)
	o.SetMetrics("activity", func(emit func(orb.Sample)) {
		emit(orb.Sample{Name: "begun", Value: int64(f.begins.Load())})
		emit(orb.Sample{Name: "live", Value: int64(svc.Live())})
	})
	return f
}

// Ref returns the factory's reference.
func (f *ActivityFactory) Ref() orb.IOR { return f.ref }

// Begins returns how many activities this factory has begun — the
// counter exactly-once tests assert on.
func (f *ActivityFactory) Begins() uint64 { return f.begins.Load() }

// Dispatch implements orb.Servant.
func (f *ActivityFactory) Dispatch(_ context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	if op != "begin" {
		return nil, orb.Systemf(orb.CodeBadOperation, "ActivityFactory has no operation %q", op)
	}
	name := in.ReadString()
	if err := in.Err(); err != nil {
		return nil, orb.Systemf(orb.CodeMarshal, "begin: %v", err)
	}
	if f.member != nil {
		if err := f.member.CheckOwner(name); err != nil {
			return nil, err
		}
	}
	a, err := f.svc.TryBegin(name)
	if errors.Is(err, core.ErrServiceDraining) && f.member != nil {
		// The map may not have marked this member draining yet (local
		// drain beats map propagation); answer the member's redirect so
		// the client refreshes and retries elsewhere.
		return nil, f.member.redirect(name)
	}
	if err != nil {
		return nil, err
	}
	f.begins.Add(1)
	// Activities created remotely complete through their default set;
	// give them one so completion collates participant responses.
	set := core.NewSequenceSet(core.DefaultCompletionSet, "complete").
		Collate(func(rs []core.Outcome) core.Outcome {
			return core.Outcome{Name: "completed", Data: int64(len(rs))}
		})
	set.SetDelivery(f.delivery)
	if err := a.RegisterSignalSet(set); err != nil {
		_, _ = a.Complete(context.Background())
		return nil, err
	}
	// The reference is minted under the ORB's lock from its current
	// listen (or advertised) endpoints, so it carries every live profile.
	e := cdr.NewEncoder(64)
	ExportActivity(f.orb, a).Encode(e)
	return e.Bytes(), nil
}
