package remote

import (
	"context"
	"errors"
	"fmt"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/ots"
	"github.com/extendedtx/activityservice/internal/wal"
)

// Recovery servant identity. The servant serves under a well-known key
// (like orb-admin and naming) so a restarted participant can reconstruct
// the coordinator's recovery reference from an endpoint alone — after a
// crash, an endpoint may be all it still has.
const (
	// RecoveryTypeID is the interface id of the recovery servant, the
	// CosTransactions RecoveryCoordinator role hosted service-wide rather
	// than per transaction.
	RecoveryTypeID = "IDL:CosTransactions/RecoveryCoordinator:1.0"
	// RecoveryKey is the well-known object key the recovery servant serves
	// under.
	RecoveryKey = "ots-recovery"
)

// recoveryServant exposes a coordinator's ots.Service recovery surface
// over the ORB: replay_completion for restarted participants asking their
// outcome, and recover for operational tooling driving recovery (its
// totals are the "recovery" metrics source). The completion and recovery
// verbs belong to the priority admission class (orb.DefaultPriorityOps),
// so they stay answerable under the overload that strands transactions in
// doubt in the first place.
type recoveryServant struct {
	svc *ots.Service
}

// ServeRecovery activates the recovery servant for svc on o under
// RecoveryKey and registers svc's recovery totals as o's "recovery"
// metrics source (replacing any earlier one, so a takeover's re-hosted
// service reports once). It returns the servant's reference; RecoveryAt
// rebuilds the same reference from endpoints alone.
func ServeRecovery(o *orb.ORB, svc *ots.Service) orb.IOR {
	o.SetMetrics("recovery", func(emit func(orb.Sample)) {
		t := svc.RecoveryTotals()
		for _, s := range []orb.Sample{
			{Name: "passes", Value: int64(t.Passes)},
			{Name: "decisions_replayed", Value: int64(t.DecisionsReplayed)},
			{Name: "resources_committed", Value: int64(t.ResourcesCommitted)},
			{Name: "resources_missing", Value: int64(t.ResourcesMissing)},
			{Name: "resources_failed", Value: int64(t.ResourcesFailed)},
			{Name: "heuristics_recorded", Value: int64(t.HeuristicsRecorded)},
			{Name: "pending_decisions", Value: int64(t.PendingDecisions)},
			{Name: "pending_heuristics", Value: int64(t.PendingHeuristics)},
		} {
			emit(s)
		}
	})
	return o.RegisterServantWithKey(RecoveryKey, RecoveryTypeID, &recoveryServant{svc: svc})
}

// Dispatch implements orb.Servant.
func (s *recoveryServant) Dispatch(_ context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	switch op {
	case "replay_completion":
		name := in.ReadString()
		if err := in.Err(); err != nil {
			return nil, orb.Systemf(orb.CodeMarshal, "replay_completion: %v", err)
		}
		status, err := s.svc.ReplayCompletion(name)
		if err != nil {
			return nil, recoveryErr(err)
		}
		e := cdr.NewEncoder(4)
		e.WriteOctet(byte(status))
		return e.Bytes(), nil
	case "recover":
		stats, err := s.svc.Recover()
		if err != nil {
			return nil, recoveryErr(err)
		}
		e := cdr.NewEncoder(32)
		e.WriteUint32(uint32(stats.DecisionsReplayed))
		e.WriteUint32(uint32(stats.ResourcesCommitted))
		e.WriteUint32(uint32(stats.ResourcesMissing))
		e.WriteUint32(uint32(stats.ResourcesFailed))
		e.WriteUint32(uint32(stats.ResourcesHeuristic))
		return e.Bytes(), nil
	default:
		return nil, orb.Systemf(orb.CodeBadOperation, "RecoveryCoordinator has no operation %q", op)
	}
}

// recoveryErr raises a service that no longer answers for its log's term
// as FENCED: the caller must ask the current leader's recovery servant.
func recoveryErr(err error) error {
	if errors.Is(err, wal.ErrFenced) {
		return orb.Systemf(orb.CodeFenced, "%v", err)
	}
	return err
}

// HostRecoveryResult reports what HostRecovery set up.
type HostRecoveryResult struct {
	// Service is the transaction service hosted over the log.
	Service *ots.Service
	// Stats is the outcome of the initial recovery pass.
	Stats ots.RecoveryStats
	// Ref is the activated recovery servant's reference.
	Ref orb.IOR
}

// HostRecovery hosts a transaction service over an already-open decision
// log on o: participants named by in-doubt commit decisions are re-bound
// as remote proxies, one recovery pass re-drives their phase two, and the
// well-known ots-recovery servant is activated so restarted participants
// can ask replay_completion for their outcome. Both a restarting
// coordinator (activityd with -ots-log) and a standby taking over a
// replicated log go through it — takeover is recovery over a log that
// arrived by replication instead of surviving a crash.
func HostRecovery(o *orb.ORB, log *wal.Log, extra ...ots.Option) (HostRecoveryResult, error) {
	dir := ots.NewDirectory()
	opts := append([]ots.Option{ots.WithLog(log), ots.WithDirectory(dir)}, extra...)
	svc := ots.NewService(opts...)
	names, err := svc.InDoubtResources()
	if err != nil {
		return HostRecoveryResult{}, err
	}
	// Only stringified-IOR names can be re-bound as remote proxies;
	// anything else must be re-registered by its own host.
	var remoteNames []string
	for _, n := range names {
		if _, err := orb.ParseIOR(n); err == nil {
			remoteNames = append(remoteNames, n)
		}
	}
	if err := BindRemoteResources(o, dir, remoteNames); err != nil {
		return HostRecoveryResult{}, err
	}
	stats, err := svc.Recover()
	if err != nil {
		return HostRecoveryResult{}, fmt.Errorf("recovery pass: %w", err)
	}
	ref := ServeRecovery(o, svc)
	return HostRecoveryResult{Service: svc, Stats: stats, Ref: ref}, nil
}

// RecoveryClient is the participant- and tooling-side proxy for a
// coordinator's recovery servant.
type RecoveryClient struct {
	orb *orb.ORB
	ref orb.IOR
}

// NewRecoveryClient returns a proxy invoking the recovery servant at ref
// through o.
func NewRecoveryClient(o *orb.ORB, ref orb.IOR) *RecoveryClient {
	return &RecoveryClient{orb: o, ref: ref}
}

// RecoveryAt builds the IOR of the well-known recovery servant reachable
// at the given endpoints (profiles, in preference order). Bare host:port
// addresses — flag values, config entries — are accepted alongside the
// "tcp:host:port" and "inproc:" forms ORB.Endpoints reports.
func RecoveryAt(endpoints ...string) orb.IOR {
	return orb.NewIOR(RecoveryTypeID, RecoveryKey, endpoints...)
}

// ReplayCompletion asks the coordinator for the outcome of the
// transaction that prepared the named participant: StatusCommitted when a
// durable commit decision names it, StatusRolledBack otherwise (presumed
// abort). A restarted participant stuck in prepared calls this with its
// own recovery name — the stringified IOR its resource was exported under.
func (c *RecoveryClient) ReplayCompletion(ctx context.Context, resourceName string) (ots.Status, error) {
	e := cdr.NewEncoder(64)
	e.WriteString(resourceName)
	body, err := c.orb.Invoke(ctx, c.ref, "replay_completion", e.Bytes())
	if err != nil {
		return ots.StatusUnknown, fmt.Errorf("recovery replay_completion: %w", err)
	}
	d := cdr.NewDecoder(body)
	status := ots.Status(d.ReadOctet())
	if err := d.Err(); err != nil {
		return ots.StatusUnknown, orb.Systemf(orb.CodeMarshal, "replay_completion reply: %v", err)
	}
	return status, nil
}

// Recover asks the coordinator to run a recovery pass now and returns its
// stats. Operational tooling uses this to drive convergence on demand
// instead of waiting for the coordinator's own schedule.
func (c *RecoveryClient) Recover(ctx context.Context) (ots.RecoveryStats, error) {
	var stats ots.RecoveryStats
	body, err := c.orb.Invoke(ctx, c.ref, "recover", nil)
	if err != nil {
		return stats, fmt.Errorf("recovery recover: %w", err)
	}
	d := cdr.NewDecoder(body)
	stats.DecisionsReplayed = int(d.ReadUint32())
	stats.ResourcesCommitted = int(d.ReadUint32())
	stats.ResourcesMissing = int(d.ReadUint32())
	stats.ResourcesFailed = int(d.ReadUint32())
	stats.ResourcesHeuristic = int(d.ReadUint32())
	if err := d.Err(); err != nil {
		return ots.RecoveryStats{}, orb.Systemf(orb.CodeMarshal, "recover reply: %v", err)
	}
	return stats, nil
}
