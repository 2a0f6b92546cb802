package remote

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/ots"
)

// ResourceTypeID is the interface id of exported transaction resources.
const ResourceTypeID = "IDL:CosTransactions/Resource:1.0"

// Phase-two reply outcome octets. CosTransactions models heuristic
// outcomes as exceptions; here they ride in the reply body (a transport
// error must keep meaning "delivery failed, outcome unknown", which is
// exactly what a heuristic reply is not). An empty reply body means clean,
// so pre-heuristic servants interoperate.
const (
	outcomeClean             = 0
	outcomeHeuristicCommit   = 1
	outcomeHeuristicRollback = 2
)

// encodePhaseTwoReply maps a servant's phase-two error to a reply: the
// heuristic sentinels become outcome octets (the delivery succeeded — the
// participant resolved, just unilaterally), anything else stays an error.
func encodePhaseTwoReply(err error) ([]byte, error) {
	var outcome byte
	switch {
	case err == nil:
		return nil, nil
	case errors.Is(err, ots.ErrHeuristicCommit):
		outcome = outcomeHeuristicCommit
	case errors.Is(err, ots.ErrHeuristicRollback):
		outcome = outcomeHeuristicRollback
	default:
		return nil, err
	}
	e := cdr.NewEncoder(4)
	e.WriteOctet(outcome)
	return e.Bytes(), nil
}

// decodePhaseTwoReply is the proxy-side inverse: an outcome octet becomes
// the matching heuristic sentinel so the coordinator's aggregation treats
// remote participants exactly like local ones. It returns only owned
// sentinel errors; nothing aliases the reply buffer.
func decodePhaseTwoReply(op string, body []byte) error {
	if len(body) == 0 {
		return nil
	}
	d := cdr.NewDecoder(body)
	outcome := d.ReadOctet()
	if err := d.Err(); err != nil {
		return orb.Systemf(orb.CodeMarshal, "%s reply: %v", op, err)
	}
	switch outcome {
	case outcomeClean:
		return nil
	case outcomeHeuristicCommit:
		return fmt.Errorf("remote: %s: %w", op, ots.ErrHeuristicCommit)
	case outcomeHeuristicRollback:
		return fmt.Errorf("remote: %s: %w", op, ots.ErrHeuristicRollback)
	default:
		return orb.Systemf(orb.CodeMarshal, "%s reply: unknown outcome %d", op, outcome)
	}
}

// resourceServant adapts an ots.Resource to the ORB, so a transaction
// coordinator on one node can drive two-phase commit over participants on
// other nodes — the distributed OTS deployment the paper's fig. 3 assumes.
type resourceServant struct {
	res ots.Resource
}

// Dispatch implements orb.Servant.
func (s *resourceServant) Dispatch(_ context.Context, op string, _ *cdr.Decoder) ([]byte, error) {
	return s.call(op)
}

// call runs op on the resource and returns its reply body, the one reply
// encoding of a direct call and of a resource batch member.
func (s *resourceServant) call(op string) ([]byte, error) {
	switch op {
	case "prepare":
		vote, err := s.res.Prepare()
		if err != nil {
			return nil, err
		}
		e := cdr.NewEncoder(4)
		e.WriteOctet(byte(vote))
		return e.Bytes(), nil
	case "commit":
		return encodePhaseTwoReply(s.res.Commit())
	case "rollback":
		return encodePhaseTwoReply(s.res.Rollback())
	case "commit_one_phase":
		return encodePhaseTwoReply(s.res.CommitOnePhase())
	case "forget":
		return nil, s.res.Forget()
	default:
		return nil, orb.Systemf(orb.CodeBadOperation, "Resource has no operation %q", op)
	}
}

// ExportResource activates r on o and returns its reference. Like
// ExportAction it serves o's relay, which runs a coordinator's resource
// batches.
func ExportResource(o *orb.ORB, r ots.Resource) orb.IOR {
	installRelay(o)
	return o.RegisterServant(ResourceTypeID, &resourceServant{res: r})
}

// ExportResourceWithKey activates r under a stable key, so a restarted
// server can re-register the resource at the reference persisted in a
// coordinator's decision log. It serves o's relay as ExportResource does.
func ExportResourceWithKey(o *orb.ORB, key string, r ots.Resource) orb.IOR {
	installRelay(o)
	return o.RegisterServantWithKey(key, ResourceTypeID, &resourceServant{res: r})
}

// remoteResource is the coordinator-side proxy: an ots.Resource whose
// protocol methods are remote invocations. Its recovery name is the
// stringified IOR, so a logged commit decision can be re-driven against
// the same object after a coordinator restart (see BindRemoteResources).
// The name and the relay on the resource's endpoints, which takes its
// batches, are worked out once, at import.
type remoteResource struct {
	orb   *orb.ORB
	ref   orb.IOR
	name  string
	relay orb.IOR
}

var (
	_ ots.NamedResource    = (*remoteResource)(nil)
	_ core.EndpointBatcher = (*remoteResource)(nil)
)

// ImportResource returns an ots.Resource proxy for the resource at ref.
func ImportResource(o *orb.ORB, ref orb.IOR) ots.NamedResource {
	return &remoteResource{
		orb:   o,
		ref:   ref,
		name:  ref.String(),
		relay: orb.NewIOR(RelayTypeID, RelayKey, ref.Endpoints()...),
	}
}

// RecoveryName implements ots.NamedResource.
func (r *remoteResource) RecoveryName() string { return r.name }

func (r *remoteResource) invoke(op string) ([]byte, error) {
	body, err := r.orb.Invoke(context.Background(), r.ref, op, nil)
	if err != nil {
		return nil, fmt.Errorf("remote: resource %s on %s: %w", op, r.ref.Key, err)
	}
	return body, nil
}

// Prepare implements ots.Resource.
func (r *remoteResource) Prepare() (ots.Vote, error) {
	body, err := r.invoke("prepare")
	if err != nil {
		return ots.VoteRollback, err
	}
	return decodeVote(body)
}

// decodeVote reads a prepare reply. The vote is a copy: nothing aliases
// body.
func decodeVote(body []byte) (ots.Vote, error) {
	d := cdr.NewDecoder(body)
	vote := ots.Vote(d.ReadOctet())
	if err := d.Err(); err != nil {
		return ots.VoteRollback, orb.Systemf(orb.CodeMarshal, "prepare reply: %v", err)
	}
	return vote, nil
}

// Commit implements ots.Resource.
func (r *remoteResource) Commit() error {
	body, err := r.invoke("commit")
	if err != nil {
		return err
	}
	return decodePhaseTwoReply("commit", body)
}

// Rollback implements ots.Resource.
func (r *remoteResource) Rollback() error {
	body, err := r.invoke("rollback")
	if err != nil {
		return err
	}
	return decodePhaseTwoReply("rollback", body)
}

// CommitOnePhase implements ots.Resource.
func (r *remoteResource) CommitOnePhase() error {
	body, err := r.invoke("commit_one_phase")
	if err != nil {
		return err
	}
	return decodePhaseTwoReply("commit_one_phase", body)
}

// Forget implements ots.Resource.
func (r *remoteResource) Forget() error {
	_, err := r.invoke("forget")
	return err
}

// BatchEndpoint implements core.EndpointBatcher: the proxy's primary
// endpoint.
func (r *remoteResource) BatchEndpoint() string { return r.ref.Endpoint() }

// DeliverBatch implements core.EndpointBatcher for a run of transaction
// participants (ots.Participant) over proxies on this proxy's host (the
// participant over this one first). It sends the members that need a call
// to the relay on this proxy's endpoints as one keyed batch, decodes each
// member's reply as the direct call decodes it, and has the member's
// ResourceAction classify it. A host that refuses the batch before running
// it — no relay, an unknown batch kind or member — is an error, so the
// coordinator calls each member directly. A prepare batch that fails
// otherwise counts as a failed Prepare of its first member: no member
// counts as voted, so rollback reaches them all, and prepare is never sent
// twice.
func (r *remoteResource) DeliverBatch(ctx context.Context, sig core.Signal, run []core.Action, stop string, retry core.RetryPolicy) ([]core.SubtreeResult, error) {
	op := sig.Name
	if stop != "" && stop != ots.OutcomeAbort {
		return nil, fmt.Errorf("remote: a resource batch cannot stop at %q", stop)
	}
	members := make([]*ots.ResourceAction, len(run))
	keys := make([]string, 0, len(run))
	for i, m := range run {
		ra, ok := ots.Participant(m)
		var rr *remoteResource
		if ok {
			rr, ok = ra.Resource().(*remoteResource)
		}
		if !ok {
			return nil, fmt.Errorf("remote: resource batch member %d is not a resource proxy", i)
		}
		members[i] = ra
		if _, local := ra.Skip(op); !local {
			keys = append(keys, rr.ref.Key)
		}
	}
	var replies []core.SubtreeResult
	if len(keys) > 0 {
		var err error
		if replies, err = sendKeyed(ctx, r.orb, r.relay, sig, keys, stop, retry); err != nil {
			if op != ots.SignalPrepare || refusedBatch(err) {
				return nil, err
			}
			out, _ := members[0].Answer(op, ots.VoteRollback, err)
			return []core.SubtreeResult{{Attempts: 1, Outcome: out}}, nil
		}
	}
	if len(replies) > len(keys) {
		return nil, fmt.Errorf("remote: resource batch reply: %d results for %d members", len(replies), len(keys))
	}
	for i, rep := range replies {
		if rep.Index != i {
			return nil, fmt.Errorf("remote: resource batch reply: result %d for member %d", rep.Index, i)
		}
	}
	results := make([]core.SubtreeResult, 0, len(run))
	for i, m := range members {
		skipped, local := m.Skip(op)
		if !local && len(replies) == 0 {
			break // past the prefix the host ran
		}
		res := core.SubtreeResult{Index: i, Attempts: 1, Outcome: skipped}
		if !local {
			rep := replies[0]
			replies = replies[1:]
			res.Attempts = max(rep.Attempts, 1)
			vote, err := decodeReply(op, keys[rep.Index], rep)
			res.Outcome, res.Err = m.Answer(op, vote, err)
		}
		results = append(results, res)
	}
	return results, nil
}

// decodeReply reads a keyed batch member's reply to resource operation op
// as the direct call reads its own: prepare's vote, and the operation's
// error, worded as the direct call's. Both are copies; nothing aliases the
// reply.
func decodeReply(op, key string, rep core.SubtreeResult) (ots.Vote, error) {
	body, _ := rep.Outcome.Data.([]byte)
	switch {
	case rep.Err != nil:
		return ots.VoteRollback, fmt.Errorf("remote: resource %s on %s: %w", op, key, rep.Err)
	case op == ots.SignalPrepare:
		return decodeVote(body)
	default:
		return ots.VoteRollback, decodePhaseTwoReply(op, body)
	}
}

// refusedBatch reports whether err says the host ran none of a batch: it
// serves no relay, its relay refused the request before delivering (an
// unknown member, or a batch kind it does not know), or the request never
// reached it.
func refusedBatch(err error) bool {
	var se *orb.SystemError
	if !errors.As(err, &se) {
		return false
	}
	switch se.Code {
	case orb.CodeObjectNotExist, orb.CodeBadOperation, orb.CodeTransient:
		return true
	case orb.CodeMarshal:
		return strings.HasPrefix(se.Detail, relayOp+":")
	}
	return false
}

// BindRemoteResources registers a directory resolver that turns the
// stringified-IOR recovery names written by remoteResource back into live
// proxies after a coordinator restart, so Service.Recover can re-drive
// phase two across the network.
func BindRemoteResources(o *orb.ORB, dir *ots.Directory, names []string) error {
	for _, name := range names {
		ref, err := orb.ParseIOR(name)
		if err != nil {
			return fmt.Errorf("remote: bind %q: %w", name, err)
		}
		dir.Register(name, ImportResource(o, ref))
	}
	return nil
}
