package orb

import (
	"errors"
	"fmt"
	"strings"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// Profile is one tagged endpoint of an object reference: a place the
// object can be invoked. Real CORBA IORs carry an ordered list of tagged
// profiles so a reference survives the loss of a single endpoint; ours
// carry the same idea with the endpoint forms this ORB speaks.
type Profile struct {
	// Endpoint locates a hosting ORB: "inproc:<orb-id>" for same-process
	// references or "tcp:host:port" for network references.
	Endpoint string
}

// IOR is an interoperable object reference: everything a client needs to
// invoke an object — its type, its key within the object adapter, and an
// ordered list of endpoint profiles it can be reached through. The first
// profile is the primary; the invoke path prefers healthy profiles and
// fails over along the list (see the endpoint selector in client.go).
type IOR struct {
	// TypeID names the interface, e.g. "IDL:ActivityService/Action:1.0".
	TypeID string
	// Key identifies the servant within its object adapter.
	Key string
	// Profiles lists the endpoints the object is reachable through, in
	// preference order.
	Profiles []Profile
}

// ErrBadIOR reports an unparseable stringified IOR.
var ErrBadIOR = errors.New("orb: malformed IOR")

// NewIOR builds a reference to key with the given interface type and
// endpoint profiles, in preference order. Empty endpoints are dropped;
// endpoints without a scheme prefix are taken as "tcp:host:port" (the
// WithAdvertised convention), so operator-typed endpoints — activityd's
// -shard-map/-standby flags, the AdminAt/RecoveryAt/ShardMapAt helpers —
// produce reachable profiles.
func NewIOR(typeID, key string, endpoints ...string) IOR {
	r := IOR{TypeID: typeID, Key: key}
	for _, ep := range endpoints {
		if ep != "" {
			r.Profiles = append(r.Profiles, Profile{Endpoint: canonicalEndpoint(ep)})
		}
	}
	return r
}

// canonicalEndpoint gives an endpoint the scheme the invoke path routes
// on: "tcp:" and "inproc:" endpoints pass through, and a bare host:port
// becomes "tcp:host:port".
func canonicalEndpoint(ep string) string {
	if strings.HasPrefix(ep, "tcp:") || strings.HasPrefix(ep, "inproc:") {
		return ep
	}
	return "tcp:" + ep
}

// IsZero reports whether the IOR is the zero reference (a "nil objref").
func (r IOR) IsZero() bool {
	return r.TypeID == "" && r.Key == "" && len(r.Profiles) == 0
}

// Equal reports whether two references are structurally identical: same
// type, key, and profile list in the same order.
func (r IOR) Equal(o IOR) bool {
	if r.TypeID != o.TypeID || r.Key != o.Key || len(r.Profiles) != len(o.Profiles) {
		return false
	}
	for i := range r.Profiles {
		if r.Profiles[i] != o.Profiles[i] {
			return false
		}
	}
	return true
}

// Endpoint returns the primary (first) profile's endpoint, or "" for a
// reference with no profiles.
func (r IOR) Endpoint() string {
	if len(r.Profiles) == 0 {
		return ""
	}
	return r.Profiles[0].Endpoint
}

// Endpoints returns every profile endpoint in preference order.
func (r IOR) Endpoints() []string {
	eps := make([]string, len(r.Profiles))
	for i, p := range r.Profiles {
		eps[i] = p.Endpoint
	}
	return eps
}

// String renders the IOR in its one stringified form,
// "IOR:<endpoint>[,<endpoint>…]|<typeid>|<key>": the profile endpoints in
// preference order, comma-separated. A single-profile reference is the
// one-element case.
func (r IOR) String() string {
	return fmt.Sprintf("IOR:%s|%s|%s", strings.Join(r.Endpoints(), ","), r.TypeID, r.Key)
}

// ParseIOR parses the stringified form produced by String.
func ParseIOR(s string) (IOR, error) {
	rest, ok := strings.CutPrefix(s, "IOR:")
	if !ok {
		return IOR{}, fmt.Errorf("%w: missing IOR: prefix", ErrBadIOR)
	}
	parts := strings.SplitN(rest, "|", 3)
	if len(parts) != 3 || parts[0] == "" || parts[2] == "" {
		return IOR{}, fmt.Errorf("%w: %q", ErrBadIOR, s)
	}
	r := IOR{TypeID: parts[1], Key: parts[2]}
	for _, ep := range strings.Split(parts[0], ",") {
		if ep == "" {
			return IOR{}, fmt.Errorf("%w: empty profile in %q", ErrBadIOR, s)
		}
		r.Profiles = append(r.Profiles, Profile{Endpoint: ep})
	}
	return r, nil
}

// Encode writes the IOR to a CDR stream in its one layout: TypeID, Key,
// then the profile endpoints as a string list.
func (r IOR) Encode(e *cdr.Encoder) {
	e.WriteString(r.TypeID)
	e.WriteString(r.Key)
	e.WriteStringList(r.Endpoints())
}

// DecodeIOR reads an IOR from a CDR stream (the layout Encode writes).
func DecodeIOR(d *cdr.Decoder) IOR {
	r := IOR{TypeID: d.ReadString(), Key: d.ReadString()}
	eps := d.ReadStringList() // hostile profile counts rejected inside
	if d.Err() != nil {
		return IOR{}
	}
	for _, ep := range eps {
		// Empty endpoints are dropped on every ingestion path (NewIOR,
		// ParseIOR); accepting one here would produce a reference that
		// re-encodes lossily.
		if ep != "" {
			r.Profiles = append(r.Profiles, Profile{Endpoint: ep})
		}
	}
	return r
}
