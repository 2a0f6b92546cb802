package orb

import (
	"context"
	"fmt"
	"maps"
	"slices"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// Admin servant identity: remote tooling reaches any ORB's operational
// metrics through the well-known AdminKey, the same way the name service
// is reached through "naming".
const (
	// AdminTypeID is the interface id of the ORB admin servant.
	AdminTypeID = "IDL:GLOP/ORBAdmin:1.0"
	// AdminKey is the well-known object key the admin servant serves
	// under.
	AdminKey = "orb-admin"
)

// Sample is one named value in a metrics scrape. Label carries the one
// dimension a sample has — an endpoint, a follower id, a role — and is
// empty for a process-wide value. Booleans are 0/1 and durations
// nanoseconds; a string-valued field is a sample of value 1 whose label
// is the string (the Prometheus "info" convention).
type Sample struct {
	// Name is the dotted metric name, prefixed by its source.
	Name string
	// Label is the sample's one dimension ("" when it has none).
	Label string
	// Value is the sample's value.
	Value int64
}

// Samples is a metrics scrape: the built-in ORB samples first, then each
// registered source's in source-name order.
type Samples []Sample

// Get returns the value of the sample with the given name and label, and
// false when the scrape holds none (its source is not hosted).
func (s Samples) Get(name, label string) (int64, bool) {
	for _, x := range s {
		if x.Name == name && x.Label == label {
			return x.Value, true
		}
	}
	return 0, false
}

// adminServant answers the one "metrics" operation with everything the
// hosting ORB's Metrics collects. Requests for AdminKey bypass server
// admission control (server.go), so the scrape stays answerable exactly
// while the gate is shedding.
type adminServant struct {
	orb *ORB
}

// ServeAdmin activates an admin servant for o under AdminKey and returns
// its reference. Scrape it with an AdminClient (AdminAt builds the
// well-known reference from the daemon's endpoints).
func ServeAdmin(o *ORB) IOR {
	return o.RegisterServantWithKey(AdminKey, AdminTypeID, &adminServant{orb: o})
}

// Dispatch implements Servant.
func (s *adminServant) Dispatch(_ context.Context, op string, _ *cdr.Decoder) ([]byte, error) {
	if op != "metrics" {
		return nil, Systemf(CodeBadOperation, "ORBAdmin has no operation %q", op)
	}
	return encodeSamples(s.orb.Metrics()), nil
}

// encodeSamples and decodeSamples are the metrics reply's one codec: a
// uint32 count, then each sample's name, label and value.
func encodeSamples(ss Samples) []byte {
	e := cdr.NewEncoder(64 + 48*len(ss))
	e.WriteUint32(uint32(len(ss)))
	for _, x := range ss {
		e.WriteString(x.Name)
		e.WriteString(x.Label)
		e.WriteInt64(x.Value)
	}
	return e.Bytes()
}

// minSampleBytes is the smallest encoding of one sample: two empty
// strings (a length and a NUL each) and an int64.
const minSampleBytes = 5 + 5 + 8

// decodeSamples checks the count against the bytes that remain before it
// allocates anything for it.
func decodeSamples(body []byte) (Samples, error) {
	d := cdr.NewDecoder(body)
	n := d.ReadCount(minSampleBytes)
	if err := d.Err(); err != nil {
		return nil, err
	}
	ss := make(Samples, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		ss = append(ss, Sample{Name: d.ReadString(), Label: d.ReadString(), Value: d.ReadInt64()})
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return ss, nil
}

// Metrics collects the samples a metrics scrape of this ORB answers with.
// Built in: "orb.server.*" (ServerStats, while listening; each bound
// endpoint is an "orb.server.endpoint" info sample, in Listen order) and
// "orb.endpoint.*" labelled by endpoint (EndpointStats, one group per
// pooled endpoint). Then every source registered with SetMetrics, in name
// order, each sample's name prefixed by "<source>.". Sources run without
// ORB locks held.
func (o *ORB) Metrics() Samples {
	var out Samples
	if st, ok := o.ServerStats(); ok {
		out = st.appendSamples(out)
	}
	for _, ep := range o.PooledEndpoints() {
		if st, ok := o.EndpointStats(ep); ok {
			for _, f := range st.fields() {
				out = append(out, Sample{Name: "orb.endpoint." + f.name, Label: ep, Value: f.get()})
			}
		}
	}
	o.mu.RLock()
	sources := maps.Clone(o.metrics)
	o.mu.RUnlock()
	for _, name := range slices.Sorted(maps.Keys(sources)) {
		sources[name](func(s Sample) {
			s.Name = name + "." + s.Name
			out = append(out, s)
		})
	}
	return out
}

// field names one numeric stats field for the built-in samples; fields
// tables drive both emitting a stats struct and rebuilding it from a
// scrape, so the two cannot drift.
type field struct {
	name string
	get  func() int64
	set  func(int64)
}

func num[T ~int | ~int64 | ~uint64](name string, p *T) field {
	return field{name, func() int64 { return int64(*p) }, func(v int64) { *p = T(v) }}
}

func bit(name string, p *bool) field {
	return field{name, func() int64 {
		if *p {
			return 1
		}
		return 0
	}, func(v int64) { *p = v != 0 }}
}

// appendSamples appends st as the "orb.server.*" samples: each endpoint
// an "orb.server.endpoint" info sample in Listen order, then the numbers.
func (st *ServerStats) appendSamples(out Samples) Samples {
	for _, ep := range st.Endpoints {
		out = append(out, Sample{Name: "orb.server.endpoint", Label: ep, Value: 1})
	}
	for _, f := range st.fields() {
		out = append(out, Sample{Name: "orb.server." + f.name, Value: f.get()})
	}
	return out
}

// serverStatsFrom rebuilds the ServerStats appendSamples emitted; false
// when the scrape holds none (the ORB was not listening).
func serverStatsFrom(ss Samples) (ServerStats, bool) {
	var st ServerStats
	for _, x := range ss {
		if x.Name == "orb.server.endpoint" {
			st.Endpoints = append(st.Endpoints, x.Label)
		}
	}
	if len(st.Endpoints) == 0 {
		return ServerStats{}, false
	}
	st.Endpoint = st.Endpoints[0]
	for _, f := range st.fields() {
		if v, ok := ss.Get("orb.server."+f.name, ""); ok {
			f.set(v)
		}
	}
	return st, true
}

func (st *ServerStats) fields() []field {
	return []field{
		num("conns", &st.Conns), num("inflight", &st.Inflight), num("queued", &st.Queued),
		num("shed", &st.Shed), num("dispatched", &st.Dispatched),
		num("max_inflight", &st.MaxInflight), num("queue_depth", &st.QueueDepth),
		num("shed_after_ns", &st.ShedAfter), num("reserved_slots", &st.ReservedSlots),
		num("priority_inflight", &st.PriorityInflight),
		num("priority_dispatched", &st.PriorityDispatched), num("priority_shed", &st.PriorityShed),
		num("servants", &st.Servants),
	}
}

func (st *EndpointStats) fields() []field {
	return []field{
		num("conns", &st.Conns), num("lanes", &st.Lanes), num("pending", &st.Pending),
		num("dialing", &st.Dialing), num("failures", &st.Failures), bit("down", &st.Down),
		num("breaker", &st.Breaker), num("breaker_probes", &st.BreakerProbes),
		num("breaker_opens", &st.BreakerOpens), num("rtt_ns", &st.RTT),
	}
}

// AdminClient is the client-side proxy for a remote ORB's admin servant,
// the NameClient-style scrape helper operational tooling embeds.
type AdminClient struct {
	orb *ORB
	ref IOR
}

// NewAdminClient returns a proxy invoking the admin servant at ref
// through o.
func NewAdminClient(o *ORB, ref IOR) *AdminClient {
	return &AdminClient{orb: o, ref: ref}
}

// AdminAt builds the IOR of the well-known admin servant reachable at the
// given endpoints (profiles, in preference order).
func AdminAt(endpoints ...string) IOR {
	return NewIOR(AdminTypeID, AdminKey, endpoints...)
}

// Metrics scrapes every sample the remote ORB exposes (see ORB.Metrics).
// A source the remote process does not host contributes no samples.
func (c *AdminClient) Metrics(ctx context.Context) (Samples, error) {
	body, err := c.orb.Invoke(ctx, c.ref, "metrics", nil)
	if err != nil {
		return nil, fmt.Errorf("admin metrics: %w", err)
	}
	ss, err := decodeSamples(body)
	if err != nil {
		return nil, Systemf(CodeMarshal, "metrics reply: %v", err)
	}
	return ss, nil
}

// ServerStats scrapes the remote ORB's server-side admission state: the
// "orb.server.*" samples of one metrics scrape, decoded. The second
// return is false when the remote ORB is not listening (which, for a
// scrape that travelled over TCP, indicates a race with its shutdown).
func (c *AdminClient) ServerStats(ctx context.Context) (ServerStats, bool, error) {
	ss, err := c.Metrics(ctx)
	if err != nil {
		return ServerStats{}, false, err
	}
	st, ok := serverStatsFrom(ss)
	return st, ok, nil
}
