package core

import (
	"context"
	"fmt"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/ids"
)

// activityKey is the private key type for activity propagation through
// context.Context — the Go analogue of CORBA's implicit per-thread context.
type activityKey struct{}

// NewContext returns a context carrying a.
func NewContext(ctx context.Context, a *Activity) context.Context {
	return context.WithValue(ctx, activityKey{}, a)
}

// FromContext returns the activity carried by ctx, if any.
func FromContext(ctx context.Context) (*Activity, bool) {
	a, _ := ctx.Value(activityKey{}).(*Activity)
	return a, a != nil
}

// PropagationEntry is one level of the activity lineage carried in a
// propagation context.
type PropagationEntry struct {
	// ID is the activity's unique id.
	ID ids.UID
	// Name is the activity's human-readable name.
	Name string
}

// PropagationContext is the wire form of "which activity am I in",
// carried in the ORB's ContextActivity service context on every request
// made from within an activity. It holds the activity lineage from root to
// current plus snapshots of the by-value property groups (§3.3).
type PropagationContext struct {
	// Path is the activity lineage, root first.
	Path []PropagationEntry
	// Properties holds by-value property-group snapshots, keyed by group
	// name then property key.
	Properties map[string]map[string]any
}

// ActivityID returns the current (innermost) activity id.
func (p *PropagationContext) ActivityID() ids.UID {
	if len(p.Path) == 0 {
		return ids.Nil
	}
	return p.Path[len(p.Path)-1].ID
}

// PropagationContext builds the context to ship with outgoing requests.
// Property groups propagate according to their behaviour: by-value groups
// snapshot their tuples; by-reference and local groups ship nothing (a
// by-reference group is re-bound at the receiver through its name).
func (a *Activity) PropagationContext() (*PropagationContext, error) {
	var path []PropagationEntry
	for cur := a; cur != nil; cur = cur.parent {
		path = append([]PropagationEntry{{ID: cur.id, Name: cur.name}}, path...)
	}
	pc := &PropagationContext{Path: path}

	a.mu.Lock()
	groups := make(map[string]PropertyGroup, len(a.pgroups))
	for n, g := range a.pgroups {
		groups[n] = g
	}
	a.mu.Unlock()

	for name, g := range groups {
		ts, ok := g.(*TupleSpace)
		if !ok || ts.Propagation() != PropagateByValue {
			continue
		}
		if pc.Properties == nil {
			pc.Properties = make(map[string]map[string]any)
		}
		pc.Properties[name] = ts.Snapshot()
	}
	return pc, nil
}

// Encode writes the propagation context to a CDR stream.
func (p *PropagationContext) Encode(e *cdr.Encoder) error {
	e.WriteUint32(uint32(len(p.Path)))
	for _, entry := range p.Path {
		e.WriteRaw(entry.ID[:])
		e.WriteString(entry.Name)
	}
	props := make(map[string]any, len(p.Properties))
	for g, kv := range p.Properties {
		inner := make(map[string]any, len(kv))
		for k, v := range kv {
			inner[k] = v
		}
		props[g] = inner
	}
	if err := cdr.EncodeAny(e, props); err != nil {
		return fmt.Errorf("core: encode propagation properties: %w", err)
	}
	return nil
}

// Marshal encodes the context as a standalone service-context payload.
func (p *PropagationContext) Marshal() ([]byte, error) {
	e := cdr.NewEncoder(128)
	if err := p.Encode(e); err != nil {
		return nil, err
	}
	return append([]byte(nil), e.Bytes()...), nil
}

// DecodePropagationContext reads a propagation context from a CDR stream.
func DecodePropagationContext(d *cdr.Decoder) (*PropagationContext, error) {
	n := d.ReadCount(1)
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: decode propagation context path: %w", err)
	}
	pc := &PropagationContext{}
	for i := 0; i < n; i++ {
		var entry PropagationEntry
		for j := 0; j < len(entry.ID); j++ {
			entry.ID[j] = d.ReadOctet()
		}
		entry.Name = d.ReadString()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("core: decode propagation entry: %w", err)
		}
		pc.Path = append(pc.Path, entry)
	}
	v, err := cdr.DecodeAny(d)
	if err != nil {
		return nil, fmt.Errorf("core: decode propagation properties: %w", err)
	}
	props, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("core: propagation properties are %T, want map", v)
	}
	for g, kv := range props {
		inner, ok := kv.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("core: property group %q payload is %T, want map", g, kv)
		}
		if pc.Properties == nil {
			pc.Properties = make(map[string]map[string]any)
		}
		pc.Properties[g] = inner
	}
	return pc, nil
}

// UnmarshalPropagationContext decodes a standalone payload.
func UnmarshalPropagationContext(b []byte) (*PropagationContext, error) {
	return DecodePropagationContext(cdr.NewDecoder(b))
}
