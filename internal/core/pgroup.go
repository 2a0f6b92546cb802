package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// Property group errors.
var (
	// ErrReadOnlyProperty reports a write to a read-only view.
	ErrReadOnlyProperty = errors.New("core: property group is read-only in this context")
	// ErrDuplicatePropertyGroup reports registering a second group with the
	// same name on one activity.
	ErrDuplicatePropertyGroup = errors.New("core: property group already registered")
	// ErrUncodableProperty reports a value outside the cdr-any codable set.
	ErrUncodableProperty = errors.New("core: property value is not codable")
)

// PropertyGroup manages a group of properties as a tuple-space of
// attribute/value pairs (§3.3). Implementations define the behaviour of
// the group with respect to nested activities and downstream propagation.
type PropertyGroup interface {
	// Name identifies the group within an activity.
	Name() string
	// Get returns the value bound to key.
	Get(key string) (any, bool)
	// Set binds key to value. Values must be cdr-any codable so groups can
	// propagate by value.
	Set(key string, value any) error
	// Delete removes a binding, reporting whether it existed.
	Delete(key string) bool
	// Keys returns the bound keys in sorted order.
	Keys() []string
}

// ChildDeriver is implemented by property groups that produce a distinct
// view for nested activities; groups without it are shared with children.
type ChildDeriver interface {
	// DeriveChild returns the view a nested activity receives.
	DeriveChild() PropertyGroup
}

// NestedVisibility controls what a nested activity sees of a group and
// whether its updates surface in the parent (§3.3: "one type of
// PropertyGroup may allow updated properties to be transmitted within
// nested contexts, while another may not").
type NestedVisibility int

// Nesting behaviours.
const (
	// VisibilityShared: parent and children share one tuple space; updates
	// are visible in both directions.
	VisibilityShared NestedVisibility = iota + 1
	// VisibilityCopy: a child gets a snapshot; its updates stay private.
	VisibilityCopy
	// VisibilityReadOnly: a child reads the parent's live values but cannot
	// override them (the paper's "client environment" example: overriding
	// locale in nested contexts makes no sense).
	VisibilityReadOnly
)

// Propagation controls how a group travels with distributed invocations.
type Propagation int

// Propagation behaviours.
const (
	// PropagateByValue ships a snapshot of the tuples with the request.
	PropagateByValue Propagation = iota + 1
	// PropagateByReference ships only a resolvable reference.
	PropagateByReference
	// PropagateNone keeps the group node-local.
	PropagateNone
)

// TupleSpace is the standard PropertyGroup implementation: an
// attribute/value space with configurable nesting and propagation
// behaviour. Safe for concurrent use; whole-space reads (Keys, Snapshot)
// are point-in-time atomic.
type TupleSpace struct {
	name        string
	visibility  NestedVisibility
	propagation Propagation

	parent *TupleSpace // non-nil for read-only child views

	mu   sync.RWMutex
	data map[string]any
}

var _ PropertyGroup = (*TupleSpace)(nil)
var _ ChildDeriver = (*TupleSpace)(nil)

// NewTupleSpace returns an empty TupleSpace with the given behaviours.
func NewTupleSpace(name string, visibility NestedVisibility, propagation Propagation) *TupleSpace {
	return &TupleSpace{
		name:        name,
		visibility:  visibility,
		propagation: propagation,
		data:        make(map[string]any),
	}
}

// Name implements PropertyGroup.
func (t *TupleSpace) Name() string { return t.name }

// Visibility returns the nesting behaviour.
func (t *TupleSpace) Visibility() NestedVisibility { return t.visibility }

// Propagation returns the distribution behaviour.
func (t *TupleSpace) Propagation() Propagation { return t.propagation }

// Get implements PropertyGroup. Read-only views consult the parent.
func (t *TupleSpace) Get(key string) (any, bool) {
	if t.parent != nil {
		return t.parent.Get(key)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	v, ok := t.data[key]
	return v, ok
}

// Set implements PropertyGroup.
func (t *TupleSpace) Set(key string, value any) error {
	if t.parent != nil {
		return fmt.Errorf("%w: %q in group %q", ErrReadOnlyProperty, key, t.name)
	}
	if _, err := cdr.MarshalAny(value); err != nil {
		return fmt.Errorf("%w: %q: %v", ErrUncodableProperty, key, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.data[key] = value
	return nil
}

// Delete implements PropertyGroup.
func (t *TupleSpace) Delete(key string) bool {
	if t.parent != nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.data[key]; !ok {
		return false
	}
	delete(t.data, key)
	return true
}

// Keys implements PropertyGroup.
func (t *TupleSpace) Keys() []string {
	if t.parent != nil {
		return t.parent.Keys()
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	keys := make([]string, 0, len(t.data))
	for k := range t.data {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot returns a point-in-time copy of the tuples, so by-value
// propagation never ships a torn state.
func (t *TupleSpace) Snapshot() map[string]any {
	if t.parent != nil {
		return t.parent.Snapshot()
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make(map[string]any, len(t.data))
	for k, v := range t.data {
		out[k] = v
	}
	return out
}

// DeriveChild implements ChildDeriver per the configured visibility.
func (t *TupleSpace) DeriveChild() PropertyGroup {
	switch t.visibility {
	case VisibilityShared:
		return t
	case VisibilityCopy:
		child := NewTupleSpace(t.name, t.visibility, t.propagation)
		child.replace(t.Snapshot())
		return child
	case VisibilityReadOnly:
		root := t
		for root.parent != nil {
			root = root.parent
		}
		return &TupleSpace{
			name:        t.name,
			visibility:  t.visibility,
			propagation: t.propagation,
			parent:      root,
		}
	default:
		return t
	}
}

// MarshalTuples encodes the group's tuples for by-value propagation.
func (t *TupleSpace) MarshalTuples() ([]byte, error) {
	b, err := cdr.MarshalAny(t.Snapshot())
	if err != nil {
		return nil, fmt.Errorf("core: marshal property group %q: %w", t.name, err)
	}
	return b, nil
}

// UnmarshalTuples replaces the group's tuples from an encoded snapshot.
func (t *TupleSpace) UnmarshalTuples(b []byte) error {
	v, err := cdr.UnmarshalAny(b)
	if err != nil {
		return fmt.Errorf("core: unmarshal property group %q: %w", t.name, err)
	}
	m, ok := v.(map[string]any)
	if !ok {
		return fmt.Errorf("core: property group %q payload is %T, want map", t.name, v)
	}
	t.replace(m)
	return nil
}

// replace swaps in m as the full tuple contents, atomically. The space
// takes ownership of m: both callers pass a map nothing else holds (a
// Snapshot copy or a freshly decoded payload).
func (t *TupleSpace) replace(m map[string]any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.data = m
}

// deriveChild applies the nesting behaviour of any PropertyGroup.
func deriveChild(pg PropertyGroup) PropertyGroup {
	if d, ok := pg.(ChildDeriver); ok {
		return d.DeriveChild()
	}
	return pg
}

// AddPropertyGroup registers a property group with the activity. Children
// begun afterwards derive their view per the group's nesting behaviour.
func (a *Activity) AddPropertyGroup(pg PropertyGroup) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.state == ActivityCompleted {
		return fmt.Errorf("%w: %s", ErrActivityInactive, a.name)
	}
	if _, dup := a.pgroups[pg.Name()]; dup {
		return fmt.Errorf("%w: %q on %s", ErrDuplicatePropertyGroup, pg.Name(), a.name)
	}
	a.pgroups[pg.Name()] = pg
	return nil
}

// PropertyGroup returns the activity's group with the given name.
func (a *Activity) PropertyGroup(name string) (PropertyGroup, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	pg, ok := a.pgroups[name]
	return pg, ok
}

// PropertyGroupNames lists the activity's registered groups, sorted.
func (a *Activity) PropertyGroupNames() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	names := make([]string, 0, len(a.pgroups))
	for n := range a.pgroups {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
