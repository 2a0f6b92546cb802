package core

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestTupleSpaceBasics(t *testing.T) {
	ts := NewTupleSpace("env", VisibilityShared, PropagateByValue)
	if err := ts.Set("locale", "en_GB"); err != nil {
		t.Fatal(err)
	}
	if err := ts.Set("retries", int64(3)); err != nil {
		t.Fatal(err)
	}
	v, ok := ts.Get("locale")
	if !ok || v != "en_GB" {
		t.Fatalf("locale = %v ok=%v", v, ok)
	}
	keys := ts.Keys()
	if len(keys) != 2 || keys[0] != "locale" || keys[1] != "retries" {
		t.Fatalf("keys = %v", keys)
	}
	if !ts.Delete("locale") {
		t.Fatal("delete failed")
	}
	if ts.Delete("locale") {
		t.Fatal("second delete succeeded")
	}
}

func TestTupleSpaceRejectsUncodableValues(t *testing.T) {
	ts := NewTupleSpace("env", VisibilityShared, PropagateByValue)
	type opaque struct{ X chan int }
	if err := ts.Set("bad", opaque{}); !errors.Is(err, ErrUncodableProperty) {
		t.Fatalf("err = %v", err)
	}
}

func TestSharedVisibility(t *testing.T) {
	svc := New()
	parent := svc.Begin("parent")
	pg := NewTupleSpace("shared", VisibilityShared, PropagateNone)
	_ = pg.Set("k", "parent-value")
	if err := parent.AddPropertyGroup(pg); err != nil {
		t.Fatal(err)
	}
	child, _ := parent.BeginChild("child")
	cpg, ok := child.PropertyGroup("shared")
	if !ok {
		t.Fatal("child missing group")
	}
	// Child sees parent value, and updates flow both ways.
	if v, _ := cpg.Get("k"); v != "parent-value" {
		t.Fatalf("child read %v", v)
	}
	if err := cpg.Set("k", "child-update"); err != nil {
		t.Fatal(err)
	}
	if v, _ := pg.Get("k"); v != "child-update" {
		t.Fatalf("parent read %v after child update", v)
	}
}

func TestCopyVisibilityIsolatesChild(t *testing.T) {
	svc := New()
	parent := svc.Begin("parent")
	pg := NewTupleSpace("ctx", VisibilityCopy, PropagateNone)
	_ = pg.Set("k", "original")
	_ = parent.AddPropertyGroup(pg)
	child, _ := parent.BeginChild("child")
	cpg, _ := child.PropertyGroup("ctx")

	// Child starts from the snapshot…
	if v, _ := cpg.Get("k"); v != "original" {
		t.Fatalf("child read %v", v)
	}
	// …but its updates stay private.
	_ = cpg.Set("k", "child-only")
	if v, _ := pg.Get("k"); v != "original" {
		t.Fatalf("parent read %v after isolated child update", v)
	}
	// And parent updates after the fork are invisible to the child.
	_ = pg.Set("k", "parent-after")
	if v, _ := cpg.Get("k"); v != "child-only" {
		t.Fatalf("child read %v", v)
	}
}

func TestReadOnlyVisibility(t *testing.T) {
	// The paper's PG1 example: client environment (locale) must not be
	// overridden in nested contexts.
	svc := New()
	parent := svc.Begin("parent")
	pg := NewTupleSpace("clientenv", VisibilityReadOnly, PropagateByValue)
	_ = pg.Set("locale", "en_GB")
	_ = parent.AddPropertyGroup(pg)
	child, _ := parent.BeginChild("child")
	cpg, _ := child.PropertyGroup("clientenv")

	if v, _ := cpg.Get("locale"); v != "en_GB" {
		t.Fatalf("child read %v", v)
	}
	if err := cpg.Set("locale", "fr_FR"); !errors.Is(err, ErrReadOnlyProperty) {
		t.Fatalf("err = %v", err)
	}
	if cpg.Delete("locale") {
		t.Fatal("delete through read-only view succeeded")
	}
	// Live view: parent updates are visible to the child.
	_ = pg.Set("locale", "de_DE")
	if v, _ := cpg.Get("locale"); v != "de_DE" {
		t.Fatalf("child read %v after parent update", v)
	}
	// Grandchildren read the root, not an intermediate view.
	grand, _ := child.BeginChild("grand")
	gpg, _ := grand.PropertyGroup("clientenv")
	if v, _ := gpg.Get("locale"); v != "de_DE" {
		t.Fatalf("grandchild read %v", v)
	}
}

func TestTwoGroupsWithDifferentBehaviours(t *testing.T) {
	// §3.3: "There are obviously scenarios where both types of
	// PropertyGroup could be used at the same time" — PG1 client
	// environment (read-only) plus PG2 application context (isolated copy).
	svc := New()
	parent := svc.Begin("parent")
	pg1 := NewTupleSpace("pg1", VisibilityReadOnly, PropagateByValue)
	pg2 := NewTupleSpace("pg2", VisibilityCopy, PropagateByValue)
	_ = pg1.Set("codepage", "utf-8")
	_ = pg2.Set("step", int64(1))
	_ = parent.AddPropertyGroup(pg1)
	_ = parent.AddPropertyGroup(pg2)

	child, _ := parent.BeginChild("child")
	names := child.PropertyGroupNames()
	if len(names) != 2 || names[0] != "pg1" || names[1] != "pg2" {
		t.Fatalf("names = %v", names)
	}
	c1, _ := child.PropertyGroup("pg1")
	c2, _ := child.PropertyGroup("pg2")
	if err := c1.Set("codepage", "latin1"); err == nil {
		t.Fatal("pg1 writable in child")
	}
	if err := c2.Set("step", int64(2)); err != nil {
		t.Fatal(err)
	}
	if v, _ := pg2.Get("step"); v != int64(1) {
		t.Fatalf("parent pg2 step = %v", v)
	}
}

func TestDuplicatePropertyGroupRejected(t *testing.T) {
	svc := New()
	a := svc.Begin("A")
	_ = a.AddPropertyGroup(NewTupleSpace("pg", VisibilityShared, PropagateNone))
	err := a.AddPropertyGroup(NewTupleSpace("pg", VisibilityCopy, PropagateNone))
	if !errors.Is(err, ErrDuplicatePropertyGroup) {
		t.Fatalf("err = %v", err)
	}
}

func TestTuplesMarshalRoundTrip(t *testing.T) {
	ts := NewTupleSpace("env", VisibilityShared, PropagateByValue)
	_ = ts.Set("s", "str")
	_ = ts.Set("n", int64(42))
	_ = ts.Set("list", []any{int64(1), "two"})
	b, err := ts.MarshalTuples()
	if err != nil {
		t.Fatal(err)
	}
	other := NewTupleSpace("env", VisibilityShared, PropagateByValue)
	if err := other.UnmarshalTuples(b); err != nil {
		t.Fatal(err)
	}
	if v, _ := other.Get("n"); v != int64(42) {
		t.Fatalf("n = %v", v)
	}
	if v, _ := other.Get("s"); v != "str" {
		t.Fatalf("s = %v", v)
	}
}

// TestCopiedSpacesShareNoMap pins replace's ownership rule: a
// VisibilityCopy child, and a group loaded by UnmarshalTuples, own their
// tuples outright, so adds and deletes on either side never reach the other.
func TestCopiedSpacesShareNoMap(t *testing.T) {
	src := NewTupleSpace("ctx", VisibilityCopy, PropagateByValue)
	_ = src.Set("k", "v")
	b, err := src.MarshalTuples()
	if err != nil {
		t.Fatal(err)
	}
	loaded := NewTupleSpace("ctx", VisibilityCopy, PropagateByValue)
	if err := loaded.UnmarshalTuples(b); err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]*TupleSpace{
		"copy child":  src.DeriveChild().(*TupleSpace),
		"unmarshaled": loaded,
	} {
		_ = other.Set("other-only", int64(1))
		_ = src.Set(name, int64(2))
		if _, ok := src.Get("other-only"); ok {
			t.Fatalf("%s: its new key is visible in the source", name)
		}
		if _, ok := other.Get(name); ok {
			t.Fatalf("%s: the source's new key is visible in it", name)
		}
		if !other.Delete("k") {
			t.Fatalf("%s: did not start from the source's tuples", name)
		}
		if v, _ := src.Get("k"); v != "v" {
			t.Fatalf("%s: its delete reached the source (k = %v)", name, v)
		}
	}
}

func TestQuickTuplesRoundTrip(t *testing.T) {
	f := func(keys []string, vals []int64) bool {
		ts := NewTupleSpace("q", VisibilityShared, PropagateByValue)
		n := len(keys)
		if len(vals) < n {
			n = len(vals)
		}
		want := make(map[string]int64, n)
		for i := 0; i < n; i++ {
			if err := ts.Set(keys[i], vals[i]); err != nil {
				return false
			}
			want[keys[i]] = vals[i]
		}
		b, err := ts.MarshalTuples()
		if err != nil {
			return false
		}
		got := NewTupleSpace("q", VisibilityShared, PropagateByValue)
		if err := got.UnmarshalTuples(b); err != nil {
			return false
		}
		for k, v := range want {
			gv, ok := got.Get(k)
			if !ok || gv != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
