package lruow

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/lockmgr"
)

const lockWait = 50 * time.Millisecond

func fixture() (*core.Service, *Store, *lockmgr.Manager) {
	return core.New(), NewStore(), lockmgr.New()
}

func TestRehearseAndPerform(t *testing.T) {
	svc, st, locks := fixture()
	st.Put("balance", []byte("100"))
	ctx := context.Background()

	u := Begin(svc, "uow", st, locks, lockWait)
	val, ok, err := u.Read("balance")
	if err != nil || !ok || string(val) != "100" {
		t.Fatalf("read: %q ok=%v err=%v", val, ok, err)
	}
	if err := u.Write("balance", []byte("75")); err != nil {
		t.Fatal(err)
	}
	// Rehearsal writes are private.
	if got, _, _ := st.Get("balance"); string(got) != "100" {
		t.Fatalf("store mutated during rehearsal: %q", got)
	}
	// Reads see own writes.
	val, _, _ = u.Read("balance")
	if string(val) != "75" {
		t.Fatalf("own read = %q", val)
	}
	if err := u.Complete(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.Get("balance"); string(got) != "75" {
		t.Fatalf("store = %q after performance", got)
	}
	if svc.Live() != 0 {
		t.Fatalf("live activities = %d", svc.Live())
	}
}

func TestStalePredicateDiscards(t *testing.T) {
	svc, st, locks := fixture()
	st.Put("k", []byte("v1"))
	ctx := context.Background()

	u := Begin(svc, "uow", st, locks, lockWait)
	if _, _, err := u.Read("k"); err != nil {
		t.Fatal(err)
	}
	_ = u.Write("k", []byte("mine"))

	// A concurrent writer invalidates the predicate during the (long)
	// rehearsal.
	st.Put("k", []byte("theirs"))

	err := u.Complete(ctx)
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v, want ErrStale", err)
	}
	// The store keeps the interloper's value.
	if got, _, _ := st.Get("k"); string(got) != "theirs" {
		t.Fatalf("store = %q", got)
	}
	// The locks were released on discard.
	if _, held := locks.HeldMode("k"); held {
		t.Fatal("locks leaked after discard")
	}
}

func TestRetryAfterStaleSucceeds(t *testing.T) {
	svc, st, locks := fixture()
	st.Put("k", []byte("v1"))
	ctx := context.Background()

	u := Begin(svc, "first", st, locks, lockWait)
	_, _, _ = u.Read("k")
	_ = u.Write("k", []byte("w1"))
	st.Put("k", []byte("conflict"))
	if err := u.Complete(ctx); !errors.Is(err, ErrStale) {
		t.Fatal(err)
	}
	// Re-rehearse against current state, then perform.
	u2 := Begin(svc, "second", st, locks, lockWait)
	_, _, _ = u2.Read("k")
	_ = u2.Write("k", []byte("w2"))
	if err := u2.Complete(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.Get("k"); string(got) != "w2" {
		t.Fatalf("store = %q", got)
	}
}

func TestWriteOnlyNeedsNoPredicate(t *testing.T) {
	svc, st, locks := fixture()
	ctx := context.Background()
	u := Begin(svc, "blind-write", st, locks, lockWait)
	_ = u.Write("new-key", []byte("value"))
	// Concurrent unrelated write must not invalidate a blind write.
	st.Put("other", []byte("x"))
	if err := u.Complete(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.Get("new-key"); string(got) != "value" {
		t.Fatalf("store = %q", got)
	}
}

func TestAbsentKeyPredicate(t *testing.T) {
	// Reading an absent key records version 0; creation of the key by
	// another party invalidates the rehearsal.
	svc, st, locks := fixture()
	ctx := context.Background()
	u := Begin(svc, "uow", st, locks, lockWait)
	if _, ok, err := u.Read("ghost"); err != nil || ok {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	_ = u.Write("dependent", []byte("x"))
	st.Put("ghost", []byte("appeared"))
	if err := u.Complete(ctx); !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v", err)
	}
}

func TestNestedPromotion(t *testing.T) {
	svc, st, locks := fixture()
	st.Put("a", []byte("1"))
	ctx := context.Background()

	parent := Begin(svc, "parent", st, locks, lockWait)
	child, err := parent.BeginChild("child")
	if err != nil {
		t.Fatal(err)
	}
	// The child rehearses: reads a (predicate) and writes b.
	if _, _, err := child.Read("a"); err != nil {
		t.Fatal(err)
	}
	_ = child.Write("b", []byte("from-child"))
	if err := child.Complete(ctx); err != nil {
		t.Fatal(err)
	}
	// Nothing hit the store yet: only promotion happened.
	if _, _, ok := st.Get("b"); ok {
		t.Fatal("child write reached store before top-level performance")
	}
	// The parent sees the promoted write.
	v, ok, err := parent.Read("b")
	if err != nil || !ok || string(v) != "from-child" {
		t.Fatalf("parent read = %q ok=%v err=%v", v, ok, err)
	}
	if err := parent.Complete(ctx); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := st.Get("b"); string(got) != "from-child" {
		t.Fatalf("store = %q", got)
	}
}

func TestNestedPredicatePromotes(t *testing.T) {
	// A predicate recorded in a child must still guard the top-level
	// performance.
	svc, st, locks := fixture()
	st.Put("guarded", []byte("v"))
	ctx := context.Background()
	parent := Begin(svc, "parent", st, locks, lockWait)
	child, _ := parent.BeginChild("child")
	_, _, _ = child.Read("guarded")
	_ = child.Write("out", []byte("x"))
	if err := child.Complete(ctx); err != nil {
		t.Fatal(err)
	}
	st.Put("guarded", []byte("changed"))
	if err := parent.Complete(ctx); !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v", err)
	}
}

func TestAbandonDiscardsEverything(t *testing.T) {
	svc, st, locks := fixture()
	ctx := context.Background()
	u := Begin(svc, "doomed", st, locks, lockWait)
	_ = u.Write("k", []byte("x"))
	if err := u.Abandon(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := st.Get("k"); ok {
		t.Fatal("abandoned write reached store")
	}
	if err := u.Complete(ctx); !errors.Is(err, ErrCompleted) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := u.Read("k"); !errors.Is(err, ErrCompleted) {
		t.Fatalf("read err = %v", err)
	}
	if err := u.Write("k", nil); !errors.Is(err, ErrCompleted) {
		t.Fatalf("write err = %v", err)
	}
}

func TestPerformanceBlockedByLockTimesOut(t *testing.T) {
	svc, st, locks := fixture()
	st.Put("contested", []byte("v"))
	ctx := context.Background()
	// An outside party write-locks the key.
	if err := locks.Acquire("outsider", "contested", lockmgr.Write, lockWait); err != nil {
		t.Fatal(err)
	}
	u := Begin(svc, "blocked", st, locks, lockWait)
	_, _, _ = u.Read("contested")
	_ = u.Write("contested", []byte("w"))
	err := u.Complete(ctx)
	// The performance phase could not obtain locks: treated as stale
	// (validation could not run).
	if !errors.Is(err, ErrStale) {
		t.Fatalf("err = %v", err)
	}
	if got, _, _ := st.Get("contested"); string(got) != "v" {
		t.Fatalf("store = %q", got)
	}
}

func TestTouchedCount(t *testing.T) {
	svc, st, locks := fixture()
	u := Begin(svc, "count", st, locks, lockWait)
	_, _, _ = u.Read("a")
	_, _, _ = u.Read("b")
	_ = u.Write("b", nil)
	_ = u.Write("c", nil)
	if got := u.Touched(); got != 3 {
		t.Fatalf("touched = %d", got)
	}
}
