package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/extendedtx/activityservice/internal/trace"
)

// TestStressConcurrentLifecycle hammers one shared Service from many
// goroutines, each running full begin/register/add-action/signal/complete
// cycles under both delivery policies, with tracing on so the recorder is
// stressed too. Must be clean under -race.
func TestStressConcurrentLifecycle(t *testing.T) {
	const (
		goroutines = 16
		iterations = 25
	)
	rec := trace.New()
	svc := New(WithTrace(rec), WithDelivery(Parallel()))
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				a := svc.Begin(fmt.Sprintf("g%d-i%d", g, i))
				set := NewSequenceSet("work", "step1", "step2")
				if g%2 == 0 {
					set.SetDelivery(DeliveryPolicy{Mode: DeliverSerial})
				}
				if err := a.RegisterSignalSet(set); err != nil {
					errs <- err
					return
				}
				for k := 0; k < 4; k++ {
					if _, err := a.AddAction("work", ActionFunc(
						func(context.Context, Signal) (Outcome, error) {
							return Outcome{Name: "ok"}, nil
						})); err != nil {
						errs <- err
						return
					}
				}
				if _, err := a.Signal(ctx, "work"); err != nil {
					errs <- err
					return
				}
				if _, ok := svc.Find(a.ID()); !ok {
					errs <- fmt.Errorf("activity %s not found while live", a.Name())
					return
				}
				if _, err := a.Complete(ctx); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if live := svc.Live(); live != 0 {
		t.Fatalf("Live() = %d after all completions, want 0", live)
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured nothing")
	}
}

// TestStressAddRemoveDuringBroadcast mutates a set's registrations while a
// broadcast over that set is in flight, under every policy. The broadcast
// must observe a consistent snapshot and never race.
func TestStressAddRemoveDuringBroadcast(t *testing.T) {
	for _, policy := range []DeliveryPolicy{{Mode: DeliverSerial}, Parallel(), Tree(4)} {
		t.Run(policy.Mode.String(), func(t *testing.T) {
			coord := newCoordinator("A", testGen(), nil, RetryPolicy{Attempts: 1}, policy, nil)
			var delivered atomic.Int32
			slowAction := ActionFunc(func(context.Context, Signal) (Outcome, error) {
				delivered.Add(1)
				return Outcome{Name: "ok"}, nil
			})
			for i := 0; i < 32; i++ {
				coord.AddAction("s", slowAction)
			}

			stop := make(chan struct{})
			var churn sync.WaitGroup
			for w := 0; w < 4; w++ {
				churn.Add(1)
				go func() {
					defer churn.Done()
					var mine []ActionID
					for {
						select {
						case <-stop:
							for _, id := range mine {
								coord.RemoveAction("s", id)
							}
							return
						default:
							id := coord.AddAction("s", slowAction)
							mine = append(mine, id)
							if len(mine) > 8 {
								coord.RemoveAction("s", mine[0])
								mine = mine[1:]
							}
						}
					}
				}()
			}

			for i := 0; i < 20; i++ {
				set := NewSequenceSet("s", "sig-a", "sig-b")
				if _, err := coord.ProcessSignalSet(context.Background(), set); err != nil {
					t.Fatal(err)
				}
				// Each broadcast snapshots registrations: at least the 32
				// stable actions hear both signals.
				if got := len(set.Responses()); got < 64 {
					t.Fatalf("responses = %d, want >= 64", got)
				}
			}
			close(stop)
			churn.Wait()
			if delivered.Load() == 0 {
				t.Fatal("nothing delivered")
			}
		})
	}
}

// TestStressTupleSpace hammers one TupleSpace with concurrent
// readers, writers, deleters, snapshotters and child derivation.
func TestStressTupleSpace(t *testing.T) {
	ts := NewTupleSpace("env", VisibilityCopy, PropagateByValue)
	const goroutines = 12
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("k%d-%d", g, i%64)
				switch i % 5 {
				case 0, 1:
					if err := ts.Set(key, int64(i)); err != nil {
						t.Error(err)
						return
					}
				case 2:
					ts.Get(key)
				case 3:
					ts.Delete(key)
				case 4:
					if i%20 == 4 {
						_ = ts.Keys()
						_ = ts.Snapshot()
						_ = deriveChild(ts)
					}
				}
			}
		}()
	}
	// Run the churn briefly, then stop.
	for i := 0; i < 50; i++ {
		_ = ts.Keys()
	}
	close(stop)
	wg.Wait()

	// The space still behaves: a fresh write is readable and marshals.
	if err := ts.Set("final", "done"); err != nil {
		t.Fatal(err)
	}
	if v, ok := ts.Get("final"); !ok || v != "done" {
		t.Fatalf("Get(final) = %v, %v", v, ok)
	}
	if _, err := ts.MarshalTuples(); err != nil {
		t.Fatal(err)
	}
}

// TestStressSharedTupleSpaceAcrossChildren drives concurrent nested
// activities sharing one VisibilityShared group, exercising the space
// through the activity tree.
func TestStressSharedTupleSpaceAcrossChildren(t *testing.T) {
	svc := New()
	root := svc.Begin("root")
	shared := NewTupleSpace("counters", VisibilityShared, PropagateNone)
	if err := root.AddPropertyGroup(shared); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const kids = 10
	var wg sync.WaitGroup
	errs := make(chan error, kids)
	for k := 0; k < kids; k++ {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			child, err := root.BeginChild(fmt.Sprintf("child%d", k))
			if err != nil {
				errs <- err
				return
			}
			pg, ok := child.PropertyGroup("counters")
			if !ok {
				errs <- fmt.Errorf("child %d: no shared group", k)
				return
			}
			for i := 0; i < 50; i++ {
				if err := pg.Set(fmt.Sprintf("c%d-%d", k, i), int64(i)); err != nil {
					errs <- err
					return
				}
			}
			if _, err := child.Complete(ctx); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(shared.Keys()); got != kids*50 {
		t.Fatalf("shared keys = %d, want %d", got, kids*50)
	}
	if _, err := root.Complete(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotNeverTorn pins the whole-space atomicity of Snapshot: a
// writer always bumps key kA before kB, so no point-in-time state ever
// has kB newer than kA. A copy that read kA before the bump and kB after
// would show a state that never existed. Snapshot must never observe it.
func TestSnapshotNeverTorn(t *testing.T) {
	const kA, kB = "key-a", "key-b"
	ts := NewTupleSpace("inv", VisibilityShared, PropagateNone)
	if err := ts.Set(kA, int64(0)); err != nil {
		t.Fatal(err)
	}
	if err := ts.Set(kB, int64(0)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = ts.Set(kA, i)
			_ = ts.Set(kB, i)
		}
	}()

	for i := 0; i < 2000; i++ {
		snap := ts.Snapshot()
		a := snap[kA].(int64)
		b := snap[kB].(int64)
		if b > a {
			close(stop)
			wg.Wait()
			t.Fatalf("torn snapshot: %s=%d written-first but %s=%d is newer", kA, a, kB, b)
		}
	}
	close(stop)
	wg.Wait()
}

// TestBeginChildVsSuspendNeverLeaks races BeginChild against Suspend: a
// child whose creation loses the race (parent no longer active at the
// re-check) must be unwound from the live registry, so after everything
// completes the Service is empty.
func TestBeginChildVsSuspendNeverLeaks(t *testing.T) {
	svc := New()
	ctx := context.Background()
	for i := 0; i < 300; i++ {
		root := svc.Begin(fmt.Sprintf("root%d", i))
		var wg sync.WaitGroup
		var child *Activity
		wg.Add(2)
		go func() {
			defer wg.Done()
			c, err := root.BeginChild("kid")
			if err == nil {
				child = c
			}
		}()
		go func() {
			defer wg.Done()
			_ = root.Suspend()
		}()
		wg.Wait()
		if root.State() == ActivitySuspended {
			if err := root.Resume(); err != nil {
				t.Fatal(err)
			}
		}
		if child != nil {
			if _, err := child.Complete(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := root.Complete(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if live := svc.Live(); live != 0 {
		t.Fatalf("Live() = %d after completing everything, want 0 (stillborn children leaked)", live)
	}
}
