package core

import (
	"context"
	"fmt"
	"runtime"
	"slices"
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
	svc := New(WithTrace(rec))
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
				if g%2 == 1 {
					set.SetDelivery(Parallel())
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

// TestStressAddRemoveDuringBroadcast enrols into a set while broadcasts
// over that set are in flight, under every policy. Each broadcast must
// observe a consistent snapshot and never race, and no enrolment may be
// lost.
func TestStressAddRemoveDuringBroadcast(t *testing.T) {
	for _, policy := range []DeliveryPolicy{{}, Parallel(), Tree(4)} {
		t.Run(policy.Mode.String(), func(t *testing.T) {
			act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
			var delivered atomic.Int32
			var heardMu sync.Mutex
			heard := map[string]int{}
			slowAction := ActionFunc(func(_ context.Context, sig Signal) (Outcome, error) {
				delivered.Add(1)
				heardMu.Lock()
				heard[sig.Name]++
				heardMu.Unlock()
				return Outcome{Name: "ok"}, nil
			})
			for i := 0; i < 32; i++ {
				act.AddAction("s", slowAction)
			}

			const churners, perChurner = 4, 64
			stop := make(chan struct{})
			var churn sync.WaitGroup
			var added atomic.Int32
			for w := 0; w < churners; w++ {
				churn.Add(1)
				go func() {
					defer churn.Done()
					for i := 0; i < perChurner; i++ {
						select {
						case <-stop:
							return
						default:
							act.AddAction("s", slowAction)
							added.Add(1)
							runtime.Gosched()
						}
					}
				}()
			}

			// One set of 40 signals: each round is one broadcast.
			sigs := make([]string, 40)
			for i := range sigs {
				sigs[i] = fmt.Sprintf("sig-%d", i)
			}
			set := NewSequenceSet("s", sigs...)
			set.SetDelivery(policy)
			if _, err := act.transmit(context.Background(), set); err != nil {
				t.Fatal(err)
			}
			// Each broadcast snapshots registrations: at least the 32
			// stable actions hear every signal.
			heardMu.Lock()
			for _, sig := range sigs {
				if heard[sig] < 32 {
					t.Fatalf("%s heard by %d actions, want >= 32", sig, heard[sig])
				}
			}
			heardMu.Unlock()
			close(stop)
			churn.Wait()
			if delivered.Load() == 0 {
				t.Fatal("nothing delivered")
			}
			if got, want := act.ActionCount("s"), 32+int(added.Load()); got != want {
				t.Fatalf("ActionCount = %d, want %d: an enrolment was lost", got, want)
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

// TestStressBaseSetFailOnlySticky races SetCompletionStatus(FailOnly)
// against Success and Fail writers, and Delivery readers against
// SetDelivery, on the lock-free BaseSet. FailOnly, once set, is never
// overwritten, and a reader sees only whole policies that were stored.
// FailOnly lands only once every writer is running, and the writers keep
// going for as long again afterwards.
func TestStressBaseSetFailOnlySticky(t *testing.T) {
	policies := []DeliveryPolicy{
		{},
		{Mode: DeliverTree, Branching: 7},
		{Mode: DeliverParallel, Branching: -3},
		{Mode: DeliverSerial, Branching: 1 << 30},
	}
	const writes = 2000 // per writer, before and after FailOnly
	for round := 0; round < 20; round++ {
		b := NewBaseSet("s")
		if cs := b.CompletionStatus(); cs != CompletionSuccess {
			t.Fatalf("zero status = %v, want Success", cs)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var done [2]atomic.Int64 // writes per writer
		var torn atomic.Value    // the first bad read, if any
		for w, cs := range []CompletionStatus{CompletionSuccess, CompletionFail} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					b.SetCompletionStatus(cs)
					b.SetDelivery(policies[(i+w)%len(policies)])
					done[w].Add(1)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if p := b.Delivery(); !slices.Contains(policies, p) {
					torn.Store(fmt.Sprintf("torn policy read: %+v", p))
					return
				}
				if cs := b.CompletionStatus(); !cs.Valid() {
					torn.Store(fmt.Sprintf("invalid status read: %v", cs))
					return
				}
			}
		}()
		waitWrites := func(n int64) {
			for done[0].Load() < n || done[1].Load() < n {
				runtime.Gosched()
			}
		}
		waitWrites(writes)
		b.SetCompletionStatus(CompletionFailOnly)
		waitWrites(2 * writes)
		lost := b.CompletionStatus()
		close(stop)
		wg.Wait()
		if msg := torn.Load(); msg != nil {
			t.Fatalf("round %d: %s", round, msg)
		}
		if lost != CompletionFailOnly {
			t.Fatalf("round %d: FailOnly lost to %v", round, lost)
		}
		if cs := b.CompletionStatus(); cs != CompletionFailOnly {
			t.Fatalf("round %d: final status %v, want FailOnly", round, cs)
		}
	}
}
