package orb

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// opGateServant blocks every operation except "commit" until released,
// letting tests pin the server in a saturated state.
type opGateServant struct {
	entered chan struct{}
	release chan struct{}
}

func (s *opGateServant) Dispatch(ctx context.Context, op string, _ *cdr.Decoder) ([]byte, error) {
	if op == "commit" {
		return []byte("committed"), nil
	}
	s.entered <- struct{}{}
	select {
	case <-s.release:
	case <-ctx.Done():
	}
	return []byte("done"), nil
}

// TestPriorityOpsAdmittedUnderSaturation saturates the shared dispatch
// slots and the wait queue with first-contact work, then proves a
// completion verb still gets through on the reserved slot while further
// first-contact work is shed.
func TestPriorityOpsAdmittedUnderSaturation(t *testing.T) {
	const (
		maxInflight = 2                 // 1 shared + 1 reserved
		saturating  = 2*maxInflight + 1 // fills the queue, plus one
	)
	srv := New(WithMaxInflight(maxInflight), WithPriorityOps(1))
	t.Cleanup(srv.Shutdown)
	servant := &opGateServant{entered: make(chan struct{}, 4), release: make(chan struct{})}
	ref := srv.RegisterServant("IDL:test/Gate:1.0", servant)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = srv.IOR(ref.Key)
	client := New(WithCallTimeout(5 * time.Second))
	defer client.Shutdown()
	ctx := context.Background()

	// Occupy the single shared slot.
	blockerDone := make(chan error, 1)
	go func() {
		_, err := client.Invoke(ctx, ref, "begin", nil)
		blockerDone <- err
	}()
	<-servant.entered

	// Saturate the wait queue: these first-contact calls can only queue
	// (depth 2×maxInflight) and shed; none may touch the reserved slot.
	shedDone := make(chan error, saturating)
	for i := 0; i < saturating; i++ {
		go func() {
			_, err := client.Invoke(ctx, ref, "begin", nil)
			shedDone <- err
		}()
	}

	// The completion verb must still be admitted — reserved slot — and
	// return well before the blocked servant frees anything.
	start := time.Now()
	body, err := client.Invoke(ctx, ref, "commit", nil)
	if err != nil {
		t.Fatalf("priority commit shed under saturation: %v", err)
	}
	if string(body) != "committed" {
		t.Fatalf("commit reply = %q", body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("commit took %s, want fast reserved-slot admission", elapsed)
	}

	// Every saturating first-contact call ends up shed with TRANSIENT.
	for i := 0; i < saturating; i++ {
		if err := <-shedDone; !IsSystem(err, CodeTransient) {
			t.Fatalf("saturating call %d: err = %v, want TRANSIENT shed", i, err)
		}
	}

	close(servant.release)
	if err := <-blockerDone; err != nil {
		t.Fatalf("blocker err = %v", err)
	}

	st, ok := srv.ServerStats()
	if !ok {
		t.Fatal("no server stats while listening")
	}
	if st.ReservedSlots != 1 || st.MaxInflight != 2 {
		t.Fatalf("stats = %+v, want 1 reserved of 2", st)
	}
	if st.PriorityDispatched != 1 || st.PriorityShed != 0 {
		t.Fatalf("priority counters = dispatched %d / shed %d, want 1 / 0",
			st.PriorityDispatched, st.PriorityShed)
	}
	if st.Shed != saturating || st.Dispatched != 2 { // blocker + commit admitted
		t.Fatalf("stats = %+v, want dispatched=2 shed=%d", st, saturating)
	}
	// The server writes a reply before it releases the slot, so the gauges
	// may trail the callers' return by a moment.
	deadline := time.Now().Add(2 * time.Second)
	for st.Inflight != 0 || st.PriorityInflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("gauges after quiesce = %+v, want zero", st)
		}
		time.Sleep(time.Millisecond)
		st, _ = srv.ServerStats()
	}
}

// TestPriorityReserveClampedToLeaveSharedSlot: a reservation as large as
// the whole dispatch bound must be clamped so non-priority work can still
// run at all.
func TestPriorityReserveClampedToLeaveSharedSlot(t *testing.T) {
	srv := New(WithMaxInflight(1), WithPriorityOps(5))
	t.Cleanup(srv.Shutdown)
	ref := srv.RegisterServant("IDL:test/Echo:1.0",
		ServantFunc(func(_ context.Context, _ string, _ *cdr.Decoder) ([]byte, error) {
			return []byte("ok"), nil
		}))
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = srv.IOR(ref.Key)
	st, ok := srv.ServerStats()
	if !ok {
		t.Fatal("no server stats")
	}
	if st.ReservedSlots != 0 || st.MaxInflight != 1 {
		t.Fatalf("stats = %+v, want clamped reservation (0 of 1)", st)
	}
	// A plain (non-priority) op still dispatches.
	client := New()
	defer client.Shutdown()
	if _, err := client.Invoke(context.Background(), ref, "anything", nil); err != nil {
		t.Fatal(err)
	}
}

// TestServerStatsPriorityFieldsRoundTrip pins that every ServerStats
// field, the priority ones included, survives the trip through samples
// that AdminClient.ServerStats decodes.
func TestServerStatsPriorityFieldsRoundTrip(t *testing.T) {
	in := ServerStats{
		Endpoint:           "tcp:127.0.0.1:1",
		Endpoints:          []string{"tcp:127.0.0.1:1"},
		Conns:              3,
		Inflight:           2,
		Queued:             1,
		Shed:               7,
		Dispatched:         9,
		MaxInflight:        8,
		QueueDepth:         4,
		ShedAfter:          50 * time.Millisecond,
		ReservedSlots:      2,
		PriorityInflight:   1,
		PriorityDispatched: 5,
		PriorityShed:       1,
		Servants:           6,
	}
	ss, err := decodeSamples(encodeSamples(in.appendSamples(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if out, ok := serverStatsFrom(ss); !ok || !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip = %+v, want %+v", out, in)
	}
}
