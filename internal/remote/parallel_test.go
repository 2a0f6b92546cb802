package remote

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/trace"
)

// runRemoteBroadcast drives one protocol whose actions live behind the ORB
// on another node, under the given delivery policy, and returns the encoded
// collated outcome plus the coordinator's compact trace — the remote mirror
// of runBroadcast in internal/core/delivery_test.go.
func runRemoteBroadcast(t *testing.T, policy core.DeliveryPolicy, nSignals, nActions int, latency func(i int) time.Duration) ([]byte, []string) {
	t.Helper()
	serverORB := orb.New()
	defer serverORB.Shutdown()
	if _, err := serverORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	clientORB := orb.New(orb.WithPoolSize(4))
	defer clientORB.Shutdown()

	rec := trace.New()
	svc := core.New(core.WithTrace(rec), core.WithRetryPolicy(core.RetryPolicy{Attempts: 1}))
	a := svc.Begin("remote-fanout")

	var names []string
	for i := 0; i < nSignals; i++ {
		names = append(names, fmt.Sprintf("sig%d", i))
	}
	set := core.NewSequenceSet("s", names...).Collate(func(responses []core.Outcome) core.Outcome {
		parts := make([]string, len(responses))
		for i, r := range responses {
			parts[i] = r.Name
		}
		return core.Outcome{Name: "collated", Data: strings.Join(parts, ",")}
	})
	set.SetDelivery(policy)
	if err := a.RegisterSignalSet(set); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < nActions; i++ {
		i := i
		ref := ExportAction(serverORB, core.ActionFunc(
			func(_ context.Context, sig core.Signal) (core.Outcome, error) {
				if latency != nil {
					if d := latency(i); d > 0 {
						time.Sleep(d)
					}
				}
				return core.Outcome{Name: fmt.Sprintf("ok-%d-%s", i, sig.Name)}, nil
			}))
		ref, _ = serverORB.IOR(ref.Key)
		if _, err := a.AddNamedAction("s", fmt.Sprintf("act%d", i), ImportAction(clientORB, ref)); err != nil {
			t.Fatal(err)
		}
	}

	out, err := a.Signal(context.Background(), "s")
	if err != nil {
		t.Fatalf("Signal(%s): %v", policy.Mode, err)
	}
	e := cdr.NewEncoder(64)
	if err := out.Encode(e); err != nil {
		t.Fatalf("encode outcome: %v", err)
	}
	return append([]byte(nil), e.Bytes()...), rec.Sequence()
}

// TestRemoteDifferentialParallelMatchesSerial is the distributed
// differential property test: fanning a broadcast out to remote actions in
// parallel over the pooled transport produces byte-identical collated
// outcomes and identical traces to serial remote delivery.
func TestRemoteDifferentialParallelMatchesSerial(t *testing.T) {
	shapes := []struct {
		signals, actions, seed int
	}{
		{1, 4, 0},
		{2, 8, 3},
		{3, 5, 1},
		{1, 12, 7},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(fmt.Sprintf("signals=%d/actions=%d", sh.signals, sh.actions), func(t *testing.T) {
			latency := func(i int) time.Duration {
				// Deterministic per-action jitter so fast/slow interleavings
				// vary across actions.
				return time.Duration((sh.seed+i*7)%5) * 200 * time.Microsecond
			}
			serialOut, serialTrace := runRemoteBroadcast(t,
				core.DeliveryPolicy{}, sh.signals, sh.actions, latency)
			parallelOut, parallelTrace := runRemoteBroadcast(t,
				core.Parallel(), sh.signals, sh.actions, latency)
			if string(serialOut) != string(parallelOut) {
				t.Errorf("outcome mismatch:\nserial   = %x\nparallel = %x", serialOut, parallelOut)
			}
			if strings.Join(serialTrace, "\n") != strings.Join(parallelTrace, "\n") {
				t.Errorf("trace mismatch:\nserial:\n%s\nparallel:\n%s",
					strings.Join(serialTrace, "\n"), strings.Join(parallelTrace, "\n"))
			}
		})
	}
}

// TestRemoteParallelFanoutIsConcurrent proves the delivery engine and the
// connection pool compose end-to-end through the production path: an
// activity begun through a factory serving WithFactoryDelivery(Parallel())
// completes by broadcasting to remote actions that each hold the wire for
// 40ms, in far less than fanout×40ms.
func TestRemoteParallelFanoutIsConcurrent(t *testing.T) {
	const fanout = 8
	const actionLatency = 40 * time.Millisecond
	ctx := context.Background()

	serverORB := orb.New(orb.WithPoolSize(4))
	defer serverORB.Shutdown()
	if _, err := serverORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	factory := ServeActivityFactory(serverORB, core.New(), WithFactoryDelivery(core.Parallel()))
	clientORB := orb.New()
	defer clientORB.Shutdown()
	if _, err := clientORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	e := cdr.NewEncoder(32)
	e.WriteString("concurrent")
	body, err := clientORB.Invoke(ctx, factory.Ref(), "begin", e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := decodeIORReply(body)
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewActivityProxy(clientORB, ref)
	for i := 0; i < fanout; i++ {
		if _, err := proxy.AddAction(ctx, core.DefaultCompletionSet, core.ActionFunc(
			func(context.Context, core.Signal) (core.Outcome, error) {
				time.Sleep(actionLatency)
				return core.Outcome{Name: "ok"}, nil
			})); err != nil {
			t.Fatal(err)
		}
	}

	start := time.Now()
	out, err := proxy.Complete(ctx, core.CompletionSuccess)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if serialFloor := time.Duration(fanout) * actionLatency; elapsed >= serialFloor/2 {
		t.Fatalf("parallel remote fan-out took %s, want well under the %s serial floor", elapsed, serialFloor)
	}
	if out.Name != "completed" || out.Data != int64(fanout) {
		t.Fatalf("outcome = %+v, want completed with %d responses", out, fanout)
	}
}
