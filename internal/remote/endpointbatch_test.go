package remote

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/hls/twopc"
	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/trace"
)

// deliveryLog records, in arrival order, every signal the actions of an
// endpoint-batch test receive, across all their hosts.
type deliveryLog struct {
	mu     sync.Mutex
	events []string
}

func (l *deliveryLog) add(name, sig string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.events = append(l.events, name+":"+sig)
}

// of returns the logged deliveries of sig, in arrival order.
func (l *deliveryLog) of(sig string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, e := range l.events {
		if strings.HasSuffix(e, ":"+sig) {
			out = append(out, strings.TrimSuffix(e, ":"+sig))
		}
	}
	return out
}

// batchHost starts a listening ORB that hosts actions. Exporting on it
// installs its relay servant; nothing else does.
func batchHost(t *testing.T) *orb.ORB {
	t.Helper()
	host := orb.New()
	t.Cleanup(host.Shutdown)
	if _, err := host.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return host
}

// exportLogged exports an action on host that logs each signal under name
// and answers with answer (or "ok:<signal>" when answer is nil), and
// returns its reference.
func exportLogged(host *orb.ORB, log *deliveryLog, name string, answer func(core.Signal) (core.Outcome, error)) orb.IOR {
	return ExportAction(host, core.ActionFunc(func(_ context.Context, sig core.Signal) (core.Outcome, error) {
		log.add(name, sig.Name)
		if answer != nil {
			return answer(sig)
		}
		return core.Outcome{Name: "ok:" + sig.Name}, nil
	}))
}

// dispatched reads the host's inbound dispatch count.
func dispatched(t *testing.T, host *orb.ORB) uint64 {
	t.Helper()
	st, ok := host.ServerStats()
	if !ok {
		t.Fatal("host is not listening")
	}
	return st.Dispatched
}

// completeSet is the factory's completion set: one "complete" signal, no
// veto, so its only round cannot advance.
func completeSet() *core.SequenceSet {
	return core.NewSequenceSet("s", "complete").Collate(func(rs []core.Outcome) core.Outcome {
		names := make([]string, len(rs))
		for i, r := range rs {
			names[i] = r.Name
			if r.Name == "delivery-error" {
				names[i] += "(" + fmt.Sprint(r.Data) + ")"
			}
		}
		return core.Outcome{Name: "collated", Data: strings.Join(names, ",")}
	})
}

// TestEndpointBatchCompleteCostsOneDispatch completes an activity begun
// through the activity factory, as a remote caller does, over four actions
// the caller hosts: the completion costs the caller one inbound dispatch,
// and the actions still see the signal one at a time, in registration
// order.
func TestEndpointBatchCompleteCostsOneDispatch(t *testing.T) {
	ctx := context.Background()
	daemon := batchHost(t)
	factory := ServeActivityFactory(daemon, core.New())
	caller := batchHost(t)

	e := cdr.NewEncoder(32)
	e.WriteString("one-dispatch")
	body, err := caller.Invoke(ctx, factory.Ref(), "begin", e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := decodeIORReply(body)
	if err != nil {
		t.Fatal(err)
	}
	proxy := NewActivityProxy(caller, ref)
	var log deliveryLog
	var inFlight sync.Mutex
	for i := range 4 {
		name := fmt.Sprintf("a%d", i)
		if _, err := proxy.AddAction(ctx, core.DefaultCompletionSet, core.ActionFunc(
			func(context.Context, core.Signal) (core.Outcome, error) {
				// Each action runs alone: a predecessor still delivering
				// would hold the lock.
				if !inFlight.TryLock() {
					return core.Outcome{}, errors.New("delivered concurrently")
				}
				defer inFlight.Unlock()
				time.Sleep(time.Millisecond)
				log.add(name, "complete")
				return core.Outcome{Name: "ok"}, nil
			})); err != nil {
			t.Fatal(err)
		}
	}

	before := dispatched(t, caller)
	out, err := proxy.Complete(ctx, core.CompletionSuccess)
	if err != nil {
		t.Fatal(err)
	}
	if got := dispatched(t, caller) - before; got != 1 {
		t.Fatalf("completion cost the caller %d inbound dispatches, want 1", got)
	}
	if out.Name != "completed" || out.Data != int64(4) {
		t.Fatalf("outcome = %+v, want completed with 4 responses", out)
	}
	if got, want := strings.Join(log.of("complete"), ","), "a0,a1,a2,a3"; got != want {
		t.Fatalf("deliveries = %s, want %s", got, want)
	}
}

// TestEndpointBatchTwoPhaseCommit runs twopc over three actions on one
// host: prepare, which a veto may cut short, is one call that carries the
// veto as its stop outcome; commit, the final round, is one call.
func TestEndpointBatchTwoPhaseCommit(t *testing.T) {
	ctx := context.Background()
	host := batchHost(t)
	client := orb.New()
	defer client.Shutdown()

	var log deliveryLog
	var atFirstCommit atomic.Uint64 // dispatches counted when commit first arrives
	tx, err := twopc.NewCoordinator(core.New()).Begin("batched-commit")
	if err != nil {
		t.Fatal(err)
	}
	before := dispatched(t, host)
	for i := range 3 {
		ref := exportLogged(host, &log, fmt.Sprintf("p%d", i), func(sig core.Signal) (core.Outcome, error) {
			if st, _ := host.ServerStats(); sig.Name == twopc.SignalCommit {
				atFirstCommit.CompareAndSwap(0, st.Dispatched-before)
			}
			return core.Outcome{Name: twopc.OutcomeDone}, nil
		})
		ref, _ = host.IOR(ref.Key)
		if err := tx.EnlistAction(ImportAction(client, ref)); err != nil {
			t.Fatal(err)
		}
	}
	committed, err := tx.Commit(ctx)
	if err != nil || !committed {
		t.Fatalf("Commit = %v, %v; want committed", committed, err)
	}
	total := dispatched(t, host) - before
	// The commit batch is counted as its dispatch starts, before the first
	// action sees commit.
	if prepares, commits := atFirstCommit.Load()-1, total-(atFirstCommit.Load()-1); prepares != 1 || commits != 1 {
		t.Fatalf("dispatches: %d for prepare, %d for commit; want 1 and 1", prepares, commits)
	}
	for _, sig := range []string{twopc.SignalPrepare, twopc.SignalCommit} {
		if got := strings.Join(log.of(sig), ","); got != "p0,p1,p2" {
			t.Fatalf("%s deliveries = %s, want p0,p1,p2", sig, got)
		}
	}
}

// TestEndpointBatchVetoStopsPrepare has the first of three same-host
// actions veto prepare: the round is cut short as serial delivery cuts it,
// so the other two never see prepare, and all three roll back in one call.
func TestEndpointBatchVetoStopsPrepare(t *testing.T) {
	ctx := context.Background()
	host := batchHost(t)
	client := orb.New()
	defer client.Shutdown()

	var log deliveryLog
	tx, err := twopc.NewCoordinator(core.New()).Begin("vetoed")
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		ref := exportLogged(host, &log, fmt.Sprintf("p%d", i), func(sig core.Signal) (core.Outcome, error) {
			if i == 0 && sig.Name == twopc.SignalPrepare {
				return core.Outcome{Name: twopc.OutcomeAbort}, nil
			}
			return core.Outcome{Name: twopc.OutcomeDone}, nil
		})
		ref, _ = host.IOR(ref.Key)
		if err := tx.EnlistAction(ImportAction(client, ref)); err != nil {
			t.Fatal(err)
		}
	}
	before := dispatched(t, host)
	committed, err := tx.Commit(ctx)
	if err != nil || committed {
		t.Fatalf("Commit = %v, %v; want rolled back", committed, err)
	}
	if got := strings.Join(log.of(twopc.SignalPrepare), ","); got != "p0" {
		t.Fatalf("prepare deliveries = %s, want p0 alone", got)
	}
	if got := strings.Join(log.of(twopc.SignalRollback), ","); got != "p0,p1,p2" {
		t.Fatalf("rollback deliveries = %s, want p0,p1,p2", got)
	}
	if got := dispatched(t, host) - before; got != 2 {
		t.Fatalf("dispatches = %d, want 2: one prepare, one rollback batch", got)
	}
}

// TestEndpointBatchSplitsRunsByHost registers actions on hosts A, A, B, A:
// only consecutive registrations share a batch, so the broadcast goes out
// as {A,A}, {B}, {A}, in that order — a lone member as a direct call.
func TestEndpointBatchSplitsRunsByHost(t *testing.T) {
	ctx := context.Background()
	hostA, hostB := batchHost(t), batchHost(t)
	client := orb.New()
	defer client.Shutdown()

	var log deliveryLog
	a := core.New().Begin("split")
	if err := a.RegisterSignalSet(completeSet()); err != nil {
		t.Fatal(err)
	}
	for i, host := range []*orb.ORB{hostA, hostA, hostB, hostA} {
		ref := exportLogged(host, &log, fmt.Sprintf("m%d", i), nil)
		ref, _ = host.IOR(ref.Key)
		if _, err := a.AddAction("s", ImportAction(client, ref)); err != nil {
			t.Fatal(err)
		}
	}
	beforeA, beforeB := dispatched(t, hostA), dispatched(t, hostB)
	out, err := a.Signal(ctx, "s")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(log.of("complete"), ","); got != "m0,m1,m2,m3" {
		t.Fatalf("deliveries = %s, want m0,m1,m2,m3", got)
	}
	if gotA, gotB := dispatched(t, hostA)-beforeA, dispatched(t, hostB)-beforeB; gotA != 2 || gotB != 1 {
		t.Fatalf("dispatches A=%d B=%d, want A=2 ({m0,m1} and m3) and B=1", gotA, gotB)
	}
	if want := "ok:complete,ok:complete,ok:complete,ok:complete"; out.Data != want {
		t.Fatalf("collated %v, want %s", out.Data, want)
	}
}

// TestEndpointBatchDroppedFrameRedelivers loses the batch's request or its
// reply: the coordinator cannot know how far the host got, so it
// redelivers the run member by member. The outcome is the one an
// undisturbed broadcast collates, and every action saw the signal at least
// once.
func TestEndpointBatchDroppedFrameRedelivers(t *testing.T) {
	for _, stage := range []orb.ChaosStage{orb.StageRequest, orb.StageReply} {
		t.Run(stage.String(), func(t *testing.T) {
			ctx := context.Background()
			host := batchHost(t)
			chaos := orb.NewChaosTransport()
			client := orb.New(orb.WithTransport(chaos), orb.WithCallTimeout(200*time.Millisecond))
			defer client.Shutdown()
			fault := chaos.Inject(orb.ChaosRule{Op: relayOp, Stage: stage, Count: 1, Drop: true})

			var log deliveryLog
			a := core.New().Begin("dropped")
			if err := a.RegisterSignalSet(completeSet()); err != nil {
				t.Fatal(err)
			}
			for i := range 3 {
				ref := exportLogged(host, &log, fmt.Sprintf("m%d", i), nil)
				ref, _ = host.IOR(ref.Key)
				if _, err := a.AddAction("s", ImportAction(client, ref)); err != nil {
					t.Fatal(err)
				}
			}
			out, err := a.Signal(ctx, "s")
			if err != nil {
				t.Fatal(err)
			}
			if fault.Hits() != 1 {
				t.Fatalf("drop fired %d times, want 1", fault.Hits())
			}
			if want := "ok:complete,ok:complete,ok:complete"; out.Name != "collated" || out.Data != want {
				t.Fatalf("outcome = %+v, want collated %s", out, want)
			}
			seen := map[string]int{}
			for _, m := range log.of("complete") {
				seen[m]++
			}
			for i := range 3 {
				if m := fmt.Sprintf("m%d", i); seen[m] < 1 {
					t.Fatalf("%s never saw complete (deliveries %v)", m, log.of("complete"))
				}
			}
		})
	}
}

// TestEndpointBatchMatchesLiteralSerial runs one broadcast twice over the
// same same-host actions, once batched and once through proxies that hide
// their batching, so delivery is literally one call per action. Outcome,
// Responses and trace must be byte-identical, delivery errors and retries
// included.
func TestEndpointBatchMatchesLiteralSerial(t *testing.T) {
	host := batchHost(t)
	client := orb.New()
	defer client.Shutdown()

	var log deliveryLog
	var refs []orb.IOR
	failures := map[int]int{1: 1, 3: 5} // action → failing attempts per broadcast
	var mu sync.Mutex
	tries := map[int]int{}
	for i := range 5 {
		ref := exportLogged(host, &log, fmt.Sprintf("m%d", i), func(sig core.Signal) (core.Outcome, error) {
			mu.Lock()
			defer mu.Unlock()
			tries[i]++
			if tries[i] <= failures[i] {
				return core.Outcome{}, fmt.Errorf("m%d refuses attempt %d", i, tries[i])
			}
			return core.Outcome{Name: "ok", Data: int64(i)}, nil
		})
		ref, _ = host.IOR(ref.Key)
		refs = append(refs, ref)
	}
	run := func(hide bool) (string, []string, []string) {
		mu.Lock()
		clear(tries)
		mu.Unlock()
		rec := trace.New()
		svc := core.New(core.WithTrace(rec), core.WithRetryPolicy(core.RetryPolicy{Attempts: 2}))
		a := svc.Begin("literal")
		set := completeSet()
		if err := a.RegisterSignalSet(set); err != nil {
			t.Fatal(err)
		}
		for i, ref := range refs {
			var action core.Action = ImportAction(client, ref)
			if hide {
				action = core.ActionFunc(action.ProcessSignal)
			}
			if _, err := a.AddNamedAction("s", fmt.Sprintf("act%d", i), action); err != nil {
				t.Fatal(err)
			}
		}
		before := dispatched(t, host)
		out, err := a.Signal(context.Background(), "s")
		if err != nil {
			t.Fatal(err)
		}
		calls := dispatched(t, host) - before
		if want := uint64(1); !hide && calls != want {
			t.Fatalf("batched broadcast cost %d dispatches, want %d", calls, want)
		}
		e := cdr.NewEncoder(64)
		if err := out.Encode(e); err != nil {
			t.Fatal(err)
		}
		var resp []string
		for _, r := range set.Responses() {
			resp = append(resp, fmt.Sprintf("%s=%v", r.Name, r.Data))
		}
		return string(e.Bytes()), resp, rec.Sequence()
	}
	batchedOut, batchedResp, batchedTrace := run(false)
	serialOut, serialResp, serialTrace := run(true)
	if batchedOut != serialOut {
		t.Errorf("outcome mismatch:\nbatched = %q\nserial  = %q", batchedOut, serialOut)
	}
	if b, s := strings.Join(batchedResp, "\n"), strings.Join(serialResp, "\n"); b != s {
		t.Errorf("responses mismatch:\nbatched:\n%s\nserial:\n%s", b, s)
	}
	if b, s := strings.Join(batchedTrace, "\n"), strings.Join(serialTrace, "\n"); b != s {
		t.Errorf("trace mismatch:\nbatched:\n%s\nserial:\n%s", b, s)
	}
	if !strings.Contains(strings.Join(serialResp, "\n"), "refuses attempt 2") {
		t.Fatalf("responses %v carry no exhausted delivery error; the comparison proves little", serialResp)
	}
}

// TestEndpointBatchRefusesUnknownKey sends an endpoint batch naming one
// action the host serves and one key it does not: the host refuses the
// whole batch before delivering to anyone.
func TestEndpointBatchRefusesUnknownKey(t *testing.T) {
	host := batchHost(t)
	client := orb.New()
	defer client.Shutdown()
	var log deliveryLog
	known := exportLogged(host, &log, "known", nil)

	e := cdr.NewEncoder(128)
	if err := encodeRelayBatch(e, core.Signal{Name: "complete", SetName: "s"}, relayBatchKeys, "",
		core.RetryPolicy{Attempts: 1}, encodeRelayKeys([]string{known.Key, "no-such-action"})); err != nil {
		t.Fatal(err)
	}
	relay := orb.NewIOR(RelayTypeID, RelayKey, host.Endpoints()...)
	if _, err := client.Invoke(context.Background(), relay, relayOp, e.Bytes()); !orb.IsSystem(err, orb.CodeObjectNotExist) {
		t.Fatalf("batch with an unknown key: err = %v, want OBJECT_NOT_EXIST", err)
	}
	if got := log.of("complete"); len(got) != 0 {
		t.Fatalf("refused batch delivered to %v", got)
	}
}

// TestEndpointBatchDecodeRefusesNonCanonical pins what the decoder accepts
// of an endpoint batch: any non-empty canonical key list, and nothing with
// trailing bytes, no key, or a plant id.
func TestEndpointBatchDecodeRefusesNonCanonical(t *testing.T) {
	keys := encodeRelayKeys([]string{"a1", "no-such-action"})
	for _, tc := range []struct {
		name       string
		plantID    string
		membership []byte
		ok         bool
	}{
		{"canonical", "", keys, true},
		{"trailing bytes", "", append(append([]byte(nil), keys...), 0, 0, 0, 0), false},
		{"no key", "", encodeRelayKeys(nil), false},
		{"names a plant", plantIDOf(keys), keys, false},
	} {
		e := cdr.NewEncoder(128)
		if err := encodeRelayBatch(e, core.Signal{Name: "complete", SetName: "s"}, relayBatchKeys, tc.plantID, core.RetryPolicy{Attempts: 1}, tc.membership); err != nil {
			t.Fatal(err)
		}
		b, err := decodeRelayBatch(cdr.NewDecoder(e.Bytes()))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if tc.ok && strings.Join(b.keys, ",") != "a1,no-such-action" {
			t.Errorf("%s: keys = %q", tc.name, b.keys)
		}
	}
}

// oneAtATime is an exported action that records how many of its
// deliveries run at once, holding each for hold.
type oneAtATime struct {
	hold     time.Duration
	inFlight atomic.Int32
	peak     atomic.Int32
	runs     atomic.Int32
}

func (a *oneAtATime) ProcessSignal(context.Context, core.Signal) (core.Outcome, error) {
	n := a.inFlight.Add(1)
	for p := a.peak.Load(); n > p && !a.peak.CompareAndSwap(p, n); p = a.peak.Load() {
	}
	time.Sleep(a.hold)
	a.inFlight.Add(-1)
	a.runs.Add(1)
	return core.Outcome{Name: "ok"}, nil
}

// TestEndpointBatchOverlappingDeliveriesRunOneAtATime sends one exported
// action deliveries that overlap on the wire and checks that its servant
// runs them one at a time: a coordinator's retries after call timeouts
// arrive while the first delivery still runs, and direct calls, an
// endpoint batch naming the action twice and a relay-tree span race each
// other.
func TestEndpointBatchOverlappingDeliveriesRunOneAtATime(t *testing.T) {
	sig := core.Signal{Name: "go", SetName: "s"}
	t.Run("retry-after-timeout", func(t *testing.T) {
		host := batchHost(t)
		client := orb.New(orb.WithCallTimeout(15 * time.Millisecond))
		defer client.Shutdown()
		slow := &oneAtATime{hold: 60 * time.Millisecond}
		ref := ExportAction(host, slow)
		ref, _ = host.IOR(ref.Key)

		a := core.New(core.WithRetryPolicy(core.RetryPolicy{Attempts: 3})).Begin("retried")
		if err := a.RegisterSignalSet(completeSet()); err != nil {
			t.Fatal(err)
		}
		if _, err := a.AddAction("s", ImportAction(client, ref)); err != nil {
			t.Fatal(err)
		}
		before := dispatched(t, host)
		// Every attempt times out while the first delivery holds the
		// action, so the outcome is a delivery error; what matters is
		// that the queued redeliveries never ran beside it.
		if _, err := a.Signal(context.Background(), "s"); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for {
			arrived := dispatched(t, host) - before
			if arrived >= 2 && uint64(slow.runs.Load()) == arrived {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d deliveries arrived, %d ran, want at least 2 and all", arrived, slow.runs.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if p := slow.peak.Load(); p != 1 {
			t.Fatalf("%d deliveries ran at once, want 1", p)
		}
	})
	t.Run("direct-batch-tree", func(t *testing.T) {
		host := batchHost(t)
		client := orb.New()
		defer client.Shutdown()
		x, y := &oneAtATime{hold: 5 * time.Millisecond}, &oneAtATime{}
		refX, refY := ExportAction(host, x), ExportAction(host, y)
		refX, _ = host.IOR(refX.Key)
		refY, _ = host.IOR(refY.Key)
		px, py := ImportAction(client, refX), ImportAction(client, refY)
		retry := core.RetryPolicy{Attempts: 1}

		start := make(chan struct{})
		errs := make(chan error, 5)
		var wg sync.WaitGroup
		deliver := func(f func() error) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs <- f()
			}()
		}
		for range 3 {
			deliver(func() error {
				_, err := px.ProcessSignal(context.Background(), sig)
				return err
			})
		}
		deliver(func() error { // x twice in one ordered batch
			rs, err := px.(core.EndpointBatcher).DeliverBatch(context.Background(), sig, []core.Action{px, py, px}, "", retry)
			if err == nil && len(rs) != 3 {
				err = fmt.Errorf("batch: %d results, want 3", len(rs))
			}
			return err
		})
		deliver(func() error { // a relay tree rooted at y, x its leaf
			tree := &core.TreeNode{
				Member:   core.TreeMember{Index: 0, Action: py},
				Children: []*core.TreeNode{{Member: core.TreeMember{Index: 1, Action: px}}},
			}
			rs, err := py.(core.SubtreeDeliverer).DeliverSubtree(context.Background(), sig, tree, retry)
			if err == nil && len(rs) != 2 {
				err = fmt.Errorf("tree: %d results, want 2", len(rs))
			}
			return err
		})
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if got := x.runs.Load(); got != 6 {
			t.Fatalf("x ran %d deliveries, want 6", got)
		}
		if p := x.peak.Load(); p != 1 {
			t.Fatalf("%d deliveries ran at once, want 1", p)
		}
	})
}

// TestDifferentialActionBatchMatchesPerHost scripts every prepare vote
// vector over three remote Actions — done, abort or a delivery error each
// — and commits each twopc transaction twice: with all three Actions on
// one host, where every round is one keyed batch that stops at the veto,
// and with each on its own host, one call per Action. The outcome, the
// trace and the global order of every delivery the Actions receive must
// be identical, retries included.
func TestDifferentialActionBatchMatchesPerHost(t *testing.T) {
	client := orb.New()
	defer client.Shutdown()
	shared := batchHost(t)
	oneHost := []*orb.ORB{shared, shared, shared}
	perHost := []*orb.ORB{batchHost(t), batchHost(t), batchHost(t)}
	const failed = "delivery-error" // scripted as a prepare that always fails
	answers := []string{twopc.OutcomeDone, twopc.OutcomeAbort, failed}

	type run struct {
		outcome string
		trace   []string
		calls   []string
	}
	commit := func(hosts []*orb.ORB, votes []string) run {
		var log deliveryLog
		rec := trace.New()
		svc := core.New(core.WithTrace(rec), core.WithRetryPolicy(core.RetryPolicy{Attempts: 2}))
		tx, err := twopc.NewCoordinator(svc).Begin("differential")
		if err != nil {
			t.Fatal(err)
		}
		for i, host := range hosts {
			ref := exportLogged(host, &log, fmt.Sprintf("p%d", i), func(sig core.Signal) (core.Outcome, error) {
				switch {
				case sig.Name != twopc.SignalPrepare:
					return core.Outcome{Name: twopc.OutcomeDone}, nil
				case votes[i] == failed:
					return core.Outcome{}, fmt.Errorf("p%d cannot prepare", i)
				}
				return core.Outcome{Name: votes[i]}, nil
			})
			ref, _ = host.IOR(ref.Key)
			if err := tx.EnlistAction(ImportAction(client, ref)); err != nil {
				t.Fatal(err)
			}
		}
		before := dispatched(t, shared)
		committed, err := tx.Commit(context.Background())
		if calls := dispatched(t, shared) - before; hosts[0] == shared && calls != 2 {
			t.Fatalf("votes %v: one host took %d dispatches, want 2: one per round", votes, calls)
		}
		log.mu.Lock()
		defer log.mu.Unlock()
		return run{fmt.Sprintf("committed=%v err=%v", committed, err), rec.Sequence(), log.events}
	}
	for _, a := range answers {
		for _, b := range answers {
			for _, c := range answers {
				votes := []string{a, b, c}
				batched, direct := commit(oneHost, votes), commit(perHost, votes)
				if batched.outcome != direct.outcome ||
					!slices.Equal(batched.trace, direct.trace) ||
					!slices.Equal(batched.calls, direct.calls) {
					t.Fatalf("votes %v:\none host    %+v\nthree hosts %+v", votes, batched, direct)
				}
			}
		}
	}
}
