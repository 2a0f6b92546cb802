package remote

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/orb"
)

// fixture wires a "server" node (activity host) and a "client" node
// (participant host) over TCP.
type fixture struct {
	serverORB *orb.ORB
	clientORB *orb.ORB
	svc       *core.Service
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	serverORB := orb.New()
	t.Cleanup(serverORB.Shutdown)
	if _, err := serverORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	clientORB := orb.New()
	t.Cleanup(clientORB.Shutdown)
	InstallPropagation(serverORB)
	InstallPropagation(clientORB)
	return &fixture{serverORB: serverORB, clientORB: clientORB, svc: core.New()}
}

func TestRemoteActionReceivesSignals(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	// The participant lives on the client node.
	var received atomic.Int32
	participant := core.ActionFunc(func(_ context.Context, sig core.Signal) (core.Outcome, error) {
		received.Add(1)
		return core.Outcome{Name: "ack:" + sig.Name}, nil
	})
	ref := ExportAction(fx.clientORB, participant)
	if _, err := fx.clientORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = fx.clientORB.IOR(ref.Key)

	// The activity lives on the server node and signals the remote action.
	a := fx.svc.Begin("distributed")
	set := core.NewSequenceSet("proto", "ping", "pong")
	if err := a.RegisterSignalSet(set); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddAction("proto", ImportAction(fx.serverORB, ref)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Signal(ctx, "proto"); err != nil {
		t.Fatal(err)
	}
	if received.Load() != 2 {
		t.Fatalf("participant received %d signals, want 2", received.Load())
	}
	rs := set.Responses()
	if len(rs) != 2 || rs[0].Name != "ack:ping" || rs[1].Name != "ack:pong" {
		t.Fatalf("responses = %v", rs)
	}
}

func TestRemoteActionErrorSurfaces(t *testing.T) {
	fx := newFixture(t)
	bad := core.ActionFunc(func(context.Context, core.Signal) (core.Outcome, error) {
		return core.Outcome{}, errors.New("participant refused")
	})
	ref := ExportAction(fx.serverORB, bad)
	ref, _ = fx.serverORB.IOR(ref.Key)

	proxy := ImportAction(fx.clientORB, ref)
	_, err := proxy.ProcessSignal(context.Background(), core.Signal{Name: "x", SetName: "s"})
	var re *orb.RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestActivityProxyEnlistmentAndCompletion(t *testing.T) {
	fx := newFixture(t)
	ctx := context.Background()

	// Host an activity with a completion set on the server.
	a := fx.svc.Begin("hosted")
	set := core.NewSequenceSet(core.DefaultCompletionSet, "finish").Collate(func(rs []core.Outcome) core.Outcome {
		return core.Outcome{Name: "collated", Data: int64(len(rs))}
	})
	if err := a.RegisterSignalSet(set); err != nil {
		t.Fatal(err)
	}
	coordRef := ExportActivity(fx.serverORB, a)

	// The client enrolls a local action and drives completion remotely.
	var got atomic.Value
	proxy := NewActivityProxy(fx.clientORB, coordRef)
	if _, err := fx.clientORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, err := proxy.AddAction(ctx, core.DefaultCompletionSet, core.ActionFunc(
		func(_ context.Context, sig core.Signal) (core.Outcome, error) {
			got.Store(sig.Name)
			return core.Outcome{Name: "enlisted-ok"}, nil
		})); err != nil {
		t.Fatal(err)
	}

	st, cs, err := proxy.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st != core.ActivityActive || cs != core.CompletionSuccess {
		t.Fatalf("status = %s/%s", st, cs)
	}

	out, err := proxy.Complete(ctx, core.CompletionSuccess)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "collated" || out.Data != int64(1) {
		t.Fatalf("outcome = %+v", out)
	}
	if got.Load() != "finish" {
		t.Fatalf("enlisted action saw %v", got.Load())
	}
	if a.State() != core.ActivityCompleted {
		t.Fatalf("activity state = %s", a.State())
	}
}

func TestActivityContextPropagates(t *testing.T) {
	fx := newFixture(t)

	// A servant on the server that reports the propagated activity lineage.
	var observed atomic.Value
	echo := core.ActionFunc(func(ctx context.Context, _ core.Signal) (core.Outcome, error) {
		if pc, ok := PropagatedFrom(ctx); ok {
			names := make([]string, 0, len(pc.Path))
			for _, e := range pc.Path {
				names = append(names, e.Name)
			}
			observed.Store(names)
			return core.Outcome{Name: "saw-context"}, nil
		}
		return core.Outcome{Name: "no-context"}, nil
	})
	ref := ExportAction(fx.serverORB, echo)
	ref, _ = fx.serverORB.IOR(ref.Key)

	// Call from within a nested activity on the client.
	root := fx.svc.Begin("root")
	child, err := root.BeginChild("child")
	if err != nil {
		t.Fatal(err)
	}
	pg := core.NewTupleSpace("env", core.VisibilityShared, core.PropagateByValue)
	_ = pg.Set("locale", "en_GB")
	_ = child.AddPropertyGroup(pg)

	ctx := core.NewContext(context.Background(), child)
	proxy := ImportAction(fx.clientORB, ref)
	out, err := proxy.ProcessSignal(ctx, core.Signal{Name: "probe", SetName: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "saw-context" {
		t.Fatalf("outcome = %+v", out)
	}
	names, _ := observed.Load().([]string)
	if len(names) != 2 || names[0] != "root" || names[1] != "child" {
		t.Fatalf("propagated lineage = %v", names)
	}

	// Without an activity in context, nothing propagates.
	out, err = proxy.ProcessSignal(context.Background(), core.Signal{Name: "probe", SetName: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "no-context" {
		t.Fatalf("outcome without activity = %+v", out)
	}
}

func TestPropagationCarriesByValueProperties(t *testing.T) {
	fx := newFixture(t)
	var localeSeen atomic.Value
	probe := core.ActionFunc(func(ctx context.Context, _ core.Signal) (core.Outcome, error) {
		pc, ok := PropagatedFrom(ctx)
		if !ok {
			return core.Outcome{Name: "no-context"}, nil
		}
		localeSeen.Store(pc.Properties["env"]["locale"])
		return core.Outcome{Name: "ok"}, nil
	})
	ref := ExportAction(fx.serverORB, probe)
	ref, _ = fx.serverORB.IOR(ref.Key)

	a := fx.svc.Begin("A")
	pg := core.NewTupleSpace("env", core.VisibilityShared, core.PropagateByValue)
	_ = pg.Set("locale", "fr_FR")
	_ = a.AddPropertyGroup(pg)

	ctx := core.NewContext(context.Background(), a)
	if _, err := ImportAction(fx.clientORB, ref).ProcessSignal(ctx, core.Signal{Name: "p", SetName: "s"}); err != nil {
		t.Fatal(err)
	}
	if localeSeen.Load() != "fr_FR" {
		t.Fatalf("locale = %v", localeSeen.Load())
	}
}
