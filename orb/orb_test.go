package orb_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/extendedtx/activityservice"
	"github.com/extendedtx/activityservice/internal/cdr"
	"github.com/extendedtx/activityservice/internal/core"
	iorb "github.com/extendedtx/activityservice/internal/orb"
	"github.com/extendedtx/activityservice/internal/remote"
	"github.com/extendedtx/activityservice/orb"
	"github.com/extendedtx/activityservice/ots"
)

func TestPublicServantRoundTrip(t *testing.T) {
	server := orb.New()
	defer server.Shutdown()
	ref := server.RegisterServant("IDL:test/Upper:1.0", orb.ServantFunc(
		func(_ context.Context, op string, in *cdr.Decoder) ([]byte, error) {
			if op != "shout" {
				return nil, iorb.Systemf(iorb.CodeBadOperation, "%q", op)
			}
			s := in.ReadString()
			if err := in.Err(); err != nil {
				return nil, iorb.Systemf(iorb.CodeMarshal, "%v", err)
			}
			e := cdr.NewEncoder(32)
			e.WriteString(s + "!")
			return e.Bytes(), nil
		}))
	endpoint, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ref, _ = server.IOR(ref.Key)
	if ref.Endpoint() != endpoint {
		t.Fatalf("endpoint = %q", ref.Endpoint())
	}

	client := orb.New()
	defer client.Shutdown()
	e := cdr.NewEncoder(32)
	e.WriteString("hello")
	body, err := client.Invoke(context.Background(), ref, "shout", e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d := cdr.NewDecoder(body)
	if got := d.ReadString(); got != "hello!" {
		t.Fatalf("got %q", got)
	}
}

func TestPublicSystemExceptions(t *testing.T) {
	o := orb.New()
	defer o.Shutdown()
	ref := orb.NewIOR("x", "ghost", "inproc:"+o.ID())
	_, err := o.Invoke(context.Background(), ref, "op", nil)
	if !iorb.IsSystem(err, iorb.CodeObjectNotExist) {
		t.Fatalf("err = %v", err)
	}
	var se *iorb.SystemError
	if !errors.As(err, &se) || se.Code != iorb.CodeObjectNotExist {
		t.Fatalf("As failed: %v", err)
	}
}

func TestPublicNaming(t *testing.T) {
	server := orb.New()
	defer server.Shutdown()
	ns := orb.NewNameServer()
	ns.Serve(server)
	endpoint, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New()
	defer client.Shutdown()
	naming := orb.NewNameClient(client, orb.NameServiceAt(endpoint))
	ctx := context.Background()

	target := orb.NewIOR("IDL:x:1.0", "svc-1", endpoint)
	if err := naming.Bind(ctx, "services/x", target); err != nil {
		t.Fatal(err)
	}
	got, err := naming.Resolve(ctx, "services/x")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(target) {
		t.Fatalf("resolved %+v", got)
	}
	if _, err := naming.Resolve(ctx, "nope"); !errors.Is(err, iorb.ErrNotBound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicIORStringForms(t *testing.T) {
	ref := orb.NewIOR("IDL:a:1.0", "k", "tcp:1.2.3.4:5")
	parsed, err := orb.ParseIOR(ref.String())
	if err != nil || !parsed.Equal(ref) {
		t.Fatalf("parsed=%+v err=%v", parsed, err)
	}
	if _, err := orb.ParseIOR("garbage"); !errors.Is(err, iorb.ErrBadIOR) {
		t.Fatalf("err = %v", err)
	}
}

func TestPublicExportImportAction(t *testing.T) {
	server := orb.New()
	defer server.Shutdown()
	var hits atomic.Int32
	ref := orb.ExportAction(server, activityservice.ActionFunc(
		func(_ context.Context, sig activityservice.Signal) (activityservice.Outcome, error) {
			hits.Add(1)
			return activityservice.Outcome{Name: "pong:" + sig.Name}, nil
		}))
	if _, err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = server.IOR(ref.Key)

	client := orb.New()
	defer client.Shutdown()
	proxy := orb.ImportAction(client, ref)
	out, err := proxy.ProcessSignal(context.Background(), activityservice.Signal{Name: "ping", SetName: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "pong:ping" || hits.Load() != 1 {
		t.Fatalf("out=%+v hits=%d", out, hits.Load())
	}
}

func TestPublicDistributedOTSResources(t *testing.T) {
	// A transaction on this node committing participants on another node,
	// entirely through the public facades.
	node := orb.New()
	defer node.Shutdown()
	state := newFacadeState()
	ref := orb.ExportResource(node, facadeResource{state: state})
	if _, err := node.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = node.IOR(ref.Key)

	coordORB := orb.New()
	defer coordORB.Shutdown()
	svc := ots.NewService()
	tx := svc.Begin()
	other := newFacadeState()
	if err := tx.RegisterResource(orb.ImportResource(coordORB, ref)); err != nil {
		t.Fatal(err)
	}
	if err := tx.RegisterResource(facadeResource{state: other}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	if got, gotOther := state.get(), other.get(); got != "committed" || gotOther != "committed" {
		t.Fatalf("states = %q, %q", got, gotOther)
	}
}

// facadeState is a mutex-guarded string: the remote resource mutates it
// from a server dispatch goroutine and the test reads it afterwards, so
// the test must bring its own synchronization (the socket round trip
// orders the data in practice, but is invisible to the race detector).
type facadeState struct {
	mu sync.Mutex
	s  string
}

func newFacadeState() *facadeState { return &facadeState{s: "idle"} }

func (f *facadeState) set(s string) {
	f.mu.Lock()
	f.s = s
	f.mu.Unlock()
}

func (f *facadeState) get() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.s
}

// facadeResource mutates a string through the public Resource interface.
type facadeResource struct {
	state *facadeState
}

func (r facadeResource) Prepare() (ots.Vote, error) {
	r.state.set("prepared")
	return ots.VoteCommit, nil
}
func (r facadeResource) Commit() error         { r.state.set("committed"); return nil }
func (r facadeResource) Rollback() error       { r.state.set("rolledback"); return nil }
func (r facadeResource) CommitOnePhase() error { return r.Commit() }
func (r facadeResource) Forget() error         { return nil }

func TestPublicActivityProxyWithPropagation(t *testing.T) {
	ctx := context.Background()
	host := orb.New()
	defer host.Shutdown()
	orb.InstallPropagation(host)

	svc := activityservice.New()
	a := svc.Begin("hosted")
	set := activityservice.NewSequenceSet(activityservice.DefaultCompletionSet, "bye")
	if err := a.RegisterSignalSet(set); err != nil {
		t.Fatal(err)
	}
	coordRef := remote.ExportActivity(host, a)
	if _, err := host.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	coordRef, _ = host.IOR(coordRef.Key)

	client := orb.New()
	defer client.Shutdown()
	orb.InstallPropagation(client)
	if _, err := client.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	proxy := orb.NewActivityProxy(client, coordRef)
	if _, err := proxy.AddAction(ctx, activityservice.DefaultCompletionSet,
		activityservice.ActionFunc(func(context.Context, activityservice.Signal) (activityservice.Outcome, error) {
			return activityservice.Outcome{Name: "ok"}, nil
		})); err != nil {
		t.Fatal(err)
	}
	st, cs, err := proxy.Status(ctx)
	if err != nil || st != core.ActivityActive || cs != activityservice.CompletionSuccess {
		t.Fatalf("st=%v cs=%v err=%v", st, cs, err)
	}
	if _, err := proxy.Complete(ctx, activityservice.CompletionSuccess); err != nil {
		t.Fatal(err)
	}
	if a.State() != core.ActivityCompleted {
		t.Fatalf("state = %s", a.State())
	}
}
