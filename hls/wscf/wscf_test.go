package wscf

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/core"
)

// wsParticipant is a scriptable Web-service participant.
type wsParticipant struct {
	mu          sync.Mutex
	name        string
	failPrepare bool
	calls       []string
}

func (w *wsParticipant) log(s string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.calls = append(w.calls, s)
}

func (w *wsParticipant) Calls() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.calls...)
}

func (w *wsParticipant) Prepare() error {
	w.log("prepare")
	if w.failPrepare {
		return errors.New(w.name + " cannot prepare")
	}
	return nil
}

func (w *wsParticipant) Commit() error { w.log("commit"); return nil }
func (w *wsParticipant) Cancel() error { w.log("cancel"); return nil }

func TestAtomicCoordinationCommits(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	ctx := context.Background()

	cc, err := coord.CreateCoordinationContext("tx-ws", TypeAtomic)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Type != TypeAtomic || cc.Identifier.IsNil() {
		t.Fatalf("context = %+v", cc)
	}
	a := &wsParticipant{name: "inventory"}
	b := &wsParticipant{name: "payments"}
	if err := coord.Register(cc, "inventory", a); err != nil {
		t.Fatal(err)
	}
	if err := coord.Register(cc, "payments", b); err != nil {
		t.Fatal(err)
	}
	if err := coord.Complete(ctx, cc); err != nil {
		t.Fatal(err)
	}
	for _, p := range []*wsParticipant{a, b} {
		calls := p.Calls()
		if len(calls) != 2 || calls[0] != "prepare" || calls[1] != "commit" {
			t.Fatalf("%s calls = %v", p.name, calls)
		}
	}
	if svc.Live() != 0 {
		t.Fatalf("live = %d", svc.Live())
	}
}

func TestAtomicCoordinationAbortsOnVeto(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	ctx := context.Background()
	cc, _ := coord.CreateCoordinationContext("tx-ws", TypeAtomic)
	good := &wsParticipant{name: "good"}
	bad := &wsParticipant{name: "bad", failPrepare: true}
	_ = coord.Register(cc, "good", good)
	_ = coord.Register(cc, "bad", bad)

	err := coord.Complete(ctx, cc)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v", err)
	}
	gc := good.Calls()
	if len(gc) != 2 || gc[0] != "prepare" || gc[1] != "cancel" {
		t.Fatalf("good calls = %v", gc)
	}
}

func TestExplicitAbortCancelsEveryone(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	ctx := context.Background()
	cc, _ := coord.CreateCoordinationContext("tx-ws", TypeAtomic)
	p := &wsParticipant{name: "p"}
	_ = coord.Register(cc, "p", p)
	if err := coord.Abort(ctx, cc); err != nil {
		t.Fatal(err)
	}
	calls := p.Calls()
	if len(calls) != 1 || calls[0] != "cancel" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestBusinessAgreementConfirmsInOneRound(t *testing.T) {
	// TypeBusiness has no voting phase: participants get confirm directly,
	// the BTP-ish model of §4.5 without prepared state.
	svc := core.New()
	coord := NewCoordinator(svc)
	ctx := context.Background()
	cc, err := coord.CreateCoordinationContext("biz", TypeBusiness)
	if err != nil {
		t.Fatal(err)
	}
	p := &wsParticipant{name: "p"}
	_ = coord.Register(cc, "p", p)
	if err := coord.Complete(ctx, cc); err != nil {
		t.Fatal(err)
	}
	calls := p.Calls()
	if len(calls) != 1 || calls[0] != "commit" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestUnknownCoordinationTypeRejected(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	if _, err := coord.CreateCoordinationContext("x", "http://nope"); !errors.Is(err, ErrUnknownType) {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownContextRejected(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	cc := CoordinationContext{Type: TypeAtomic}
	if err := coord.Register(cc, "p", &wsParticipant{}); err == nil {
		t.Fatal("register on unknown context succeeded")
	}
	if err := coord.Complete(context.Background(), cc); err == nil {
		t.Fatal("complete on unknown context succeeded")
	}
}

func TestNoOTSDependency(t *testing.T) {
	// §5.2: WSCF must not assume an underlying OTS. This is enforced
	// structurally (the package imports only the activity core); the test
	// documents the invariant by running the full protocol with zero
	// transaction-service machinery constructed anywhere.
	svc := core.New()
	coord := NewCoordinator(svc)
	cc, _ := coord.CreateCoordinationContext("pure", TypeAtomic)
	p := &wsParticipant{name: "p"}
	_ = coord.Register(cc, "p", p)
	if err := coord.Complete(context.Background(), cc); err != nil {
		t.Fatal(err)
	}
}

func TestContextReusableAcrossRegistrations(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	ctx := context.Background()
	cc, _ := coord.CreateCoordinationContext("multi", TypeAtomic)
	var ps []*wsParticipant
	for i := 0; i < 5; i++ {
		p := &wsParticipant{name: string(rune('a' + i))}
		ps = append(ps, p)
		if err := coord.Register(cc, p.name, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := coord.Complete(ctx, cc); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if calls := p.Calls(); len(calls) != 2 {
			t.Fatalf("%s calls = %v", p.name, calls)
		}
	}
}

// TestForeignActivityContextRejected: a context is a live activity that
// carries the completion protocol. An identifier naming another model's
// activity on the same service, or a context already completed, is
// refused like an unknown one.
func TestForeignActivityContextRejected(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	ctx := context.Background()
	other := svc.Begin("other-model")
	foreign := CoordinationContext{Identifier: other.ID(), Type: TypeAtomic, Registration: "other-model"}
	if err := coord.Register(foreign, "p", &wsParticipant{}); err == nil {
		t.Fatal("register on another model's activity succeeded")
	}
	if err := coord.Complete(ctx, foreign); err == nil {
		t.Fatal("complete on another model's activity succeeded")
	}
	if other.State() != core.ActivityActive {
		t.Fatalf("foreign activity state = %v, want untouched", other.State())
	}

	cc, err := coord.CreateCoordinationContext("once", TypeAtomic)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Complete(ctx, cc); err != nil {
		t.Fatal(err)
	}
	if err := coord.Register(cc, "late", &wsParticipant{}); err == nil {
		t.Fatal("register on a completed context succeeded")
	}
	if err := coord.Abort(ctx, cc); err == nil {
		t.Fatal("abort of a completed context succeeded")
	}
}

// TestStressContextsCompleteConcurrently runs many contexts through one
// coordinator at once, each with registrations racing its completion: a
// registration either lands before the protocol runs, and then sees it,
// or is refused, and every context leaves the service's live registry.
func TestStressContextsCompleteConcurrently(t *testing.T) {
	svc := core.New()
	coord := NewCoordinator(svc)
	ctx := context.Background()
	const contexts, racers = 16, 4
	var wg sync.WaitGroup
	for i := 0; i < contexts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			kind := TypeAtomic
			if i%2 == 1 {
				kind = TypeBusiness
			}
			cc, err := coord.CreateCoordinationContext("stress", kind)
			if err != nil {
				t.Error(err)
				return
			}
			ps := make([]*wsParticipant, racers)
			admitted := make([]bool, racers)
			var reg sync.WaitGroup
			for j := range ps {
				ps[j] = &wsParticipant{name: "p"}
				reg.Add(1)
				go func(j int) {
					defer reg.Done()
					admitted[j] = coord.Register(cc, "p", ps[j]) == nil
				}(j)
			}
			if i%3 == 2 {
				err = coord.Abort(ctx, cc)
			} else {
				err = coord.Complete(ctx, cc)
			}
			if err != nil {
				t.Error(err)
			}
			reg.Wait()
			for j, p := range ps {
				if calls := p.Calls(); admitted[j] != (len(calls) > 0) {
					t.Errorf("participant admitted=%v saw %v", admitted[j], calls)
				}
			}
		}(i)
	}
	wg.Wait()
	if n := svc.Live(); n != 0 {
		t.Fatalf("%d activities still live after every context completed", n)
	}
}
