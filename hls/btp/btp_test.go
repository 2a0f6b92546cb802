package btp

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/core"
	"github.com/extendedtx/activityservice/internal/trace"
)

// reservation is a scriptable participant: a bookable slot.
type reservation struct {
	mu          sync.Mutex
	name        string
	failPrepare bool
	calls       []string
	state       string // "", "reserved", "booked", "released"
}

func newReservation(name string) *reservation {
	return &reservation{name: name}
}

func (r *reservation) log(s string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls = append(r.calls, s)
}

func (r *reservation) Calls() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.calls...)
}

func (r *reservation) State() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

func (r *reservation) Prepare() error {
	r.log("prepare")
	if r.failPrepare {
		return errors.New(r.name + ": no availability")
	}
	r.mu.Lock()
	r.state = "reserved"
	r.mu.Unlock()
	return nil
}

func (r *reservation) Confirm() error {
	r.log("confirm")
	r.mu.Lock()
	r.state = "booked"
	r.mu.Unlock()
	return nil
}

func (r *reservation) Cancel() error {
	r.log("cancel")
	r.mu.Lock()
	r.state = "released"
	r.mu.Unlock()
	return nil
}

func TestAtomPrepareConfirm(t *testing.T) {
	svc := core.New()
	ctx := context.Background()
	atom, err := NewAtom(svc, "taxi")
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := newReservation("p1"), newReservation("p2")
	_ = atom.Enroll(p1)
	_ = atom.Enroll(p2)

	if err := atom.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if atom.State() != AtomPrepared {
		t.Fatalf("state = %s", atom.State())
	}
	// BTP: the user drives phase two explicitly, possibly much later.
	if p1.State() != "reserved" {
		t.Fatalf("p1 state = %q between phases", p1.State())
	}
	if err := atom.Confirm(ctx); err != nil {
		t.Fatal(err)
	}
	if atom.State() != AtomConfirmed {
		t.Fatalf("state = %s", atom.State())
	}
	for _, p := range []*reservation{p1, p2} {
		if p.State() != "booked" {
			t.Fatalf("%s state = %q", p.name, p.State())
		}
	}
}

func TestAtomPrepareCancel(t *testing.T) {
	svc := core.New()
	ctx := context.Background()
	atom, _ := NewAtom(svc, "hotel")
	p := newReservation("p")
	_ = atom.Enroll(p)
	if err := atom.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if err := atom.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	if atom.State() != AtomCancelled || p.State() != "released" {
		t.Fatalf("atom=%s p=%q", atom.State(), p.State())
	}
}

func TestAtomPrepareFailureCancelsAll(t *testing.T) {
	svc := core.New()
	ctx := context.Background()
	atom, _ := NewAtom(svc, "hotel")
	good := newReservation("good")
	bad := newReservation("bad")
	bad.failPrepare = true
	_ = atom.Enroll(good)
	_ = atom.Enroll(bad)
	err := atom.Prepare(ctx)
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	if atom.State() != AtomCancelled {
		t.Fatalf("state = %s", atom.State())
	}
	// The participant that reserved must be released.
	if good.State() != "released" {
		t.Fatalf("good state = %q", good.State())
	}
}

func TestConfirmWithoutPrepareRejected(t *testing.T) {
	svc := core.New()
	atom, _ := NewAtom(svc, "x")
	if err := atom.Confirm(context.Background()); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("err = %v", err)
	}
}

func TestCancelUnpreparedAtomIsNoop(t *testing.T) {
	svc := core.New()
	ctx := context.Background()
	atom, _ := NewAtom(svc, "x")
	p := newReservation("p")
	_ = atom.Enroll(p)
	if err := atom.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	if atom.State() != AtomCancelled {
		t.Fatalf("state = %s", atom.State())
	}
	// Double cancel is a no-op.
	if err := atom.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	// Cancelling a confirmed atom is an error.
	atom2, _ := NewAtom(svc, "y")
	_ = atom2.Enroll(newReservation("q"))
	_ = atom2.Prepare(ctx)
	_ = atom2.Confirm(ctx)
	if err := atom2.Cancel(ctx); err == nil {
		t.Fatal("cancelled a confirmed atom")
	}
}

// TestFig11Fig12Traces verifies the two sequence charts end to end.
func TestFig11Fig12Traces(t *testing.T) {
	rec := trace.New()
	svc := core.New(core.WithTrace(rec))
	ctx := context.Background()
	atom, _ := NewAtom(svc, "coordinator")
	_ = atom.EnrollNamed("action1", newReservation("a1"))
	_ = atom.EnrollNamed("action2", newReservation("a2"))

	if err := atom.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	fig11 := []string{
		"get_signal:coordinator->btp-prepare:prepare",
		"transmit:coordinator->action1:prepare",
		"set_response:action1->btp-prepare:prepared",
		"transmit:coordinator->action2:prepare",
		"set_response:action2->btp-prepare:prepared",
		"get_outcome:coordinator->btp-prepare:prepared",
	}
	assertSubsequence(t, rec.Sequence(), fig11)

	rec.Reset()
	if err := atom.Confirm(ctx); err != nil {
		t.Fatal(err)
	}
	fig12 := []string{
		"get_signal:coordinator->btp-complete:confirm",
		"transmit:coordinator->action1:confirm",
		"set_response:action1->btp-complete:confirmed",
		"transmit:coordinator->action2:confirm",
		"set_response:action2->btp-complete:confirmed",
		"get_outcome:coordinator->btp-complete:confirmed",
	}
	assertSubsequence(t, rec.Sequence(), fig12)
}

// assertSubsequence checks want appears in order within got.
func assertSubsequence(t *testing.T, got, want []string) {
	t.Helper()
	i := 0
	for _, g := range got {
		if i < len(want) && g == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("missing %q\ntrace:\n%s", want[i], strings.Join(got, "\n"))
	}
}

func TestCohesionConfirmSet(t *testing.T) {
	// Fig. 1-2 as BTP (§4.5): atoms for taxi/restaurant/theatre/hotel; the
	// hotel atom fails, the business logic replaces it and confirms the
	// rest.
	svc := core.New()
	ctx := context.Background()
	cohesion := NewCohesion("trip")

	parts := map[string]*reservation{}
	for _, name := range []string{"taxi", "restaurant", "theatre", "hotel", "cinema"} {
		atom, err := NewAtom(svc, name)
		if err != nil {
			t.Fatal(err)
		}
		p := newReservation(name)
		if name == "hotel" {
			p.failPrepare = true
		}
		parts[name] = p
		_ = atom.Enroll(p)
		cohesion.Enroll(atom)
	}
	if cohesion.Atoms() != 5 {
		t.Fatalf("atoms = %d", cohesion.Atoms())
	}

	// First the business logic tries the hotel: it cannot prepare.
	err := cohesion.Confirm(ctx, []string{"taxi", "restaurant", "theatre", "hotel"})
	if !errors.Is(err, ErrCancelled) {
		t.Fatalf("err = %v", err)
	}
	// Atomicity across the attempted confirm-set: prepared members were
	// cancelled.
	for _, name := range []string{"taxi", "restaurant", "theatre"} {
		if parts[name].State() != "released" {
			t.Fatalf("%s state = %q", name, parts[name].State())
		}
	}

	// New cohesion round with the cinema instead (fresh atoms: signal sets
	// are single-use).
	svc2 := core.New()
	cohesion2 := NewCohesion("trip-2")
	parts2 := map[string]*reservation{}
	for _, name := range []string{"taxi", "theatre", "cinema", "hotel"} {
		atom, _ := NewAtom(svc2, name)
		p := newReservation(name)
		parts2[name] = p
		_ = atom.Enroll(p)
		cohesion2.Enroll(atom)
	}
	if err := cohesion2.Confirm(ctx, []string{"taxi", "theatre", "cinema"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"taxi", "theatre", "cinema"} {
		if parts2[name].State() != "booked" {
			t.Fatalf("%s = %q", name, parts2[name].State())
		}
	}
	// The atom outside the confirm-set was cancelled.
	if parts2["hotel"].State() != "released" {
		t.Fatalf("hotel = %q", parts2["hotel"].State())
	}
}

func TestCohesionUnknownMember(t *testing.T) {
	c := NewCohesion("c")
	if err := c.Confirm(context.Background(), []string{"ghost"}); !errors.Is(err, ErrUnknownAtom) {
		t.Fatalf("err = %v", err)
	}
}

func TestCohesionCancelAll(t *testing.T) {
	svc := core.New()
	ctx := context.Background()
	c := NewCohesion("c")
	ps := []*reservation{}
	for i := 0; i < 3; i++ {
		atom, _ := NewAtom(svc, string(rune('a'+i)))
		p := newReservation(string(rune('a' + i)))
		ps = append(ps, p)
		_ = atom.Enroll(p)
		c.Enroll(atom)
	}
	if err := c.CancelAll(ctx); err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if p.State() != "released" {
			t.Fatalf("%s = %q", p.name, p.State())
		}
	}
}

func TestCohesionPreparedMembersConfirmDirectly(t *testing.T) {
	// Business logic may prepare atoms incrementally before deciding the
	// confirm-set; Confirm must not re-prepare them.
	svc := core.New()
	ctx := context.Background()
	c := NewCohesion("c")
	atom, _ := NewAtom(svc, "early")
	p := newReservation("early")
	_ = atom.Enroll(p)
	c.Enroll(atom)
	if err := atom.Prepare(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Confirm(ctx, []string{"early"}); err != nil {
		t.Fatal(err)
	}
	calls := p.Calls()
	prepares := 0
	for _, call := range calls {
		if call == "prepare" {
			prepares++
		}
	}
	if prepares != 1 {
		t.Fatalf("prepare called %d times: %v", prepares, calls)
	}
	if p.State() != "booked" {
		t.Fatalf("state = %q", p.State())
	}
}

// TestAtomEnrollLabelsUniqueUnderConcurrency enrols an atom's participants
// from as many goroutines at once, round after round: every participant
// gets its own label, participant-1 to participant-N, and the prepare and
// complete sets list the participants in one order.
func TestAtomEnrollLabelsUniqueUnderConcurrency(t *testing.T) {
	const rounds, n = 200, 64
	ctx := context.Background()
	want := make([]string, n)
	for i := range want {
		want[i] = fmt.Sprintf("participant-%d", i+1)
	}
	slices.Sort(want)
	for r := 0; r < rounds; r++ {
		rec := trace.New()
		atom, err := NewAtom(core.New(core.WithTrace(rec)), "atom")
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := atom.Enroll(newReservation("r")); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if err := atom.Prepare(ctx); err != nil {
			t.Fatal(err)
		}
		if err := atom.Confirm(ctx); err != nil {
			t.Fatal(err)
		}
		prepared, confirmed := transmittedTo(rec, SignalPrepare), transmittedTo(rec, SignalConfirm)
		if !slices.Equal(prepared, confirmed) {
			t.Fatalf("round %d: prepare set lists %v, complete set %v", r, prepared, confirmed)
		}
		if slices.Sort(prepared); !slices.Equal(prepared, want) {
			t.Fatalf("round %d: labels %v, want each of participant-1 to participant-%d once", r, prepared, n)
		}
	}
}

// transmittedTo lists the targets of rec's transmits of sig, in order.
func transmittedTo(rec *trace.Recorder, sig string) []string {
	var out []string
	for _, e := range rec.Events() {
		if e.Kind == trace.KindTransmit && e.Signal == sig {
			out = append(out, e.Target)
		}
	}
	return out
}
