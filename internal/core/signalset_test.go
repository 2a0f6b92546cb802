package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
)

func TestSequenceSetProducesSignalsInOrder(t *testing.T) {
	s := NewSequenceSet("proto", "first", "second", "third")
	for i, want := range []string{"first", "second", "third"} {
		sig, last, err := s.GetSignal()
		if err != nil {
			t.Fatalf("signal %d: %v", i, err)
		}
		if sig.Name != want || sig.SetName != "proto" {
			t.Fatalf("signal %d = %+v", i, sig)
		}
		if last != (i == 2) {
			t.Fatalf("signal %d last = %v", i, last)
		}
	}
	if _, _, err := s.GetSignal(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
}

func TestSequenceSetCollatesResponses(t *testing.T) {
	s := NewSequenceSet("proto", "ping").Collate(func(responses []Outcome) Outcome {
		return Outcome{Name: "collated", Data: int64(len(responses))}
	})
	if _, _, err := s.GetSignal(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.SetResponse(Outcome{Name: "pong"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	out, err := s.GetOutcome()
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "collated" || out.Data != int64(3) {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestSequenceSetRecordsDeliveryErrors(t *testing.T) {
	s := NewSequenceSet("proto", "ping")
	_, _, _ = s.GetSignal()
	if _, err := s.SetResponse(Outcome{}, errors.New("unreachable")); err != nil {
		t.Fatal(err)
	}
	rs := s.Responses()
	if len(rs) != 1 || rs[0].Name != "delivery-error" {
		t.Fatalf("responses = %+v", rs)
	}
}

func TestBaseSetCompletionStatusSticky(t *testing.T) {
	b := NewBaseSet("x")
	if b.CompletionStatus() != CompletionSuccess {
		t.Fatalf("initial = %v", b.CompletionStatus())
	}
	b.SetCompletionStatus(CompletionFail)
	if b.CompletionStatus() != CompletionFail {
		t.Fatal("status did not change")
	}
	b.SetCompletionStatus(CompletionFailOnly)
	b.SetCompletionStatus(CompletionSuccess) // must be ignored
	if b.CompletionStatus() != CompletionFailOnly {
		t.Fatalf("fail-only not sticky: %v", b.CompletionStatus())
	}
}

// TestSignalSetStateMachine exercises fig. 7: Waiting → GetSignal → End,
// with no reuse after End.
func TestSignalSetStateMachine(t *testing.T) {
	act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
	set := NewSequenceSet("s", "one", "two")
	act.AddAction("s", ActionFunc(func(context.Context, Signal) (Outcome, error) {
		return Outcome{Name: "ok"}, nil
	}))

	if st := act.SetState(set); st != StateWaiting {
		t.Fatalf("initial state = %s", st)
	}
	if _, err := act.transmit(context.Background(), set); err != nil {
		t.Fatal(err)
	}
	if st := act.SetState(set); st != StateEnd {
		t.Fatalf("state after protocol = %s", st)
	}
	// A set in End cannot be reused (fig. 7: "Once in the End state the
	// SignalSet cannot provide any further Signals and will not be
	// reused").
	if _, err := act.transmit(context.Background(), set); err == nil {
		t.Fatal("reuse after End succeeded")
	}
}

// TestSignalSetWaitingToEndDirectly covers the fig. 7 edge where a set has
// no signals at all: Waiting → End without passing through GetSignal.
func TestSignalSetWaitingToEndDirectly(t *testing.T) {
	act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
	set := NewSequenceSet("empty")
	out, err := act.transmit(context.Background(), set)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "completed" {
		t.Fatalf("outcome = %+v", out)
	}
	if st := act.SetState(set); st != StateEnd {
		t.Fatalf("state = %s", st)
	}
}

func TestGetOutcomeWhileActiveFails(t *testing.T) {
	d := newSetDriver(NewSequenceSet("s", "a", "b"))
	if _, _, err := d.getSignal(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.getOutcome(); !errors.Is(err, ErrSignalSetActive) {
		t.Fatalf("err = %v, want ErrSignalSetActive", err)
	}
}

func TestSetResponseAfterEndFails(t *testing.T) {
	d := newSetDriver(NewSequenceSet("s", "a"))
	if _, _, err := d.getSignal(); err != nil {
		t.Fatal(err)
	}
	d.end()
	if _, err := d.setResponse(Outcome{Name: "late"}, nil); !errors.Is(err, ErrSignalSetInactive) {
		t.Fatalf("err = %v, want ErrSignalSetInactive", err)
	}
}

func TestSetResponseBeforeFirstSignalFails(t *testing.T) {
	d := newSetDriver(NewSequenceSet("s", "a"))
	if _, err := d.setResponse(Outcome{Name: "early"}, nil); !errors.Is(err, ErrSignalSetInactive) {
		t.Fatalf("err = %v, want ErrSignalSetInactive", err)
	}
}

func TestDriverStateTransitions(t *testing.T) {
	// Exhaustive walk of the legal fig. 7 transitions.
	set := NewSequenceSet("s", "only")
	d := newSetDriver(set)
	if d.State() != StateWaiting {
		t.Fatal("not Waiting initially")
	}
	if _, last, err := d.getSignal(); err != nil || !last {
		t.Fatalf("getSignal: last=%v err=%v", last, err)
	}
	if d.State() != StateGetSignal {
		t.Fatalf("state = %s, want GetSignal", d.State())
	}
	if _, err := d.setResponse(Outcome{Name: "r"}, nil); err != nil {
		t.Fatal(err)
	}
	d.end()
	if d.State() != StateEnd {
		t.Fatalf("state = %s, want End", d.State())
	}
	if _, _, err := d.getSignal(); !errors.Is(err, ErrSignalSetInactive) {
		t.Fatalf("getSignal after End: %v", err)
	}
	if _, err := d.getOutcome(); err != nil {
		t.Fatalf("getOutcome in End: %v", err)
	}
}

// twoPhase declares the vote-then-decide shape on a SequenceSet, the way
// hls/twopc does.
func twoPhase() *SequenceSet {
	return NewSequenceSet("2pc").
		Signals(Signal{Name: "prepare"}, Signal{Name: "commit", Data: "d"}).
		OnFailure(Signal{Name: "rollback"}).
		Veto("abort").
		Outcomes("committed", "rolled-back")
}

// signals drains s, feeding each signal the response resp(name), and
// returns "name/last" for every signal sent.
func signals(t *testing.T, s *SequenceSet, resp func(sig string) (Outcome, error)) []string {
	t.Helper()
	var sent []string
	for {
		sig, last, err := s.GetSignal()
		if errors.Is(err, ErrExhausted) {
			return sent
		}
		if err != nil {
			t.Fatal(err)
		}
		if sig.SetName != s.Name() {
			t.Fatalf("signal %s has set name %q", sig.Name, sig.SetName)
		}
		sent = append(sent, fmt.Sprintf("%s/%v", sig.Name, last))
		o, derr := resp(sig.Name)
		advance, err := s.SetResponse(o, derr)
		if err != nil {
			t.Fatal(err)
		}
		if last && !advance {
			return sent
		}
	}
}

func outcome(t *testing.T, s *SequenceSet) string {
	t.Helper()
	out, err := s.GetOutcome()
	if err != nil {
		t.Fatal(err)
	}
	return out.Name
}

func TestSequenceSetSuccessSequence(t *testing.T) {
	s := twoPhase()
	got := signals(t, s, func(string) (Outcome, error) { return Outcome{Name: "done"}, nil })
	if want := []string{"prepare/false", "commit/true"}; !slices.Equal(got, want) {
		t.Fatalf("signals = %v, want %v", got, want)
	}
	if s.Failed() || outcome(t, s) != "committed" {
		t.Fatalf("failed=%v outcome=%s", s.Failed(), outcome(t, s))
	}
}

func TestSequenceSetFailureSequenceAtStart(t *testing.T) {
	for _, cs := range []CompletionStatus{CompletionFail, CompletionFailOnly} {
		s := twoPhase()
		s.SetCompletionStatus(cs)
		got := signals(t, s, func(string) (Outcome, error) { return Outcome{Name: "done"}, nil })
		if want := []string{"rollback/true"}; !slices.Equal(got, want) {
			t.Fatalf("%s: signals = %v, want %v", cs, got, want)
		}
		if !s.Failed() || outcome(t, s) != "rolled-back" {
			t.Fatalf("%s: failed=%v outcome=%s", cs, s.Failed(), outcome(t, s))
		}
	}
}

func TestSequenceSetVetoSwitchesToFailure(t *testing.T) {
	s := twoPhase()
	if _, _, err := s.GetSignal(); err != nil {
		t.Fatal(err)
	}
	if advance, _ := s.SetResponse(Outcome{Name: "done"}, nil); advance {
		t.Fatal("a plain vote advanced")
	}
	if advance, _ := s.SetResponse(Outcome{Name: "abort"}, nil); !advance {
		t.Fatal("a veto did not cut the round short")
	}
	sig, last, err := s.GetSignal()
	if err != nil || sig.Name != "rollback" || !last {
		t.Fatalf("after veto: %s last=%v err=%v", sig.Name, last, err)
	}
	if _, _, err := s.GetSignal(); !errors.Is(err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", err)
	}
	if !s.Failed() || outcome(t, s) != "rolled-back" {
		t.Fatalf("failed=%v outcome=%s", s.Failed(), outcome(t, s))
	}
}

func TestSequenceSetDeliveryErrorIsVeto(t *testing.T) {
	s := twoPhase()
	got := signals(t, s, func(sig string) (Outcome, error) {
		if sig == "prepare" {
			return Outcome{}, errors.New("unreachable")
		}
		return Outcome{Name: "done"}, nil
	})
	if want := []string{"prepare/false", "rollback/true"}; !slices.Equal(got, want) {
		t.Fatalf("signals = %v, want %v", got, want)
	}
	if outcome(t, s) != "rolled-back" {
		t.Fatalf("outcome = %s", outcome(t, s))
	}
}

func TestSequenceSetVetoIgnoredInFinalRound(t *testing.T) {
	s := twoPhase()
	got := signals(t, s, func(sig string) (Outcome, error) {
		if sig == "commit" {
			return Outcome{Name: "abort"}, errors.New("late")
		}
		return Outcome{Name: "done"}, nil
	})
	if want := []string{"prepare/false", "commit/true"}; !slices.Equal(got, want) {
		t.Fatalf("signals = %v, want %v", got, want)
	}
	if s.Failed() || outcome(t, s) != "committed" {
		t.Fatalf("failed=%v outcome=%s", s.Failed(), outcome(t, s))
	}
}

func TestSequenceSetSignalsCarryData(t *testing.T) {
	s := NewSequenceSet("saga").Signals(
		Signal{Name: "compensate", Data: int64(1)},
		Signal{Name: "compensate", Data: int64(0), SetName: "other"},
	)
	first, _, _ := s.GetSignal()
	second, _, _ := s.GetSignal()
	if first.Data != int64(1) || first.SetName != "saga" || second.Data != int64(0) || second.SetName != "other" {
		t.Fatalf("signals = %+v, %+v", first, second)
	}
}

func TestSequenceSetDeclaredOutcomesRecordNothing(t *testing.T) {
	s := twoPhase()
	signals(t, s, func(string) (Outcome, error) { return Outcome{Name: "done"}, nil })
	if rs := s.Responses(); len(rs) != 0 {
		t.Fatalf("declared set recorded %v", rs)
	}
	// With a Collate, a declared set records every response, vetoes
	// included, and Collate may ask whether the set failed.
	c := twoPhase()
	c.Collate(func(rs []Outcome) Outcome {
		return Outcome{Name: fmt.Sprintf("%d/%v", len(rs), c.Failed())}
	})
	signals(t, c, func(sig string) (Outcome, error) {
		if sig == "prepare" {
			return Outcome{Name: "abort"}, nil
		}
		return Outcome{Name: "done"}, nil
	})
	if got := outcome(t, c); got != "2/true" {
		t.Fatalf("collated outcome = %s, want 2/true", got)
	}
}

func TestNewSequenceSetRecordsResponses(t *testing.T) {
	s := NewSequenceSet("proto", "one", "two")
	signals(t, s, func(sig string) (Outcome, error) { return Outcome{Name: sig + "-ack"}, nil })
	rs := s.Responses()
	if len(rs) != 2 || rs[0].Name != "one-ack" || rs[1].Name != "two-ack" {
		t.Fatalf("responses = %+v", rs)
	}
	if s.Failed() || outcome(t, s) != "completed" {
		t.Fatalf("failed=%v outcome=%s", s.Failed(), outcome(t, s))
	}
}

// newSetDriver returns a Waiting driver of set, outside any coordinator.
func newSetDriver(set SignalSet) *setDriver {
	d := new(setDriver)
	d.init(set)
	return d
}
