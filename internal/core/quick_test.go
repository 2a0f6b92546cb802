package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// testCodec pairs an encoder with a decoder over its bytes.
type testCodec struct {
	enc *cdr.Encoder
}

func newTestEncoder() *testCodec { return &testCodec{enc: cdr.NewEncoder(64)} }

func (c *testCodec) dec() *cdr.Decoder { return cdr.NewDecoder(c.enc.Bytes()) }

// TestQuickBroadcastInvariant checks the fig. 5 invariant for random
// protocol shapes: with a signals and n actions, every action receives
// every signal exactly once, in signal-major, registration order, and the
// set receives exactly a×n responses.
func TestQuickBroadcastInvariant(t *testing.T) {
	f := func(nSignals, nActions uint8) bool {
		a := int(nSignals%5) + 1
		n := int(nActions%8) + 1
		act := beginTraced("A", nil, RetryPolicy{Attempts: 1})
		var (
			mu    sync.Mutex
			order []string
		)
		for i := 0; i < n; i++ {
			label := fmt.Sprintf("act%d", i)
			act.AddNamedAction("s", label, ActionFunc(
				func(_ context.Context, sig Signal) (Outcome, error) {
					mu.Lock()
					order = append(order, label+"/"+sig.Name)
					mu.Unlock()
					return Outcome{Name: "ok"}, nil
				}))
		}
		var names []string
		for i := 0; i < a; i++ {
			names = append(names, fmt.Sprintf("sig%d", i))
		}
		set := NewSequenceSet("s", names...)
		if _, err := act.transmit(context.Background(), set); err != nil {
			return false
		}
		if len(order) != a*n {
			return false
		}
		idx := 0
		for i := 0; i < a; i++ {
			for j := 0; j < n; j++ {
				want := fmt.Sprintf("act%d/sig%d", j, i)
				if order[idx] != want {
					return false
				}
				idx++
			}
		}
		return len(set.Responses()) == a*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCompletionStatusNeverEscapesFailOnly drives random status
// sequences and verifies FailOnly is absorbing (§3.2.1): Success is
// refused, and Fail is accepted as a no-op. The draw includes the invalid
// values 0 and 4, which are always refused and change nothing.
func TestQuickCompletionStatusNeverEscapesFailOnly(t *testing.T) {
	f := func(seq []uint8) bool {
		svc := New()
		act := svc.Begin("q")
		sawFailOnly := false
		for _, b := range seq {
			cs := CompletionStatus(int(b % 5))
			before := act.CompletionStatus()
			err := act.SetCompletionStatus(cs)
			if !cs.Valid() {
				if !errors.Is(err, ErrInvalidCompletionStatus) || act.CompletionStatus() != before {
					return false
				}
				continue
			}
			if cs == CompletionFailOnly {
				sawFailOnly = true
			}
			if sawFailOnly {
				if act.CompletionStatus() != CompletionFailOnly {
					return false
				}
				if (cs == CompletionSuccess) != (err != nil) {
					return false // only Success is refused
				}
			} else if err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSignalEncodingRoundTrip round-trips Signals with arbitrary
// names and payload strings through the wire encoding.
func TestQuickSignalEncodingRoundTrip(t *testing.T) {
	f := func(name, setName, payload string, n int64, flag bool) bool {
		sig := Signal{
			Name:    name,
			SetName: setName,
			Data:    map[string]any{"s": payload, "n": n, "b": flag},
		}
		e := newTestEncoder()
		if err := sig.Encode(e.enc); err != nil {
			return false
		}
		got, err := DecodeSignal(e.dec())
		if err != nil {
			return false
		}
		data, ok := got.Data.(map[string]any)
		return ok && got.Name == name && got.SetName == setName &&
			data["s"] == payload && data["n"] == n && data["b"] == flag
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickNestedTreeAlwaysCompletable builds random activity trees and
// verifies bottom-up completion always succeeds and empties the service.
func TestQuickNestedTreeAlwaysCompletable(t *testing.T) {
	f := func(shape []uint8) bool {
		if len(shape) > 12 {
			shape = shape[:12]
		}
		svc := New()
		root := svc.Begin("root")
		nodes := []*Activity{root}
		for i, b := range shape {
			parent := nodes[int(b)%len(nodes)]
			if parent.State() != ActivityActive {
				continue
			}
			child, err := parent.BeginChild(fmt.Sprintf("n%d", i))
			if err != nil {
				return false
			}
			nodes = append(nodes, child)
		}
		// Complete deepest-first.
		for i := len(nodes) - 1; i >= 0; i-- {
			if _, err := nodes[i].Complete(context.Background()); err != nil {
				return false
			}
		}
		return svc.Live() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
