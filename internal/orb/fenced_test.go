package orb

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// TestFencedSurfacesWithoutFailover: a deposed coordinator-group member
// answers FENCED. FENCED asserts the operation did not run, but it is not
// a failover outcome — every profile of a deposed member is equally
// deposed, and the cure (finding the new leader) is the caller's, not the
// transport's. The client must surface the exception after exactly one
// attempt, without trying the reference's other profile and without
// re-running the operation.
func TestFencedSurfacesWithoutFailover(t *testing.T) {
	other, otherEp := startReplica(t, "coord")

	deposed := New()
	t.Cleanup(deposed.Shutdown)
	var deposedCalls atomic.Int32
	deposed.RegisterServantWithKey("coord", "IDL:test/Replica:1.0", ServantFunc(
		func(_ context.Context, op string, _ *cdr.Decoder) ([]byte, error) {
			deposedCalls.Add(1)
			return nil, Systemf(CodeFenced, "term=2 leader=b deposed mid-commit")
		}))
	deposedEp, err := deposed.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	client := New()
	t.Cleanup(client.Shutdown)
	for name, ref := range map[string]IOR{
		"single-profile": NewIOR("IDL:test/Replica:1.0", "coord", deposedEp),
		"multi-profile":  NewIOR("IDL:test/Replica:1.0", "coord", deposedEp, otherEp),
	} {
		deposedCalls.Store(0)
		_, err := client.Invoke(context.Background(), ref, "op", nil)
		if !IsSystem(err, CodeFenced) {
			t.Fatalf("%s: invoke = %v, want FENCED", name, err)
		}
		if got := deposedCalls.Load(); got != 1 {
			t.Fatalf("%s: deposed member saw %d calls, want exactly 1", name, got)
		}
		if got := other.calls.Load(); got != 0 {
			t.Fatalf("%s: FENCED failed over to the next profile (%d calls)", name, got)
		}
	}
}
