package ots

import (
	"errors"
	"sync"
	"testing"

	"github.com/extendedtx/activityservice/internal/wal"
)

// durableResource persists its prepared/committed state through a shared
// map, simulating a resource whose durable state survives process crashes.
type durableResource struct {
	mu    sync.Mutex
	name  string
	state *map[string]string // shared "disk": name -> "prepared"|"committed"|"rolledback"
}

func newDurable(name string, disk *map[string]string) *durableResource {
	return &durableResource{name: name, state: disk}
}

func (d *durableResource) set(s string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	(*d.state)[d.name] = s
}

func (d *durableResource) get() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return (*d.state)[d.name]
}

func (d *durableResource) Prepare() (Vote, error) {
	d.set("prepared")
	return VoteCommit, nil
}

func (d *durableResource) Commit() error {
	d.set("committed")
	return nil
}

func (d *durableResource) Rollback() error {
	d.set("rolledback")
	return nil
}

func (d *durableResource) CommitOnePhase() error { return d.Commit() }
func (d *durableResource) Forget() error         { return nil }
func (d *durableResource) RecoveryName() string  { return d.name }

func TestDecisionLoggedBeforePhaseTwo(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log))
	tx := svc.Begin()
	disk := map[string]string{}
	a, b := newDurable("res-a", &disk), newDurable("res-b", &disk)
	_ = tx.RegisterResource(a)
	_ = tx.RegisterResource(b)
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	recs, err := log.Records()
	if err != nil {
		t.Fatal(err)
	}
	var kinds []wal.Kind
	for _, r := range recs {
		kinds = append(kinds, r.Kind)
	}
	if len(kinds) != 2 || kinds[0] != RecordDecision || kinds[1] != RecordDone {
		t.Fatalf("log kinds = %v", kinds)
	}
	dec, err := decodeDecision(recs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if dec.tx != tx.ID() || len(dec.names) != 2 {
		t.Fatalf("decision = %+v", dec)
	}
}

func TestRecoveryRedeliversCommit(t *testing.T) {
	// Crash between the decision record and phase two: after restart,
	// Recover must re-drive commit on the named resources.
	log := wal.NewMemory()
	svc := NewService(WithLog(log))
	disk := map[string]string{}
	tx := svc.Begin()
	a, b := newDurable("res-a", &disk), newDurable("res-b", &disk)
	_ = tx.RegisterResource(a)
	_ = tx.RegisterResource(b)
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}

	// Simulate the crash by replaying only the decision record into a new
	// service (drop the done marker).
	recs, _ := log.Records()
	crashLog := wal.NewMemory()
	if _, err := crashLog.Append(recs[0].Kind, recs[0].Data); err != nil {
		t.Fatal(err)
	}
	disk["res-a"] = "prepared" // phase two never reached them
	disk["res-b"] = "prepared"

	svc2 := NewService(WithLog(crashLog))
	svc2.Directory().Register("res-a", newDurable("res-a", &disk))
	svc2.Directory().Register("res-b", newDurable("res-b", &disk))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.DecisionsReplayed != 1 || stats.ResourcesCommitted != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if disk["res-a"] != "committed" || disk["res-b"] != "committed" {
		t.Fatalf("disk = %v", disk)
	}
	// The pass appends a done marker so a second pass is a no-op.
	stats2, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.DecisionsReplayed != 0 {
		t.Fatalf("second pass stats = %+v", stats2)
	}
}

func TestRecoveryWithMissingResourceKeepsDecision(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log))
	disk := map[string]string{}
	tx := svc.Begin()
	_ = tx.RegisterResource(newDurable("known", &disk))
	_ = tx.RegisterResource(newDurable("lost", &disk))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	recs, _ := log.Records()
	crashLog := wal.NewMemory()
	if _, err := crashLog.Append(recs[0].Kind, recs[0].Data); err != nil {
		t.Fatal(err)
	}

	svc2 := NewService(WithLog(crashLog))
	svc2.Directory().Register("known", newDurable("known", &disk))
	stats, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ResourcesMissing != 1 || stats.ResourcesCommitted != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	// The decision must survive for a later pass that has the binding.
	svc2.Directory().Register("lost", newDurable("lost", &disk))
	stats2, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if stats2.ResourcesCommitted != 2 { // at-least-once: known re-committed
		t.Fatalf("second pass stats = %+v", stats2)
	}
	if disk["lost"] != "committed" {
		t.Fatalf("lost = %q", disk["lost"])
	}
}

func TestPresumedAbort(t *testing.T) {
	// A resource prepared under a transaction whose decision was never
	// logged must learn "rolled back" from ReplayCompletion.
	log := wal.NewMemory()
	svc := NewService(WithLog(log))
	st, err := svc.ReplayCompletion("in-doubt-res")
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusRolledBack {
		t.Fatalf("status = %s, want rolled-back (presumed abort)", st)
	}

	// After a logged decision naming the resource, the answer flips.
	disk := map[string]string{}
	tx := svc.Begin()
	_ = tx.RegisterResource(newDurable("in-doubt-res", &disk))
	_ = tx.RegisterResource(newDurable("other", &disk))
	if err := tx.Commit(true); err != nil {
		t.Fatal(err)
	}
	st, err = svc.ReplayCompletion("in-doubt-res")
	if err != nil {
		t.Fatal(err)
	}
	if st != StatusCommitted {
		t.Fatalf("status = %s, want committed", st)
	}
}

func TestCheckpointDropsDeliveredDecisions(t *testing.T) {
	log := wal.NewMemory()
	svc := NewService(WithLog(log))
	disk := map[string]string{}
	for i := 0; i < 3; i++ {
		tx := svc.Begin()
		_ = tx.RegisterResource(newDurable("a", &disk))
		_ = tx.RegisterResource(newDurable("b", &disk))
		if err := tx.Commit(true); err != nil {
			t.Fatal(err)
		}
	}
	recs, _ := log.Records()
	if len(recs) != 6 { // 3 × (decision + done)
		t.Fatalf("pre-checkpoint records = %d", len(recs))
	}
	if err := svc.CheckpointLog(); err != nil {
		t.Fatal(err)
	}
	recs, _ = log.Records()
	if len(recs) != 0 {
		t.Fatalf("post-checkpoint records = %d, want 0", len(recs))
	}
}

func TestDecisionLogFailureForcesRollback(t *testing.T) {
	log := wal.NewMemory()
	log.InjectCrashAfter(0) // the very first append fails
	svc := NewService(WithLog(log))
	disk := map[string]string{}
	tx := svc.Begin()
	a, b := newDurable("a", &disk), newDurable("b", &disk)
	_ = tx.RegisterResource(a)
	_ = tx.RegisterResource(b)
	err := tx.Commit(true)
	if !errors.Is(err, ErrRolledBack) {
		t.Fatalf("err = %v, want ErrRolledBack", err)
	}
	if disk["a"] != "rolledback" || disk["b"] != "rolledback" {
		t.Fatalf("disk = %v", disk)
	}
}

func TestDecisionRecordRoundTrip(t *testing.T) {
	svcGen := NewService()
	tx := svcGen.Begin()
	names := []string{"alpha", "beta", "with space", ""}
	b := encodeDecision(tx.ID(), names[:3])
	rec, err := decodeDecision(b)
	if err != nil {
		t.Fatal(err)
	}
	if rec.tx != tx.ID() || len(rec.names) != 3 || rec.names[2] != "with space" {
		t.Fatalf("rec = %+v", rec)
	}
	if _, err := decodeDecision(b[:10]); err == nil {
		t.Fatal("short decision record accepted")
	}
	if _, err := decodeTx([]byte{1, 2}); err == nil {
		t.Fatal("short done record accepted")
	}
}
