package wal

import (
	"errors"
	"path/filepath"
	"testing"
)

func TestAdoptTermAndFence(t *testing.T) {
	l := NewMemory()
	if ts := l.TermState(); ts.Term != 0 || ts.Fenced {
		t.Fatalf("fresh log term state = %+v", ts)
	}
	if _, err := l.Append(Kind(7), []byte("a")); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AdoptTerm(1, "m1")
	if err != nil {
		t.Fatalf("adopt term 1: %v", err)
	}
	if lsn != 2 {
		t.Fatalf("term start lsn = %d, want 2", lsn)
	}
	if ts := l.TermState(); ts.Term != 1 || ts.Start != 2 || ts.Leader != "m1" || ts.Fenced {
		t.Fatalf("term state = %+v", ts)
	}
	// Claiming at or below a known term is rejected.
	if _, err := l.AdoptTerm(1, "m2"); !errors.Is(err, ErrFenced) {
		t.Fatalf("re-adopt term 1 = %v, want ErrFenced", err)
	}
	// Stale evidence must not fence a legitimate leader.
	if l.Fence(1) {
		t.Fatal("Fence(1) raised a fence at the current term")
	}
	if _, err := l.Append(Kind(7), []byte("b")); err != nil {
		t.Fatalf("append while unfenced: %v", err)
	}
	// A higher term fences the append path.
	if !l.Fence(3) {
		t.Fatal("Fence(3) did not raise the fence")
	}
	if _, err := l.Append(Kind(7), []byte("c")); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced append = %v, want ErrFenced", err)
	}
	if l.KnownTerm() != 3 {
		t.Fatalf("KnownTerm = %d, want 3 (fence term)", l.KnownTerm())
	}
	// Claiming a term at or below the fence term is rejected too — in
	// particular the fence term itself: the fence is evidence that term 3
	// is already owned, and adopting it here would put two leaders in one
	// fencing epoch.
	if _, err := l.AdoptTerm(2, "m1"); !errors.Is(err, ErrFenced) {
		t.Fatalf("adopt term 2 under fence 3 = %v, want ErrFenced", err)
	}
	if _, err := l.AdoptTerm(3, "m1"); !errors.Is(err, ErrFenced) {
		t.Fatalf("adopt the fence term itself = %v, want ErrFenced", err)
	}
	// Winning a later election clears the fence.
	if _, err := l.AdoptTerm(4, "m1"); err != nil {
		t.Fatalf("adopt term 4: %v", err)
	}
	if ts := l.TermState(); ts.Term != 4 || ts.Fenced || ts.FencedAt != 0 {
		t.Fatalf("term state after re-election = %+v", ts)
	}
	if _, err := l.Append(Kind(7), []byte("d")); err != nil {
		t.Fatalf("append after re-election: %v", err)
	}
}

func TestStreamedTermRecordAdoptsAndUnfences(t *testing.T) {
	primary := NewMemory()
	if _, err := primary.Append(Kind(7), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.AdoptTerm(2, "m2"); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Append(Kind(7), []byte("b")); err != nil {
		t.Fatal(err)
	}

	follower := NewMemory()
	follower.Fence(2) // the claim arrived before the stream
	recs, err := primary.RecordsSince(0)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := follower.AppendRecords(recs); err != nil || n != len(recs) {
		t.Fatalf("apply batch: %d of %d applied, %v", n, len(recs), err)
	}
	ts := follower.TermState()
	if ts.Term != 2 || ts.Start != 2 || ts.Leader != "m2" {
		t.Fatalf("follower term state = %+v", ts)
	}
	if ts.Fenced {
		t.Fatal("follower still fenced after streaming the term record")
	}
	if _, err := follower.Append(Kind(7), []byte("local")); err != nil {
		t.Fatalf("append after stream unfence: %v", err)
	}
}

func TestTruncateAfterCutsSuffixKeepsFence(t *testing.T) {
	l := NewMemory()
	for i := 0; i < 5; i++ {
		if _, err := l.Append(Kind(7), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Fence(9)
	if err := l.TruncateAfter(2); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1].LSN != 2 {
		t.Fatalf("records after truncate = %v", recs)
	}
	if l.LastLSN() != 2 {
		t.Fatalf("LastLSN = %d, want 2", l.LastLSN())
	}
	if !l.Fenced() {
		t.Fatal("truncation lowered the fence")
	}
	// The freed LSNs are reusable by the replication stream.
	if _, err := l.AppendRecords([]Record{{LSN: 3, Kind: KindTerm, Data: EncodeTermRecord(9, "m2")}}); err != nil {
		t.Fatalf("stream into truncated log: %v", err)
	}
	if l.Fenced() {
		t.Fatal("still fenced after the fence term's record streamed in")
	}
	if ts := l.TermState(); ts.Term != 9 || ts.Start != 3 {
		t.Fatalf("term state = %+v", ts)
	}
}

func TestTruncateAfterRecomputesTermState(t *testing.T) {
	l := NewMemory()
	if _, err := l.AdoptTerm(1, "m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Kind(7), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AdoptTerm(2, "m2"); err != nil {
		t.Fatal(err)
	}
	// Cutting the term-2 record falls back to term 1.
	if err := l.TruncateAfter(2); err != nil {
		t.Fatal(err)
	}
	if ts := l.TermState(); ts.Term != 1 || ts.Start != 1 || ts.Leader != "m1" {
		t.Fatalf("term state after cutting term 2 = %+v", ts)
	}
}

func TestCheckpointRetainsLatestTermRecord(t *testing.T) {
	l := NewMemory()
	if _, err := l.AdoptTerm(1, "m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Kind(7), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AdoptTerm(2, "m2"); err != nil {
		t.Fatal(err)
	}
	// A keep function that drops everything still leaves the latest term
	// record (and only that one).
	if err := l.Checkpoint(func(Record) bool { return false }); err != nil {
		t.Fatal(err)
	}
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Kind != KindTerm || recs[0].LSN != 3 {
		t.Fatalf("records after checkpoint = %v", recs)
	}
	// A restart over the compacted log still sees term 2.
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenMemory(snap)
	if err != nil {
		t.Fatal(err)
	}
	if ts := reopened.TermState(); ts.Term != 2 || ts.Start != 3 || ts.Leader != "m2" {
		t.Fatalf("reopened term state = %+v", ts)
	}
}

// TestTermStartAfterTracksEveryMutation pins the rejoin truncation bound
// across every path that changes the term-record set: local adoption,
// streamed term records, compaction and reopen. TermStartAfter answers
// from an in-memory cache (fenceFetch calls it per fetch round), so each
// mutation must keep the cache faithful to the durable records.
func TestTermStartAfterTracksEveryMutation(t *testing.T) {
	l := NewMemory()
	if _, ok := l.TermStartAfter(0); ok {
		t.Fatal("empty log reported a term start")
	}
	if _, err := l.AdoptTerm(1, "m1"); err != nil { // LSN 1
		t.Fatal(err)
	}
	if _, err := l.Append(Kind(7), []byte("a")); err != nil { // LSN 2
		t.Fatal(err)
	}
	if _, err := l.AdoptTerm(2, "m2"); err != nil { // LSN 3
		t.Fatal(err)
	}
	// A streamed term record (the follower apply path) extends the cache.
	if _, err := l.AppendRecords([]Record{{LSN: 4, Kind: KindTerm, Data: EncodeTermRecord(3, "m3")}}); err != nil {
		t.Fatal(err)
	}
	for term, want := range map[uint64]uint64{0: 1, 1: 3, 2: 4} {
		if got, ok := l.TermStartAfter(term); !ok || got != want {
			t.Fatalf("TermStartAfter(%d) = %d,%v, want %d,true", term, got, ok, want)
		}
	}
	if _, ok := l.TermStartAfter(3); ok {
		t.Fatal("TermStartAfter beyond the newest term reported a start")
	}

	// Compaction drops the older term records; the bound for old terms
	// moves up to the earliest surviving one.
	if err := l.Checkpoint(func(Record) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if got, ok := l.TermStartAfter(0); !ok || got != 4 {
		t.Fatalf("TermStartAfter(0) after checkpoint = %d,%v, want 4,true", got, ok)
	}

	// A restart over the compacted log rebuilds the cache from the scan.
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenMemory(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := reopened.TermStartAfter(2); !ok || got != 4 {
		t.Fatalf("reopened TermStartAfter(2) = %d,%v, want 4,true", got, ok)
	}
	// Truncation cuts the term-3 record; the bound disappears with it.
	if err := reopened.TruncateAfter(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.TermStartAfter(2); ok {
		t.Fatal("truncated term record still reported by TermStartAfter")
	}
}

func TestTermSurvivesFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "term.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AdoptTerm(5, "member-b"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Kind(7), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	ts := reopened.TermState()
	if ts.Term != 5 || ts.Start != 1 || ts.Leader != "member-b" {
		t.Fatalf("reopened term state = %+v", ts)
	}
	if ts.Fenced {
		t.Fatal("fence survived restart; it is in-memory evidence only")
	}
}

// TestFencedTruncationTornTailAcrossReopen is the fenced-rejoin crash
// matrix: a deposed leader truncates its unreplicated suffix, tears an
// append (the crash-injected stream apply), and the reopen repairs the
// torn tail without resurrecting the truncated suffix.
func TestFencedTruncationTornTailAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rejoin.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := l.Append(Kind(7), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Deposed: fence, cut the unreplicated suffix (records 4..6).
	l.Fence(3)
	if err := l.TruncateAfter(3); err != nil {
		t.Fatal(err)
	}
	// The rejoin stream starts; its first apply tears mid-record.
	l.InjectCrashAfter(0)
	_, err = l.AppendRecords([]Record{{LSN: 4, Kind: KindTerm, Data: EncodeTermRecord(3, "m2")}})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash-injected apply = %v, want ErrCrashed", err)
	}
	l.Close()

	reopened, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	recs, err := reopened.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("reopened log holds %d records, want the 3 below the cut", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || len(r.Data) != 1 || r.Data[0] != byte(i) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	// The repaired log streams cleanly from where the cut left it.
	if _, err := reopened.AppendRecords([]Record{{LSN: 4, Kind: KindTerm, Data: EncodeTermRecord(3, "m2")}}); err != nil {
		t.Fatalf("stream after repair: %v", err)
	}
	if ts := reopened.TermState(); ts.Term != 3 || ts.Start != 4 {
		t.Fatalf("term state after rejoin stream = %+v", ts)
	}
}

// appendOp returns one append of a decision-sized record to a fresh
// memory log, with term state present when fenced.
func appendOp(tb testing.TB, fenced bool) func() {
	l := NewMemory()
	if fenced {
		if _, err := l.AdoptTerm(1, "bench-member"); err != nil {
			tb.Fatal(err)
		}
	}
	data := []byte("decision-record-payload-0123456789")
	return func() {
		if _, err := l.Append(Kind(7), data); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkAppend is the unfenced append baseline BenchmarkFencedAppend
// is gated against (TestAllocsFencedAppend: fenced ≤ baseline + 1
// alloc/op).
func BenchmarkAppend(b *testing.B) {
	op := appendOp(b, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkFencedAppend measures the append fast path with term state
// present: the fence check is one branch under the lock, so the path must
// cost no more than one allocation over the plain append.
func BenchmarkFencedAppend(b *testing.B) {
	op := appendOp(b, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
