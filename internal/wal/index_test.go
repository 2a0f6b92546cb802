package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// indexBackend opens and reopens a log over one backend kind, so the
// record-index and crash-boundary tests run the same steps against memory
// and real files. reopen is a clean restart (Close, then open); crash
// abandons the live log without a sync and opens what its medium holds.
type indexBackend struct {
	name   string
	open   func(t *testing.T) *Log
	reopen func(t *testing.T, l *Log) *Log
	crash  func(t *testing.T, l *Log) *Log
}

func indexBackends() []indexBackend {
	return []indexBackend{
		{
			name: "memory",
			open: func(*testing.T) *Log { return NewMemory() },
			reopen: func(t *testing.T, l *Log) *Log {
				snap, err := l.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				l2, err := OpenMemory(snap)
				if err != nil {
					t.Fatal(err)
				}
				return l2
			},
			crash: func(t *testing.T, l *Log) *Log {
				image, err := l.be.contents()
				if err != nil {
					t.Fatal(err)
				}
				abandon(l)
				l2, err := OpenMemory(image)
				if err != nil {
					t.Fatal(err)
				}
				return l2
			},
		},
		{
			name: "file",
			open: func(t *testing.T) *Log {
				l, err := OpenFile(filepath.Join(t.TempDir(), "index.wal"))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { l.Close() })
				return l
			},
			reopen: func(t *testing.T, l *Log) *Log {
				path := filePath(l)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
				return openFileT(t, path)
			},
			crash: func(t *testing.T, l *Log) *Log {
				path := filePath(l)
				abandon(l)
				return openFileT(t, path)
			},
		},
	}
}

// abandon is a process crash as the log sees it: the in-memory state,
// buffered records included, is dropped without a sync and the handle
// released, so the medium keeps exactly what was written to it.
func abandon(l *Log) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.be.close()
}

// filePath returns the path of a file log, through a fault wrapper.
func filePath(l *Log) string {
	if f, ok := l.be.(*faultyBackend); ok {
		return f.be.(*fileBackend).path
	}
	return l.be.(*fileBackend).path
}

// openFileT opens a file log that the test closes when it ends.
func openFileT(t *testing.T, path string) *Log {
	t.Helper()
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// appendLazy buffers a record and checks that it stays out of the stream
// position and the incremental reads until a sync covers it.
func appendLazy(t *testing.T, l *Log, data string) {
	t.Helper()
	epoch, next := l.State()
	l.mu.Lock()
	free := l.nextFreeLocked()
	l.mu.Unlock()
	lsn, err := l.AppendLazy(1, []byte(data))
	if err != nil {
		t.Fatalf("lazy append %q: %v", data, err)
	}
	if lsn != free {
		t.Fatalf("lazy append %q got LSN %d, want the next free %d", data, lsn, free)
	}
	if e, n := l.State(); e != epoch || n != next {
		t.Fatalf("lazy append %q moved the stream position (%d, %d) -> (%d, %d)", data, epoch, next, e, n)
	}
	if recs, err := l.RecordsSince(next-1, 0); err != nil || len(recs) != 0 {
		t.Fatalf("RecordsSince(%d) after lazy append = %v, %v; want nothing before a sync", next-1, recs, err)
	}
}

// mustRecords returns every record of l.
func mustRecords(t *testing.T, l *Log) []Record {
	t.Helper()
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// sameRecords reports whether two record lists are equal field by field.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].LSN != b[i].LSN || a[i].Kind != b[i].Kind || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// checkRecordsSince asserts that RecordsSince agrees with a full scan for
// every watermark from 0 to one past the log's position, and that a batch
// limit cuts the answer to its first records.
func checkRecordsSince(t *testing.T, l *Log, step string) {
	t.Helper()
	all, err := l.Records()
	if err != nil {
		t.Fatalf("%s: Records: %v", step, err)
	}
	last := l.LastLSN()
	for x := uint64(0); x <= last+1; x++ {
		var want []Record
		for _, r := range all {
			if r.LSN > x {
				want = append(want, r)
			}
		}
		got, err := l.RecordsSince(x, 0)
		if err != nil {
			t.Fatalf("%s: RecordsSince(%d): %v", step, x, err)
		}
		if !sameRecords(got, want) {
			t.Fatalf("%s: RecordsSince(%d) = %v, want %v", step, x, got, want)
		}
		for _, max := range []int{1, 2} {
			got, err := l.RecordsSince(x, max)
			if err != nil {
				t.Fatalf("%s: RecordsSince(%d, %d): %v", step, x, max, err)
			}
			if n := min(max, len(want)); !sameRecords(got, want[:n]) {
				t.Fatalf("%s: RecordsSince(%d, %d) = %v, want %v", step, x, max, got, want[:n])
			}
		}
	}
}

// TestRecordsSinceTracksEveryMutation pins the record index across every
// path that changes the durable record set: appends of every kind (lazy
// ones once a sync covers them, follower batches with a stale record and a
// gap), a torn append and its repair, a failed sync that drops the lazy
// record it carried, completed and crashed checkpoints, whole and torn
// snapshot installs, truncation and reopen. RecordsSince answers from the
// index (repl_fetch calls it per follower round), so each mutation must
// keep it faithful to the records a full scan finds.
func TestRecordsSinceTracksEveryMutation(t *testing.T) {
	for _, be := range indexBackends() {
		t.Run(be.name, func(t *testing.T) {
			l := be.open(t)
			checkRecordsSince(t, l, "empty")

			fill(t, l, 4) // LSNs 1..4
			checkRecordsSince(t, l, "append")
			if _, err := l.AdoptTerm(1, "m1"); err != nil { // LSN 5
				t.Fatal(err)
			}
			checkRecordsSince(t, l, "adopt term")
			appendLazy(t, l, "lazy-follow") // dropped: the batch owns its LSNs
			if n, err := l.AppendRecords([]Record{
				{LSN: 5, Kind: 2, Data: []byte("stale")},
				{LSN: 8, Kind: 2, Data: []byte("gap")},
				{LSN: 9, Kind: KindTerm, Data: EncodeTermRecord(2, "m2")},
			}); err != nil || n != 2 {
				t.Fatalf("append records: %d applied, %v; want 2", n, err)
			}
			checkRecordsSince(t, l, "append records")

			appendLazy(t, l, "lazy") // LSN 10, synced by LSN 11's append
			if _, err := l.Append(1, []byte("covers-lazy")); err != nil {
				t.Fatal(err)
			}
			checkRecordsSince(t, l, "append covering a lazy record")
			appendLazy(t, l, "lazy-read") // LSN 12
			checkRecordsSince(t, l, "lazy record synced by a read")

			l.InjectCrashAfter(0)
			if _, err := l.Append(1, []byte("torn")); !errors.Is(err, ErrCrashed) {
				t.Fatalf("torn append = %v, want ErrCrashed", err)
			}
			l.InjectCrashAfter(-1)
			checkRecordsSince(t, l, "torn append")
			if _, err := l.Append(1, []byte("repaired")); err != nil { // LSN 13
				t.Fatal(err)
			}
			checkRecordsSince(t, l, "torn append repair")

			inner := l.be
			l.be = &faultyBackend{be: inner, failSyncs: 1}
			appendLazy(t, l, "lazy-unsure")
			if _, err := l.Append(1, []byte("unsure")); err == nil {
				t.Fatal("append succeeded despite injected sync failure")
			}
			checkRecordsSince(t, l, "failed sync")
			if _, err := l.Append(1, []byte("after-sync")); err != nil { // LSN 14
				t.Fatal(err)
			}
			l.be = inner
			checkRecordsSince(t, l, "append after failed sync")

			appendLazy(t, l, "lazy-checkpoint") // LSN 15, synced and dropped
			if err := l.Checkpoint(func(r Record) bool { return r.LSN%2 == 0 }); err != nil {
				t.Fatal(err)
			}
			checkRecordsSince(t, l, "checkpoint")
			l.InjectCrashAfter(0)
			if err := l.Checkpoint(func(Record) bool { return false }); !errors.Is(err, ErrCrashed) {
				t.Fatalf("crashed checkpoint = %v, want ErrCrashed", err)
			}
			l.InjectCrashAfter(-1)
			checkRecordsSince(t, l, "crashed checkpoint")
			if _, err := l.Append(3, []byte("post-checkpoint")); err != nil { // LSN 12
				t.Fatal(err)
			}
			checkRecordsSince(t, l, "append after checkpoint")

			src := NewMemory()
			fill(t, src, 6)
			if _, err := src.AdoptTerm(3, "m3"); err != nil {
				t.Fatal(err)
			}
			fill(t, src, 2)
			snap, err := src.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			appendLazy(t, l, "lazy-install") // dropped with the old contents
			if err := l.InstallSnapshot(7, snap); err != nil {
				t.Fatal(err)
			}
			checkRecordsSince(t, l, "install snapshot")
			if got, want := mustRecords(t, l), mustRecords(t, src); !sameRecords(got, want) {
				t.Fatalf("installed log holds %v, snapshot %v", got, want)
			}
			if err := l.InstallSnapshot(8, snap[:len(snap)-3]); err != nil {
				t.Fatal(err)
			}
			checkRecordsSince(t, l, "install torn snapshot")
			if _, err := l.Append(1, []byte("after-install")); err != nil {
				t.Fatal(err)
			}
			checkRecordsSince(t, l, "append after install")

			appendLazy(t, l, "lazy-truncate") // synced, then cut
			if err := l.TruncateAfter(5); err != nil {
				t.Fatal(err)
			}
			checkRecordsSince(t, l, "truncate")
			if _, err := l.Append(1, []byte("after-truncate")); err != nil {
				t.Fatal(err)
			}
			checkRecordsSince(t, l, "append after truncate")

			appendLazy(t, l, "lazy-close") // the clean restart syncs it
			last := l.LastLSN()
			l = be.reopen(t, l)
			checkRecordsSince(t, l, "reopen")
			if got := l.LastLSN(); got != last+1 {
				t.Fatalf("reopened log ends at LSN %d, want %d (the lazy record Close synced)", got, last+1)
			}
			if _, err := l.Append(1, []byte("after-reopen")); err != nil {
				t.Fatal(err)
			}
			checkRecordsSince(t, l, "append after reopen")
		})
	}
}

// TestTruncateAfterMatchesReopen pins TruncateAfter's in-memory answer —
// the cut from the record index, the term state from the trimmed term
// marks — against a fresh reopen of the truncated log, at every cut,
// including cuts through a follower batch and a buffered lazy record.
func TestTruncateAfterMatchesReopen(t *testing.T) {
	for _, be := range indexBackends() {
		t.Run(be.name, func(t *testing.T) {
			for cut := uint64(0); cut <= 10; cut++ {
				// LSN 1, term 1 at LSN 2, batch LSNs 3-4, term 2 at LSN 5,
				// LSNs 6-8, lazy LSN 9.
				l := be.open(t)
				fill(t, l, 1)
				if _, err := l.AdoptTerm(1, "m1"); err != nil {
					t.Fatal(err)
				}
				if _, err := l.AppendRecords([]Record{
					{LSN: 3, Kind: 1, Data: []byte("batch-3")},
					{LSN: 4, Kind: 2, Data: []byte("batch-4")},
				}); err != nil {
					t.Fatal(err)
				}
				if _, err := l.AdoptTerm(2, "m2"); err != nil {
					t.Fatal(err)
				}
				fill(t, l, 3)
				if _, err := l.AppendLazy(1, []byte("lazy-9")); err != nil {
					t.Fatal(err)
				}
				if err := l.TruncateAfter(cut); err != nil {
					t.Fatal(err)
				}
				ts, last := l.TermState(), l.LastLSN()
				recs, err := l.RecordsSince(0)
				if err != nil {
					t.Fatal(err)
				}

				r := be.reopen(t, l)
				if got := r.TermState(); got != ts {
					t.Fatalf("cut %d: term state %+v, reopen has %+v", cut, ts, got)
				}
				if got := r.LastLSN(); got != last {
					t.Fatalf("cut %d: LastLSN %d, reopen has %d", cut, last, got)
				}
				want, err := r.RecordsSince(0)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRecords(recs, want) {
					t.Fatalf("cut %d: RecordsSince(0) = %v, reopen has %v", cut, recs, want)
				}
			}
		})
	}
}

// TestFailedReadKeepsAppendOffset is the regression for reads that moved
// the position appends write at: when appends wrote at the file cursor, a
// read that failed after seeking left it short of the end, and the next
// Append overwrote acknowledged records — record 1, here. Every read path
// fails (the handle is write-only) and the append after them must still
// land behind the three records already in the log.
func TestFailedReadKeepsAppendOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "offset.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fill(t, l, 3)
	fb := l.be.(*fileBackend)
	wo, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	rw := fb.f
	fb.f = wo
	if _, err := l.Snapshot(); err == nil {
		t.Fatal("Snapshot read through a write-only handle")
	}
	if _, err := l.Records(); err == nil {
		t.Fatal("Records read through a write-only handle")
	}
	if _, err := l.RecordsSince(0); err == nil {
		t.Fatal("RecordsSince read through a write-only handle")
	}
	if _, err := l.Append(1, []byte("rec-3")); err != nil {
		t.Fatalf("append after failed reads: %v", err)
	}
	want = append(want, "rec-3")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rw.Close()

	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	wantRecords(t, l2, want)
	if got := l2.LastLSN(); got != 4 {
		t.Fatalf("LastLSN after reopen = %d, want 4", got)
	}
}

// fileLogOf opens a file log holding n decision-sized records. The file is
// written in one go rather than appended record by record, which would
// cost one fsync each.
func fileLogOf(tb testing.TB, n int) *Log {
	tb.Helper()
	data := []byte("decision-record-payload-0123456789")
	var image []byte
	for i := 1; i <= n; i++ {
		image = appendRecord(image, Record{LSN: uint64(i), Kind: 0x11, Data: data})
	}
	path := filepath.Join(tb.TempDir(), fmt.Sprintf("fetch-%d.wal", n))
	if err := os.WriteFile(path, image, 0o644); err != nil {
		tb.Fatal(err)
	}
	l, err := OpenFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { l.Close() })
	return l
}

// fetchNewest returns one follower-style fetch of the newest record.
func fetchNewest(tb testing.TB, l *Log) func() {
	last := l.LastLSN()
	return func() {
		recs, err := l.RecordsSince(last-1, 0)
		if err != nil || len(recs) != 1 {
			tb.Fatalf("RecordsSince(%d) = %d records, %v; want 1", last-1, len(recs), err)
		}
	}
}

// BenchmarkRecordsSince fetches the newest record of file logs of 1 k and
// 100 k records: the two sizes should cost the same.
func BenchmarkRecordsSince(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"1k", 1000}, {"100k", 100000}} {
		b.Run(size.name, func(b *testing.B) {
			fetch := fetchNewest(b, fileLogOf(b, size.n))
			b.ReportAllocs()
			for b.Loop() {
				fetch()
			}
		})
	}
}

// appendLazyOp returns one lazy append of a done-sized record on a file
// log. Every 1024th call empties the buffer without writing it, as a crash
// would, so the op stays free of I/O and the buffer stays bounded.
func appendLazyOp(tb testing.TB) func() {
	l := fileLogOf(tb, 0)
	done := []byte("0123456789abcdef") // a transaction id
	n := 0
	return func() {
		if _, err := l.AppendLazy(0x12, done); err != nil {
			tb.Fatal(err)
		}
		if n++; n%1024 == 0 {
			l.mu.Lock()
			l.dropTailLocked()
			l.mu.Unlock()
		}
	}
}

// BenchmarkAppendLazy is the cost a committing transaction pays for its
// done record: an encode into the log's buffer, no syscall.
func BenchmarkAppendLazy(b *testing.B) {
	op := appendLazyOp(b)
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}

// appendFileOp returns one append of a decision-sized record to a file
// log: one write and one fsync.
func appendFileOp(tb testing.TB) func() {
	l := fileLogOf(tb, 0)
	data := []byte("decision-record-payload-0123456789")
	return func() {
		if _, err := l.Append(Kind(7), data); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkAppendFile is the cost of a commit decision on a real file: the
// write lands in space the file was already extended to, so its fsync does
// not also carry a new file length.
func BenchmarkAppendFile(b *testing.B) {
	op := appendFileOp(b)
	b.ReportAllocs()
	for b.Loop() {
		op()
	}
}

// extendOp returns one write that extends a file log's medium by a whole
// allocation step: the file is cut back to empty first.
func extendOp(tb testing.TB) func() {
	fb := fileLogOf(tb, 0).be.(*fileBackend)
	rec := appendRecord(nil, Record{LSN: 1, Kind: 7, Data: []byte("decision")})
	return func() {
		if err := fb.truncate(0); err != nil {
			tb.Fatal(err)
		}
		if err := fb.writeAt(0, rec); err != nil {
			tb.Fatal(err)
		}
	}
}

// applyBatchOp returns one follower apply of an n-record batch on a memory
// log, truncated back after each apply so every run writes the same LSNs
// into buffers already grown to size.
func applyBatchOp(tb testing.TB, n int) func() {
	l := NewMemory()
	data := []byte("decision-record-payload-0123456789")
	batch := make([]Record, n)
	for i := range batch {
		batch[i] = Record{LSN: uint64(i + 1), Kind: 0x11, Data: data}
	}
	return func() {
		if applied, err := l.AppendRecords(batch); err != nil || applied != n {
			tb.Fatalf("AppendRecords: %d of %d applied, %v", applied, n, err)
		}
		if err := l.TruncateAfter(0); err != nil {
			tb.Fatal(err)
		}
	}
}
