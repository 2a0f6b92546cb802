package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// faultyBackend wraps a real backend with switchable failures so the
// crash-boundary matrix can run against real files: a torn append (half
// the bytes reach the medium before the error), a failed fsync, a failed
// atomic replace. Each knob counts down so a single operation can fail
// and the next succeed, like a participant coming back after a crash.
type faultyBackend struct {
	be          backend
	tearAppends int // tear the next n appends
	failSyncs   int // fail the next n syncs (bytes may have been written)
	failReplace int // fail the next n replaces without touching the medium
}

var errInjected = errors.New("wal_test: injected fault")

func (f *faultyBackend) writeAt(off int, b []byte) error {
	if f.tearAppends > 0 {
		f.tearAppends--
		_ = f.be.writeAt(off, b[:len(b)/2])
		return errInjected
	}
	return f.be.writeAt(off, b)
}

func (f *faultyBackend) sync() error {
	if f.failSyncs > 0 {
		f.failSyncs--
		return errInjected
	}
	return f.be.sync()
}

func (f *faultyBackend) contents() ([]byte, error)         { return f.be.contents() }
func (f *faultyBackend) readAt(off, n int) ([]byte, error) { return f.be.readAt(off, n) }
func (f *faultyBackend) truncate(n int) error              { return f.be.truncate(n) }

func (f *faultyBackend) replace(b []byte) error {
	if f.failReplace > 0 {
		f.failReplace--
		return errInjected
	}
	return f.be.replace(b)
}

func (f *faultyBackend) close() error { return f.be.close() }

// fill appends n records with recognisable payloads and returns their data.
func fill(t *testing.T, l *Log, n int) []string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		data := fmt.Sprintf("rec-%d", i)
		if _, err := l.Append(Kind(1+i%3), []byte(data)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		out = append(out, data)
	}
	return out
}

// wantRecords asserts the log replays exactly the given payloads in order.
func wantRecords(t *testing.T, l *Log, want []string) {
	t.Helper()
	recs, err := l.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d (%v)", len(recs), len(want), want)
	}
	for i, r := range recs {
		if string(r.Data) != want[i] {
			t.Fatalf("record %d = %q, want %q", i, r.Data, want[i])
		}
	}
}

// TestCheckpointCrashAtomicityMemory is the checkpoint-atomicity
// regression: a crash during the checkpoint rewrite must lose nothing. On
// the pre-fix code Checkpoint truncated the log to zero and then
// re-appended the kept records, so a crash between the two steps lost
// every live record — including undelivered commit decisions.
func TestCheckpointCrashAtomicityMemory(t *testing.T) {
	l := NewMemory()
	want := fill(t, l, 4)

	l.InjectCrashAfter(0) // the checkpoint rewrite crashes
	err := l.Checkpoint(func(r Record) bool { return r.Kind == 1 })
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("checkpoint err = %v, want ErrCrashed", err)
	}
	l.InjectCrashAfter(-1)

	// Every record must still be there — the failed checkpoint must not
	// have touched the durable contents.
	wantRecords(t, l, want)

	// Simulated restart over the same durable state: still everything.
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := OpenMemory(snap)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, l2, want)
}

// TestCheckpointCrashAtomicityFile runs the same regression against a real
// file: the rewrite fails (injected at the backend's atomic-replace step,
// i.e. before the rename became durable) and the on-disk log — reopened
// cold, as after a crash — must still hold every record.
func TestCheckpointCrashAtomicityFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fill(t, l, 4)

	fb := &faultyBackend{be: l.be, failReplace: 1}
	l.be = fb
	if err := l.Checkpoint(func(r Record) bool { return r.Kind == 1 }); err == nil {
		t.Fatal("checkpoint succeeded despite injected replace failure")
	}
	wantRecords(t, l, want)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-restart: reopen the path cold.
	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	wantRecords(t, l2, want)
}

// TestCheckpointFileAtomicSwap pins the success path of the temp-file +
// rename checkpoint on a real file: the reopened log holds exactly the
// kept records with their LSNs preserved, appends continue the sequence,
// and no temp file is left behind.
func TestCheckpointFileAtomicSwap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "swap.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 6)
	if err := l.Checkpoint(func(r Record) bool { return r.LSN%2 == 0 }); err != nil {
		t.Fatal(err)
	}
	// Appends after the swap land in the renamed file.
	if lsn, err := l.Append(9, []byte("after")); err != nil || lsn != 7 {
		t.Fatalf("append after checkpoint: lsn=%d err=%v, want 7", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".ckpt"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp checkpoint file left behind: stat err = %v", err)
	}

	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	recs, err := l2.Records()
	if err != nil {
		t.Fatal(err)
	}
	wantLSNs := []uint64{2, 4, 6, 7}
	if len(recs) != len(wantLSNs) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantLSNs))
	}
	for i, r := range recs {
		if r.LSN != wantLSNs[i] {
			t.Fatalf("record %d LSN = %d, want %d", i, r.LSN, wantLSNs[i])
		}
	}
}

// TestTornAppendRepairMemory is the torn-append regression: after a failed
// append leaves torn bytes at the tail, the next successful append must
// repair the tail first. On the pre-fix code the new record was written
// after the garbage, so replay stopped at the tear and every later record
// was silently invisible.
func TestTornAppendRepairMemory(t *testing.T) {
	l := NewMemory()
	if _, err := l.Append(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	l.InjectCrashAfter(0)
	if _, err := l.Append(1, []byte("lost")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append err = %v, want ErrCrashed", err)
	}
	l.InjectCrashAfter(-1)

	// The append after the tear must be visible to replay.
	if _, err := l.Append(1, []byte("second")); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, l, []string{"first", "second"})

	// And must survive a restart over the durable state.
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	l2, err := OpenMemory(snap)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, l2, []string{"first", "second"})
	// LSNs: the torn record's LSN was never durable, so "second" reuses it.
	recs, _ := l2.Records()
	if recs[1].LSN != 2 {
		t.Fatalf("second record LSN = %d, want 2 (torn LSN reused)", recs[1].LSN)
	}
}

// TestTornAppendRepairFile runs the torn-append regression against a real
// file through a write-failing backend: the tear leaves half a record on
// disk, the next append repairs it, and a cold reopen sees every record.
func TestTornAppendRepairFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	fb := &faultyBackend{be: l.be, tearAppends: 1}
	l.be = fb
	if _, err := l.Append(1, []byte("lost")); err == nil {
		t.Fatal("append succeeded despite injected tear")
	}
	if _, err := l.Append(1, []byte("second")); err != nil {
		t.Fatalf("append after tear: %v", err)
	}
	wantRecords(t, l, []string{"first", "second"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	wantRecords(t, l2, []string{"first", "second"})
}

// TestFailedSyncTreatedAsTorn pins the conservative handling of a failed
// fsync: the record's bytes may or may not be durable, so the next append
// truncates back to the last known-durable offset and rewrites cleanly.
func TestFailedSyncTreatedAsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	fb := &faultyBackend{be: l.be, failSyncs: 1}
	l.be = fb
	if _, err := l.Append(1, []byte("unsure")); err == nil {
		t.Fatal("append succeeded despite injected sync failure")
	}
	if _, err := l.Append(1, []byte("second")); err != nil {
		t.Fatalf("append after sync failure: %v", err)
	}
	wantRecords(t, l, []string{"first", "second"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	wantRecords(t, l2, []string{"first", "second"})
}

// TestCheckpointAfterFailedSyncDropsUnsureRecord pins that a record whose
// fsync failed is not part of the log even while its bytes sit complete on
// the medium: reads do not return it, and a checkpoint does not make it
// durable — which left two records with one LSN once the next append
// reused it.
func TestCheckpointAfterFailedSyncDropsUnsureRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unsure.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := fill(t, l, 2)
	inner := l.be
	l.be = &faultyBackend{be: inner, failSyncs: 1}
	if _, err := l.Append(1, []byte("unsure")); err == nil {
		t.Fatal("append succeeded despite injected sync failure")
	}
	l.be = inner
	wantRecords(t, l, want)
	if err := l.Checkpoint(func(Record) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if lsn, err := l.Append(1, []byte("next")); err != nil || lsn != 3 {
		t.Fatalf("append after checkpoint: lsn=%d err=%v, want 3", lsn, err)
	}
	wantRecords(t, l, append(want, "next"))
}

// TestFileTornTailEveryCut is the file-backend crash matrix: a multi-record
// log cut at every byte boundary — as a crash mid-write would leave it —
// must reopen to a clean prefix, accept appends, and reopen cleanly again.
// The mirror of TestTornTailTruncatedOnReopen against real files.
func TestFileTornTailEveryCut(t *testing.T) {
	src := NewMemory()
	for i := 0; i < 4; i++ {
		if _, err := src.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	full, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for cut := 0; cut <= len(full); cut++ {
		path := filepath.Join(dir, fmt.Sprintf("cut-%d.wal", cut))
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := OpenFile(path)
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		recs, err := l.Records()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for j, r := range recs {
			if r.LSN != uint64(j+1) || int(r.Data[0]) != j {
				t.Fatalf("cut %d: record %d = %+v, not a clean prefix", cut, j, r)
			}
		}
		if _, err := l.Append(9, []byte("new")); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := OpenFile(path)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		recs2, err := l2.Records()
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(recs2) != len(recs)+1 || string(recs2[len(recs2)-1].Data) != "new" {
			t.Fatalf("cut %d: reopened records = %d, want prefix + appended", cut, len(recs2))
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFileCheckpointThenCrashMatrix drives the checkpoint/torn-append/
// replay matrix against one real file: checkpoint, tear an append, repair,
// checkpoint again — reopening cold after every step.
func TestFileCheckpointThenCrashMatrix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 5)
	if err := l.Checkpoint(func(r Record) bool { return r.LSN > 2 }); err != nil {
		t.Fatal(err)
	}
	// Tear an append on the compacted log.
	l.InjectCrashAfter(0)
	if _, err := l.Append(7, []byte("torn")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append err = %v, want ErrCrashed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Cold restart: the torn record is gone, the compacted set intact.
	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, l2, []string{"rec-2", "rec-3", "rec-4"})
	if _, err := l2.Append(8, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	// Checkpoint everything away, then reopen: an empty log that appends.
	if err := l2.Checkpoint(func(Record) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	wantRecords(t, l3, nil)
	if _, err := l3.Append(1, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, l3, []string{"fresh"})
}

// TestOpenFileRepairsTornTailDurably pins open-time repair: a log file
// ending in garbage half-way through a record header must open to the
// clean prefix, and the repair must already be on disk — a second process
// opening the same path sees the repaired log even if the first never
// appends.
func TestOpenFileRepairsTornTailDurably(t *testing.T) {
	path := filepath.Join(t.TempDir(), "repair.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, l, 2)
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: valid records plus torn garbage.
	torn := append(append([]byte{}, snap...), 0xDE, 0xAD, 0xBE)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, l2, []string{"rec-0", "rec-1"})
	// The repair is durable without any append: the raw file has shrunk to
	// the records, with no zeros past them yet.
	if alloc := checkPrealloc(t, l2); alloc != len(snap) {
		t.Fatalf("file length = %d, want %d (torn tail truncated on open)", alloc, len(snap))
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}

// checkPrealloc asserts the invariant of a file log that is not dirty and
// returns the file's length: the file is as long as the backend believes,
// at least as long as the records, and zero past the last one. It returns
// 0 for a memory log.
func checkPrealloc(t *testing.T, l *Log) int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	fb, ok := l.be.(*fileBackend)
	if !ok {
		return 0
	}
	fi, err := fb.f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if int(fi.Size()) != fb.alloc || fb.alloc < l.size {
		t.Fatalf("file length %d, backend alloc %d, log size %d: want length = alloc >= size",
			fi.Size(), fb.alloc, l.size)
	}
	tail, err := fb.readAt(l.size, fb.alloc-l.size)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range tail {
		if c != 0 {
			t.Fatalf("byte %d past the last record (offset %d) is %#x, want zero", i, l.size+i, c)
		}
	}
	return fb.alloc
}

// lsnsOf returns the LSNs of every record of l, in order.
func lsnsOf(t *testing.T, l *Log) []uint64 {
	t.Helper()
	var out []uint64
	for _, r := range mustRecords(t, l) {
		out = append(out, r.LSN)
	}
	return out
}

// TestPreallocStaleRecordNeverReplayed is the crash boundary preallocation
// adds: a flush whose fsync failed can leave its records complete on the
// medium, past the log's size and inside space already extended, where
// the next, shorter write no longer covers them all. Here the failed flush
// carried a lazy record and its carrier, and the next append is exactly
// as long as the lazy record, so the stale carrier would sit intact behind
// it — replayed after a crash — unless the repair truncated it first.
func TestPreallocStaleRecordNeverReplayed(t *testing.T) {
	for _, be := range indexBackends() {
		t.Run(be.name, func(t *testing.T) {
			l := be.open(t)
			want := fill(t, l, 2)
			appendLazy(t, l, "lazy")
			inner := l.be
			l.be = &faultyBackend{be: inner, failSyncs: 1}
			if _, err := l.Append(1, []byte("stale-carrier")); err == nil {
				t.Fatal("append succeeded despite injected sync failure")
			}
			l.be = inner
			if lsn, err := l.Append(1, []byte("next")); err != nil || lsn != 3 {
				t.Fatalf("append after the failed sync: lsn=%d err=%v, want 3", lsn, err)
			}
			want = append(want, "next")
			checkPrealloc(t, l)
			l = be.crash(t, l)
			wantRecords(t, l, want)
			if got := l.LastLSN(); got != 3 {
				t.Fatalf("reopened log ends at LSN %d, want 3", got)
			}
		})
	}
}

// TestPreallocTornRecordThenZeros pins replay over a torn write inside
// preallocated space: half a record followed by zeros to the step
// boundary reopens to the clean prefix, the open truncates both, and the
// log appends and reopens again.
func TestPreallocTornRecordThenZeros(t *testing.T) {
	for _, be := range indexBackends() {
		t.Run(be.name, func(t *testing.T) {
			l := be.open(t)
			want := fill(t, l, 3)
			size := l.size
			l.be = &faultyBackend{be: l.be, tearAppends: 1}
			if _, err := l.Append(1, []byte("torn-record-payload")); err == nil {
				t.Fatal("append succeeded despite injected tear")
			}
			if fb, ok := l.be.(*faultyBackend).be.(*fileBackend); ok && fb.alloc != allocStep {
				t.Fatalf("file length %d before the crash, want one step %d", fb.alloc, allocStep)
			}
			l = be.crash(t, l)
			wantRecords(t, l, want)
			if alloc := checkPrealloc(t, l); be.name == "file" && alloc != size {
				t.Fatalf("file length after reopen = %d, want the records' %d", alloc, size)
			}
			if _, err := l.Append(1, []byte("after")); err != nil {
				t.Fatal(err)
			}
			checkPrealloc(t, l)
			wantRecords(t, be.crash(t, l), append(want, "after"))
		})
	}
}

// TestPreallocRecordStraddlesStep pins a record that starts before a step
// boundary and ends past it: the file is extended by one more step before
// the record is written, and the record survives a crash whole.
func TestPreallocRecordStraddlesStep(t *testing.T) {
	for _, be := range indexBackends() {
		t.Run(be.name, func(t *testing.T) {
			l := be.open(t)
			// One record ending 50 bytes short of the boundary, then one
			// that crosses it.
			big := make([]byte, allocStep-headerSize-10-50)
			big[0] = 'b'
			if _, err := l.Append(1, big); err != nil {
				t.Fatal(err)
			}
			if alloc := checkPrealloc(t, l); be.name == "file" && alloc != allocStep {
				t.Fatalf("file length %d, want %d", alloc, allocStep)
			}
			if _, err := l.Append(2, []byte("straddles-the-step-boundary-by-a-few-dozen-bytes")); err != nil {
				t.Fatal(err)
			}
			if l.size <= allocStep {
				t.Fatalf("second record ends at %d, want past the step at %d", l.size, allocStep)
			}
			if alloc := checkPrealloc(t, l); be.name == "file" && alloc != 2*allocStep {
				t.Fatalf("file length %d, want %d", alloc, 2*allocStep)
			}
			l = be.crash(t, l)
			recs := mustRecords(t, l)
			if len(recs) != 2 || !bytes.Equal(recs[0].Data, big) ||
				string(recs[1].Data) != "straddles-the-step-boundary-by-a-few-dozen-bytes" {
				t.Fatalf("reopened log holds %d records, want the big one and the straddling one", len(recs))
			}
		})
	}
}

// TestPreallocLengthChangesOnlyAtSteps pins what the preallocation buys:
// over many appends the file's length changes only when a record passes
// the current end, and then to the next step boundary.
func TestPreallocLengthChangesOnlyAtSteps(t *testing.T) {
	path := filepath.Join(t.TempDir(), "steps.wal")
	l := openFileT(t, path)
	data := make([]byte, 16<<10)
	length, changes := 0, 0
	for i := 0; i < 150; i++ {
		if _, err := l.Append(1, data); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if n := int(fi.Size()); n != length {
			if n%allocStep != 0 || n < l.size || n-allocStep >= l.size {
				t.Fatalf("append %d: file length %d for records ending at %d, want the next step boundary", i, n, l.size)
			}
			length = n
			changes++
		}
	}
	if want := (l.size + allocStep - 1) / allocStep; changes != want {
		t.Fatalf("file length changed %d times over %d bytes of records, want %d", changes, l.size, want)
	}
	checkPrealloc(t, l)
}

// TestPreallocCleanCloseReopens pins a clean restart of a preallocated
// log: Close leaves the zeros, the open truncates them with the records
// intact, and the next append extends the file again.
func TestPreallocCleanCloseReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "close.wal")
	l := openFileT(t, path)
	want := fill(t, l, 5)
	size := l.size
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil {
		t.Fatal(err)
	} else if fi.Size() != allocStep {
		t.Fatalf("closed log file is %d bytes, want one step of %d", fi.Size(), allocStep)
	}
	l = openFileT(t, path)
	wantRecords(t, l, want)
	if alloc := checkPrealloc(t, l); alloc != size {
		t.Fatalf("file length after reopen = %d, want the records' %d", alloc, size)
	}
	if lsn, err := l.Append(1, []byte("after")); err != nil || lsn != 6 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want 6", lsn, err)
	}
	if alloc := checkPrealloc(t, l); alloc != allocStep {
		t.Fatalf("file length after append = %d, want %d", alloc, allocStep)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	wantRecords(t, openFileT(t, path), append(want, "after"))
}

// closeBeforeSwap closes the file log's handle as replace begins, so the
// old handle's close after the rename fails.
type closeBeforeSwap struct{ *fileBackend }

func (c closeBeforeSwap) replace(b []byte) error {
	c.f.Close()
	return c.fileBackend.replace(b)
}

// TestReplaceReportsCompletedSwap is the regression for a swap reported as
// failed after its rename: replace returned the old handle's close error,
// so Checkpoint and InstallSnapshot kept the old file's size, index and
// position over the new file — the next append took a stale LSN and
// wrote at a stale offset.
func TestReplaceReportsCompletedSwap(t *testing.T) {
	src := NewMemory()
	fill(t, src, 2)
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		swap func(*Log) error
		last uint64
		want []uint64
	}{
		{"install-snapshot", func(l *Log) error { return l.InstallSnapshot(1, snap) }, 2, []uint64{1, 2, 3}},
		{"checkpoint", func(l *Log) error { return l.Checkpoint(func(r Record) bool { return r.LSN <= 2 }) }, 5, []uint64{1, 2, 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "swap.wal")
			l := openFileT(t, path)
			fill(t, l, 5)
			fb := l.be.(*fileBackend)
			l.be = closeBeforeSwap{fb}
			if err := tc.swap(l); err != nil {
				t.Fatalf("swap reported %v after its rename", err)
			}
			l.be = fb
			if got := l.LastLSN(); got != tc.last {
				t.Fatalf("LastLSN after the swap = %d, want %d", got, tc.last)
			}
			if _, err := l.Append(1, []byte("after")); err != nil {
				t.Fatal(err)
			}
			if got, err := l.RecordsSince(0); err != nil || len(got) != len(tc.want) {
				t.Fatalf("RecordsSince(0) = %d records, %v; want %d", len(got), err, len(tc.want))
			}
			if got := lsnsOf(t, l); !slices.Equal(got, tc.want) {
				t.Fatalf("LSNs = %v, want %v", got, tc.want)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := lsnsOf(t, openFileT(t, path)); !slices.Equal(got, tc.want) {
				t.Fatalf("LSNs after reopen = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestWaitSinceWakesOnAppendCheckpointClose pins the long-poll primitive
// replication fetch is built on: WaitSince returns when a record beyond
// the watermark appears, when a checkpoint changes the epoch, or when the
// log closes — and times out (false) when nothing happens.
func TestWaitSinceWakesOnAppendCheckpointClose(t *testing.T) {
	l := NewMemory()
	epoch, next := l.State()
	if epoch != 0 || next != 1 {
		t.Fatalf("state = (%d, %d), want (0, 1)", epoch, next)
	}

	if l.WaitSince(context.Background(), 0, 0, 10*time.Millisecond) {
		t.Fatal("WaitSince reported movement on an idle log")
	}

	done := make(chan bool, 1)
	go func() { done <- l.WaitSince(context.Background(), 0, 0, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if !<-done {
		t.Fatal("WaitSince missed the append")
	}

	// Already-satisfied watermark returns immediately.
	if !l.WaitSince(context.Background(), 0, 0, 0) {
		t.Fatal("WaitSince(0,0) false with a record present")
	}

	go func() { done <- l.WaitSince(context.Background(), 0, 1, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if err := l.Checkpoint(func(Record) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if !<-done {
		t.Fatal("WaitSince missed the epoch change")
	}
	if epoch, _ := l.State(); epoch != 1 {
		t.Fatalf("epoch after checkpoint = %d, want 1", epoch)
	}

	go func() { done <- l.WaitSince(context.Background(), 1, 1, 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if !<-done {
		t.Fatal("WaitSince missed the close")
	}
}

// TestWaitSinceReturnsWhenContextEnds parks a wait with a long timeout on
// an idle log and cancels its context: the wait returns at once, reporting
// no movement, and a wait on an ended context does not park at all.
func TestWaitSinceReturnsWhenContextEnds(t *testing.T) {
	l := NewMemory()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() { done <- l.WaitSince(ctx, 0, 0, 5*time.Second) }()
	for parked := 0; parked == 0; time.Sleep(time.Millisecond) {
		l.mu.Lock()
		parked = l.parked
		l.mu.Unlock()
	}
	start := time.Now()
	cancel()
	if <-done {
		t.Fatal("WaitSince reported movement on an idle log")
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("WaitSince returned %v after its context ended", waited)
	}
	start = time.Now()
	if l.WaitSince(ctx, 0, 0, 5*time.Second) || time.Since(start) > time.Second {
		t.Fatal("WaitSince on an ended context parked or reported movement")
	}
}

// TestAppendRecordsFollowerStream pins the follower write path: shipped
// records keep their LSNs (including gaps a primary checkpoint left),
// stale shipments are skipped, and the stream survives a cold reopen.
func TestAppendRecordsFollowerStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "follower.wal")
	l, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := l.AppendRecords([]Record{
		{LSN: 3, Kind: 1, Data: []byte("three")},
		{LSN: 7, Kind: 2, Data: []byte("seven")},
	}); err != nil || n != 2 {
		t.Fatalf("append batch: %d applied, %v; want 2", n, err)
	}
	// A re-shipped batch applies nothing.
	if n, err := l.AppendRecords([]Record{
		{LSN: 3, Kind: 1, Data: []byte("three")},
		{LSN: 7, Kind: 2, Data: []byte("seven")},
	}); err != nil || n != 0 {
		t.Fatalf("duplicate shipment: %d applied, %v; want 0", n, err)
	}
	if got := l.LastLSN(); got != 7 {
		t.Fatalf("LastLSN = %d, want 7", got)
	}
	recs, err := l.RecordsSince(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LSN != 7 {
		t.Fatalf("RecordsSince(3) = %+v, want just LSN 7", recs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastLSN(); got != 7 {
		t.Fatalf("LastLSN after reopen = %d, want 7", got)
	}
	// Ordinary appends continue past the shipped stream.
	if lsn, err := l2.Append(1, []byte("local")); err != nil || lsn != 8 {
		t.Fatalf("append after reopen: lsn=%d err=%v, want 8", lsn, err)
	}
}

// TestLazyRecordLostByCrashBeforeSync is the lazy done record's crash
// boundary: a crash while the record is buffered reopens to a log ending at
// the decision before it, and the record's LSN is reused; once a
// synchronous append covers it, both survive the crash in order.
// ots.Recover's half of the boundary — the lost done re-drives the
// decision once — is TestCrashOnDoneRecordRedeliversIdempotently.
func TestLazyRecordLostByCrashBeforeSync(t *testing.T) {
	for _, be := range indexBackends() {
		t.Run(be.name, func(t *testing.T) {
			l := be.open(t)
			want := fill(t, l, 2)
			decision, err := l.Append(0x11, []byte("decision"))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, "decision")
			appendLazy(t, l, "done")

			l = be.crash(t, l)
			wantRecords(t, l, want)
			if got := l.LastLSN(); got != decision {
				t.Fatalf("reopened log ends at LSN %d, want the decision's %d", got, decision)
			}

			// The same boundary once the next decision's sync covers the
			// done record: it is durable, ahead of that decision.
			appendLazy(t, l, "done")
			if lsn, err := l.Append(0x11, []byte("next-decision")); err != nil || lsn != decision+2 {
				t.Fatalf("covering append: lsn=%d err=%v, want %d", lsn, err, decision+2)
			}
			l = be.crash(t, l)
			wantRecords(t, l, append(want, "done", "next-decision"))
		})
	}
}

// TestFailedFlushDropsLazyRecords pins a failed write or sync of a flush
// carrying lazy records: the records go with it, their LSNs are reused,
// and neither the next append nor a checkpoint resurrects them — the
// bytes of a failed sync may sit complete on the medium, and syncing them
// later would give two records one LSN.
func TestFailedFlushDropsLazyRecords(t *testing.T) {
	for _, be := range indexBackends() {
		for _, fault := range []struct {
			name string
			fb   func(inner backend) *faultyBackend
		}{
			{"torn-write", func(inner backend) *faultyBackend { return &faultyBackend{be: inner, tearAppends: 1} }},
			{"failed-sync", func(inner backend) *faultyBackend { return &faultyBackend{be: inner, failSyncs: 1} }},
		} {
			t.Run(be.name+"/"+fault.name, func(t *testing.T) {
				l := be.open(t)
				want := fill(t, l, 2)
				appendLazy(t, l, "lazy-a")
				appendLazy(t, l, "lazy-b")
				inner := l.be
				l.be = fault.fb(inner)
				if _, err := l.Append(1, []byte("carrier")); err == nil {
					t.Fatal("append succeeded despite the injected fault")
				}
				l.be = inner
				if got := l.LastLSN(); got != 2 {
					t.Fatalf("LastLSN after the failed flush = %d, want 2", got)
				}
				wantRecords(t, l, want)
				if lsn, err := l.Append(1, []byte("next")); err != nil || lsn != 3 {
					t.Fatalf("append after the failed flush: lsn=%d err=%v, want 3 (LSN reused)", lsn, err)
				}
				want = append(want, "next")
				if err := l.Checkpoint(func(Record) bool { return true }); err != nil {
					t.Fatal(err)
				}
				wantRecords(t, l, want)
				wantRecords(t, be.crash(t, l), want)
			})
		}
	}
}

// TestTornAppendRecordsBatchKeepsPrefix is the follower batch's crash
// boundary: a batch torn mid-write reopens to a whole-record prefix of it,
// the stream position says where that prefix ends, and the next fetch —
// the records beyond that position, or the whole batch shipped again —
// completes the log with no record twice.
func TestTornAppendRecordsBatchKeepsPrefix(t *testing.T) {
	// Records of growing size, so the tear (half the batch's bytes) lands
	// inside the fourth record rather than on a boundary.
	var batch []Record
	for lsn := uint64(1); lsn <= 6; lsn++ {
		batch = append(batch, Record{LSN: lsn, Kind: 1, Data: []byte(fmt.Sprintf("shipped-%0*d", lsn, lsn))})
	}
	for _, be := range indexBackends() {
		for _, refetch := range []string{"resume", "reship"} {
			t.Run(be.name+"/"+refetch, func(t *testing.T) {
				l := be.open(t)
				l.be = &faultyBackend{be: l.be, tearAppends: 1}
				if n, err := l.AppendRecords(batch); err == nil || n != 0 {
					t.Fatalf("torn batch: %d applied, %v; want 0 and an error", n, err)
				}
				if got := l.LastLSN(); got != 0 {
					t.Fatalf("LastLSN after the torn batch = %d, want 0", got)
				}

				l = be.crash(t, l)
				kept := mustRecords(t, l)
				if len(kept) == 0 || len(kept) >= len(batch) || !sameRecords(kept, batch[:len(kept)]) {
					t.Fatalf("reopened torn batch holds %v, want a proper whole-record prefix of %v", kept, batch)
				}
				_, next := l.State()
				if next != uint64(len(kept))+1 {
					t.Fatalf("stream position after reopen = %d, want %d", next, len(kept)+1)
				}
				fetch := batch[next-1:] // repl_fetch after next-1
				if refetch == "reship" {
					fetch = batch
				}
				if n, err := l.AppendRecords(fetch); err != nil || n != len(batch)-len(kept) {
					t.Fatalf("refetch: %d applied, %v; want %d", n, err, len(batch)-len(kept))
				}
				if got := mustRecords(t, be.crash(t, l)); !sameRecords(got, batch) {
					t.Fatalf("log after refetch = %v, want %v", got, batch)
				}
			})
		}
	}
}

// TestWaitSinceIgnoresLazyAppend pins that a parked fetch is not woken by a
// buffered record: the stream has not moved until a sync covers it, and a
// WaitSince that returned for it would send the follower's fetch loop
// spinning on empty batches until the next sync. The sync then wakes it,
// and the fetch returns the lazy record with the one that carried it.
func TestWaitSinceIgnoresLazyAppend(t *testing.T) {
	l := NewMemory()
	fill(t, l, 1)
	epoch, next := l.State()
	woke := make(chan bool, 1)
	go func() { woke <- l.WaitSince(context.Background(), epoch, next-1, 200*time.Millisecond) }()
	time.Sleep(20 * time.Millisecond)
	if _, err := l.AppendLazy(1, []byte("lazy")); err != nil {
		t.Fatal(err)
	}
	if <-woke {
		t.Fatal("WaitSince woke for a record no sync covers")
	}

	go func() { woke <- l.WaitSince(context.Background(), epoch, next-1, 5*time.Second) }()
	time.Sleep(20 * time.Millisecond)
	if _, err := l.Append(1, []byte("carrier")); err != nil {
		t.Fatal(err)
	}
	if !<-woke {
		t.Fatal("WaitSince missed the sync")
	}
	recs, err := l.RecordsSince(next-1, 0)
	if err != nil || len(recs) != 2 || string(recs[0].Data) != "lazy" || string(recs[1].Data) != "carrier" {
		t.Fatalf("fetch after the sync = %v, %v; want the lazy record, then its carrier", recs, err)
	}
}

// TestInstallSnapshotResynchronises pins follower resync: installing a
// primary snapshot atomically replaces the follower's contents and adopts
// the primary's epoch and position.
func TestInstallSnapshotResynchronises(t *testing.T) {
	primary := NewMemory()
	fill(t, primary, 5)
	if err := primary.Checkpoint(func(r Record) bool { return r.LSN >= 4 }); err != nil {
		t.Fatal(err)
	}
	pEpoch, pNext := primary.State()
	snap, err := primary.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "resync.wal")
	follower, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	// Stale divergent state from before the primary's checkpoint.
	if _, err := follower.AppendRecords([]Record{{LSN: 1, Kind: 1, Data: []byte("old")}}); err != nil {
		t.Fatal(err)
	}
	if err := follower.InstallSnapshot(pEpoch, snap); err != nil {
		t.Fatal(err)
	}
	fEpoch, fNext := follower.State()
	if fEpoch != pEpoch || fNext != pNext {
		t.Fatalf("follower state = (%d, %d), want primary's (%d, %d)", fEpoch, fNext, pEpoch, pNext)
	}
	wantRecords(t, follower, []string{"rec-3", "rec-4"})
}

// heldWrite wraps a backend so that each writeAt announces itself on
// entered and waits for release before it writes.
type heldWrite struct {
	backend
	entered chan struct{}
	release chan struct{}
}

func (h *heldWrite) writeAt(off int, b []byte) error {
	h.entered <- struct{}{}
	<-h.release
	return h.backend.writeAt(off, b)
}

// TestShippedNotSyncedOnLeaderCut is the early-shipping crash boundary: a
// parked follower fetch reads the leader's batch, the follower makes it
// durable, and the leader crashes in the write of that batch
// (InjectCrashAfter tears it). The leader's Append fails with ErrFenced,
// never reporting the record lost, and its log takes no further local
// append. Reopened, it lacks the record the follower holds; streaming
// from the follower (the next leader) gives it the same record at the
// same LSN, so no LSN ever names two records.
func TestShippedNotSyncedOnLeaderCut(t *testing.T) {
	for _, be := range indexBackends() {
		t.Run(be.name, func(t *testing.T) {
			leader := be.open(t)
			fill(t, leader, 2)
			follower := NewMemory()
			stream, err := leader.RecordsSince(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := follower.AppendRecords(stream); err != nil {
				t.Fatal(err)
			}

			f := parkFetch(t, leader)
			leader.InjectCrashAfter(0)
			inner := leader.be
			held := &heldWrite{backend: inner, entered: make(chan struct{}), release: make(chan struct{})}
			leader.be = held
			appended := make(chan error, 1)
			go func() {
				_, err := leader.Append(1, []byte("decision"))
				appended <- err
			}()
			<-held.entered // the leader's batch is in flight, not on its medium
			<-f.woke
			close(f.read)
			shipped := <-f.got
			wantLSNs(t, shipped, 3, "decision")
			if n, err := follower.AppendRecords(shipped); err != nil || n != 1 {
				t.Fatalf("follower applied %d shipped records, %v", n, err)
			}
			close(held.release)
			if err := <-appended; !errors.Is(err, ErrFenced) || !errors.Is(err, ErrCrashed) {
				t.Fatalf("leader append crashed after shipping = %v, want ErrFenced wrapping ErrCrashed", err)
			}
			leader.be = inner
			if _, err := leader.Append(1, []byte("late")); !errors.Is(err, ErrFenced) {
				t.Fatalf("leader append after the crash cut = %v, want ErrFenced", err)
			}

			reopened := be.crash(t, leader)
			if last := reopened.LastLSN(); last != 2 {
				t.Fatalf("reopened leader at LSN %d, want the 2 it synced", last)
			}
			rest, err := follower.RecordsSince(reopened.LastLSN())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := reopened.AppendRecords(rest); err != nil {
				t.Fatal(err)
			}
			if got, want := mustRecords(t, reopened), mustRecords(t, follower); !sameRecords(got, want) {
				t.Fatalf("rejoined leader holds %v, the follower %v", got, want)
			}
		})
	}
}
