package wal

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedBackend wraps a backend and counts its syncs. While held, each sync
// announces itself on entered and blocks until the test sends the result
// it returns on release, so a test can hold a flush in progress and queue
// appends behind it.
type gatedBackend struct {
	backend
	syncs   atomic.Int64
	held    atomic.Bool
	entered chan struct{}
	release chan error
}

func gate(l *Log) *gatedBackend {
	g := &gatedBackend{backend: l.be, entered: make(chan struct{}), release: make(chan error)}
	l.be = g
	return g
}

func (g *gatedBackend) sync() error {
	g.syncs.Add(1)
	if g.held.Load() {
		g.entered <- struct{}{}
		if err := <-g.release; err != nil {
			return err
		}
	}
	return g.backend.sync()
}

// appendResult is one Append's outcome, with the record RecordsSince
// returned for its LSN right after it succeeded.
type appendResult struct {
	data string
	lsn  uint64
	err  error
	read []Record
}

// goAppend runs Append in its own goroutine and delivers the outcome.
func goAppend(l *Log, data string, out chan<- appendResult) {
	go func() {
		r := appendResult{data: data}
		r.lsn, r.err = l.Append(1, []byte(data))
		if r.err == nil {
			r.read, _ = l.RecordsSince(r.lsn-1, 1)
		}
		out <- r
	}()
}

// waitBuffered waits until n records are buffered behind a flush in
// progress.
func waitBuffered(t *testing.T, l *Log, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		got, flushing := len(l.pending), l.flushing
		l.mu.Unlock()
		if flushing && got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d records buffered (flushing %v), want %d behind a flush", got, flushing, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// holdFirstAppend starts an Append of "first" and returns once its flush
// is blocked in sync.
func holdFirstAppend(t *testing.T, l *Log, g *gatedBackend, out chan<- appendResult) {
	t.Helper()
	g.held.Store(true)
	goAppend(l, "first", out)
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("first append never reached sync")
	}
}

// TestGroupCommitQueuedAppendsShareOneSync: appends that arrive while a
// sync is in progress wait for it, then all ride one following write and
// sync, and none returns before its record is durable and readable.
func TestGroupCommitQueuedAppendsShareOneSync(t *testing.T) {
	const n = 5
	l := NewMemory()
	g := gate(l)
	first := make(chan appendResult, 1)
	holdFirstAppend(t, l, g, first)

	queued := make(chan appendResult, n)
	for i := range n {
		goAppend(l, fmt.Sprintf("q-%d", i), queued)
	}
	waitBuffered(t, l, n)
	g.release <- nil // the first flush completes; one queued Append flushes the rest
	<-g.entered
	select {
	case r := <-queued:
		t.Fatalf("append of %q returned before its sync completed", r.data)
	default:
	}
	g.release <- nil

	results := []appendResult{<-first}
	for range n {
		results = append(results, <-queued)
	}
	seen := map[uint64]bool{}
	for _, r := range results {
		if r.err != nil {
			t.Fatalf("append of %q: %v", r.data, r.err)
		}
		if len(r.read) != 1 || r.read[0].LSN != r.lsn || string(r.read[0].Data) != r.data {
			t.Fatalf("append of %q returned LSN %d, RecordsSince holds %v", r.data, r.lsn, r.read)
		}
		seen[r.lsn] = true
	}
	for lsn := uint64(1); lsn <= n+1; lsn++ {
		if !seen[lsn] {
			t.Fatalf("LSNs %v are not 1..%d", seen, n+1)
		}
	}
	if got := g.syncs.Load(); got != 2 {
		t.Fatalf("%d syncs for one held flush and %d queued appends, want 2", got, n)
	}
}

// TestGroupCommitAppendLazyDoesNotWait: a lazy append only buffers, so it
// returns while a flush is blocked in sync, taking the LSN after the
// batch in flight.
func TestGroupCommitAppendLazyDoesNotWait(t *testing.T) {
	l := NewMemory()
	g := gate(l)
	first := make(chan appendResult, 1)
	holdFirstAppend(t, l, g, first)

	lazy := make(chan uint64, 1)
	go func() {
		lsn, err := l.AppendLazy(1, []byte("lazy"))
		if err != nil {
			t.Error(err)
		}
		lazy <- lsn
	}()
	select {
	case lsn := <-lazy:
		if lsn != 2 {
			t.Fatalf("lazy record got LSN %d behind the batch holding LSN 1, want 2", lsn)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("AppendLazy waited for the flush in progress")
	}
	g.held.Store(false)
	g.release <- nil
	if r := <-first; r.err != nil || r.lsn != 1 {
		t.Fatalf("first append: LSN %d, %v", r.lsn, r.err)
	}
	wantRecords(t, l, []string{"first", "lazy"})
}

// TestGroupCommitFailedSyncFailsQueue: a failed sync fails its batch and
// every append buffered behind it, their LSNs are reused, and a restart
// replays exactly the acknowledged records.
func TestGroupCommitFailedSyncFailsQueue(t *testing.T) {
	const n = 3
	l := NewMemory()
	g := gate(l)
	fill(t, l, 1) // "rec-0" at LSN 1
	first := make(chan appendResult, 1)
	holdFirstAppend(t, l, g, first)

	queued := make(chan appendResult, n)
	for i := range n {
		goAppend(l, fmt.Sprintf("q-%d", i), queued)
	}
	waitBuffered(t, l, n)
	if _, err := l.AppendLazy(1, []byte("lazy")); err != nil {
		t.Fatal(err)
	}
	g.held.Store(false)
	g.release <- errInjected

	if r := <-first; !errors.Is(r.err, errInjected) {
		t.Fatalf("append whose sync failed returned LSN %d, %v", r.lsn, r.err)
	}
	for range n {
		if r := <-queued; !errors.Is(r.err, errInjected) {
			t.Fatalf("append of %q queued behind the failed sync returned LSN %d, %v", r.data, r.lsn, r.err)
		}
	}
	if lsn, err := l.Append(1, []byte("after")); err != nil || lsn != 2 {
		t.Fatalf("append after the failed batch: LSN %d, %v; want the reused LSN 2", lsn, err)
	}
	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenMemory(snap)
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, r, []string{"rec-0", "after"})
}

// TestGroupCommitFenceWaitsForFlush: Fence waits out a flush in progress,
// whose batch was taken before the fence and stands, and the appends
// queued behind it fail with ErrFenced, so nothing becomes durable after
// Fence returns.
func TestGroupCommitFenceWaitsForFlush(t *testing.T) {
	const n = 3
	l := NewMemory()
	g := gate(l)
	first := make(chan appendResult, 1)
	holdFirstAppend(t, l, g, first)

	queued := make(chan appendResult, n)
	for i := range n {
		goAppend(l, fmt.Sprintf("q-%d", i), queued)
	}
	waitBuffered(t, l, n)
	fenced := make(chan uint64, 1)
	go func() {
		l.Fence(5)
		fenced <- l.LastLSN()
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-fenced:
		t.Fatal("Fence returned while a flush was in progress")
	default:
	}
	g.held.Store(false)
	g.release <- nil

	if r := <-first; r.err != nil || r.lsn != 1 {
		t.Fatalf("append taken before the fence: LSN %d, %v", r.lsn, r.err)
	}
	for range n {
		if r := <-queued; !errors.Is(r.err, ErrFenced) {
			t.Fatalf("append of %q queued behind the fence returned LSN %d, %v", r.data, r.lsn, r.err)
		}
	}
	atFence := <-fenced
	if last := l.LastLSN(); last != atFence || last != 1 {
		t.Fatalf("LastLSN %d when Fence returned, %d now; want 1 both", atFence, last)
	}
	if _, err := l.Append(1, []byte("late")); !errors.Is(err, ErrFenced) {
		t.Fatalf("append after Fence: %v", err)
	}
	wantRecords(t, l, []string{"first"})
}

// TestGroupCommitReadersWaitForFlush: a reader of the medium or the
// index waits out a flush in progress, whose writer owns them without the
// log's lock, and then sees the flushed record.
func TestGroupCommitReadersWaitForFlush(t *testing.T) {
	l := NewMemory()
	g := gate(l)
	first := make(chan appendResult, 1)
	holdFirstAppend(t, l, g, first)

	read := make(chan []Record, 2)
	go func() {
		recs, _ := l.RecordsSince(0)
		read <- recs
	}()
	go func() {
		recs, _ := l.Records()
		read <- recs
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case recs := <-read:
		t.Fatalf("a reader returned %v while a flush was in progress", recs)
	default:
	}
	g.held.Store(false)
	g.release <- nil
	for range 2 {
		if recs := <-read; len(recs) != 1 || string(recs[0].Data) != "first" {
			t.Fatalf("reader after the flush got %v, want the flushed record", recs)
		}
	}
	if r := <-first; r.err != nil {
		t.Fatal(r.err)
	}
}

// TestGroupCommitCrashMatrix crashes a log after every possible number of
// flushes while four appenders race on it. Reopened from its snapshot, the
// log holds exactly the acknowledged records, LSNs 1 to n. Reopened from
// the raw medium, torn bytes and all, it holds a contiguous LSN prefix
// that starts with them: whole records of the torn batch may survive, as
// unsynced writes may survive a real crash, but their appends failed.
func TestGroupCommitCrashMatrix(t *testing.T) {
	const (
		appenders = 4
		each      = 8
	)
	// run appends each records from every appender and returns the
	// acknowledged payloads by LSN.
	run := func(l *Log) map[uint64]string {
		var (
			mu    sync.Mutex
			acked = map[uint64]string{}
			wg    sync.WaitGroup
		)
		for a := range appenders {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range each {
					data := fmt.Sprintf("a%d-%d", a, i)
					lsn, err := l.Append(1, []byte(data))
					if err != nil {
						if !errors.Is(err, ErrCrashed) {
							t.Errorf("append %s: %v", data, err)
						}
						return
					}
					mu.Lock()
					acked[lsn] = data
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		return acked
	}

	base := NewMemory()
	g := gate(base)
	run(base)
	flushes := int(g.syncs.Load())
	for k := 0; k <= flushes; k++ {
		l := NewMemory()
		l.InjectCrashAfter(k)
		acked := run(l)
		snap, err := l.Snapshot()
		if err != nil {
			t.Fatalf("k=%d: snapshot: %v", k, err)
		}
		raw, err := l.be.contents()
		if err != nil {
			t.Fatal(err)
		}
		for name, image := range map[string][]byte{"snapshot": snap, "medium": raw} {
			r, err := OpenMemory(image)
			if err != nil {
				t.Fatalf("k=%d %s: reopen: %v", k, name, err)
			}
			recs := mustRecords(t, r)
			if len(recs) < len(acked) || name == "snapshot" && len(recs) != len(acked) {
				t.Fatalf("k=%d %s: reopen holds %d records, %d acknowledged", k, name, len(recs), len(acked))
			}
			for i, rec := range recs {
				want, ok := acked[rec.LSN]
				if rec.LSN != uint64(i+1) || ok != (i < len(acked)) || ok && want != string(rec.Data) {
					t.Fatalf("k=%d %s: record %d is LSN %d %q, acknowledged %q", k, name, i, rec.LSN, rec.Data, want)
				}
			}
		}
	}
}

// BenchmarkAppendFileParallel appends decision-sized records to a file log
// from 1, 2 and 4 goroutines. syncs/op is how many appends share an fsync:
// 1 for a lone appender, below 1 once appends queue behind a flush in
// progress and ride the next one together.
func BenchmarkAppendFileParallel(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("appenders=%d", n), func(b *testing.B) {
			l := fileLogOf(b, 0)
			g := gate(l)
			data := []byte("decision-record-payload-0123456789")
			var (
				next atomic.Int64
				wg   sync.WaitGroup
			)
			b.ReportAllocs()
			b.ResetTimer()
			for range n {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := l.Append(7, data); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(g.syncs.Load())/float64(b.N), "syncs/op")
		})
	}
}

// parkedFetch is a replication fetch parked at a log's stream position:
// it waits in WaitSince, reports on woke whether the stream moved, and
// once read is closed sends what RecordsSince returns past that position.
type parkedFetch struct {
	woke chan bool
	read chan struct{}
	got  chan []Record
}

// parkFetch parks a fetch at l's stream position and returns once it
// waits.
func parkFetch(t *testing.T, l *Log) *parkedFetch {
	t.Helper()
	f := &parkedFetch{woke: make(chan bool, 1), read: make(chan struct{}), got: make(chan []Record, 1)}
	epoch, next := l.State()
	go func() {
		f.woke <- l.WaitSince(context.Background(), epoch, next-1, 5*time.Second)
		<-f.read
		recs, err := l.RecordsSince(next-1, 0)
		if err != nil {
			t.Error(err)
		}
		f.got <- recs
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		l.mu.Lock()
		parked := l.parked
		l.mu.Unlock()
		if parked > 0 {
			return f
		}
		if time.Now().After(deadline) {
			t.Fatal("fetch never parked")
		}
		time.Sleep(time.Millisecond)
	}
}

// wantLSNs fails unless recs are exactly the given payloads at LSNs from
// first on.
func wantLSNs(t *testing.T, recs []Record, first uint64, data ...string) {
	t.Helper()
	ok := len(recs) == len(data)
	for i := 0; ok && i < len(recs); i++ {
		ok = recs[i].LSN == first+uint64(i) && string(recs[i].Data) == data[i]
	}
	if !ok {
		t.Fatalf("read %v, want %q from LSN %d", recs, data, first)
	}
}

// stillBlocked fails if a read delivered on ch within 20ms.
func stillBlocked(t *testing.T, ch <-chan []Record, what string) {
	t.Helper()
	select {
	case recs := <-ch:
		t.Fatalf("%s returned %v while a flush was in progress", what, recs)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestEarlyShipParkedFetchReadsInFlightBatch: a flush that starts while a
// fetch is parked wakes it and lends it its batch, lazy record included,
// before the batch is durable, but not a record buffered behind the batch.
// A reader behind the durable position still waits for the flush, and so
// does every reader of a flush that started with no fetch parked.
func TestEarlyShipParkedFetchReadsInFlightBatch(t *testing.T) {
	l := NewMemory()
	fill(t, l, 1) // "rec-0" at LSN 1
	g := gate(l)
	f := parkFetch(t, l)
	if _, err := l.AppendLazy(1, []byte("lazy")); err != nil {
		t.Fatal(err)
	}
	first := make(chan appendResult, 1)
	holdFirstAppend(t, l, g, first) // the batch is "lazy" and "first", LSNs 2 and 3
	if !<-f.woke {
		t.Fatal("the flush did not wake the parked fetch")
	}
	queued := make(chan appendResult, 1)
	goAppend(l, "q-0", queued)
	waitBuffered(t, l, 1)
	behind := make(chan []Record, 1)
	go func() {
		recs, _ := l.RecordsSince(0)
		behind <- recs
	}()
	close(f.read)
	wantLSNs(t, <-f.got, 2, "lazy", "first")
	if last := l.LastLSN(); last != 1 {
		t.Fatalf("LastLSN %d while the shipped batch syncs, want the durable 1", last)
	}
	stillBlocked(t, behind, "a reader behind the durable position")

	g.release <- nil // the batch is durable; q-0 flushes next, with no fetch parked
	<-g.entered
	unlent := make(chan []Record, 1)
	go func() {
		recs, _ := l.RecordsSince(3)
		unlent <- recs
	}()
	stillBlocked(t, unlent, "a reader of a flush no fetch was parked for")
	g.held.Store(false)
	g.release <- nil
	wantLSNs(t, <-unlent, 4, "q-0")
	if r := <-first; r.err != nil || r.lsn != 3 {
		t.Fatalf("first append: LSN %d, %v", r.lsn, r.err)
	}
	if r := <-queued; r.err != nil || r.lsn != 4 {
		t.Fatalf("queued append: LSN %d, %v", r.lsn, r.err)
	}
	if recs := <-behind; len(recs) < 3 {
		t.Fatalf("reader behind the durable position got %v", recs)
	} else {
		wantLSNs(t, recs[:3], 1, "rec-0", "lazy", "first")
	}
}

// TestEarlyShipFailedFlushFencesLog: a flush whose batch a fetch read and
// whose sync then fails gives none of its LSNs back: its Append, and every
// one queued behind it, fail with ErrFenced, and so does every later local
// append until the log is reopened. A failed flush whose batch the woken
// fetch did not read still reuses its LSNs.
func TestEarlyShipFailedFlushFencesLog(t *testing.T) {
	l := NewMemory()
	fill(t, l, 1) // "rec-0" at LSN 1
	g := gate(l)

	unread := parkFetch(t, l)
	first := make(chan appendResult, 1)
	holdFirstAppend(t, l, g, first)
	<-unread.woke
	g.release <- errInjected
	if r := <-first; !errors.Is(r.err, errInjected) || errors.Is(r.err, ErrFenced) {
		t.Fatalf("failed flush nobody read: %v, want the sync error alone", r.err)
	}
	close(unread.read)
	wantLSNs(t, <-unread.got, 2)

	f := parkFetch(t, l)
	holdFirstAppend(t, l, g, first) // LSN 2 again: the unread batch gave it back
	<-f.woke
	queued := make(chan appendResult, 1)
	goAppend(l, "q-0", queued)
	waitBuffered(t, l, 1)
	close(f.read)
	wantLSNs(t, <-f.got, 2, "first")
	g.held.Store(false)
	g.release <- errInjected

	if r := <-first; !errors.Is(r.err, ErrFenced) || !errors.Is(r.err, errInjected) {
		t.Fatalf("shipped append whose sync failed: LSN %d, %v; want ErrFenced wrapping the sync error", r.lsn, r.err)
	}
	if r := <-queued; !errors.Is(r.err, ErrFenced) {
		t.Fatalf("append queued behind the shipped batch: LSN %d, %v; want ErrFenced", r.lsn, r.err)
	}
	if _, err := l.Append(1, []byte("after")); !errors.Is(err, ErrFenced) {
		t.Fatalf("append after the failed shipped flush: %v, want ErrFenced", err)
	}
	if _, err := l.AppendLazy(1, []byte("lazy")); !errors.Is(err, ErrFenced) {
		t.Fatalf("lazy append after the failed shipped flush: %v, want ErrFenced", err)
	}
	if _, err := l.AdoptTerm(1, "m"); !errors.Is(err, ErrFenced) {
		t.Fatalf("term claim after the failed shipped flush: %v, want ErrFenced", err)
	}
	if last := l.LastLSN(); last != 1 {
		t.Fatalf("LastLSN %d, want 1", last)
	}
	wantRecords(t, l, []string{"rec-0"})

	snap, err := l.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := OpenMemory(snap)
	if err != nil {
		t.Fatal(err)
	}
	if lsn, err := r.Append(1, []byte("reopened")); err != nil || lsn != 2 {
		t.Fatalf("append on the reopened log: LSN %d, %v", lsn, err)
	}
}
