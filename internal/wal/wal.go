// Package wal implements the logging service of the paper's fig. 3: a
// checksummed append-only record log with replay.
//
// The transaction service writes its prepare and commit/rollback decision
// records here (presumed abort needs only the commit decision to be
// durable, so its done records go through AppendLazy and ride the next
// decision's fsync), and the activity service journals activity structure
// events so that the activity tree can be rebuilt after a crash (§3.4 of
// the paper).
//
// The on-disk format is a sequence of records:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//	payload = u64 LSN | u16 kind | data bytes
//
// A log file may run past the last record in zeros: it grows in 1 MiB
// steps of written zeros, and each write lands inside space already
// extended, so an fsync does not also have to make a new file length
// durable. A zero length field is never a valid record.
//
// Replay stops at the first torn or corrupt record, or at the zeros, which
// models a crash mid-write; everything before it is durable. Both a
// file-backed and an in-memory backend are provided, and both support
// deterministic crash injection for recovery tests (InjectCrashAfter).
//
// Crash-atomicity guarantees:
//
//   - Append is atomic: a record is either durable in full or invisible to
//     replay. A torn tail left by a crashed or failed append is repaired
//     (truncated, with the zeros past it, and synced) before the next
//     append, so later records are never written behind garbage where
//     replay cannot see them.
//   - Appends commit in groups. An Append that finds no flush in progress
//     becomes the flusher: it takes every buffered record as one batch and
//     writes and syncs it with the log's lock released. Appends that arrive
//     meanwhile buffer their records behind the batch and wait, and the
//     next flusher takes them all with one write and one fsync. There is
//     no batch size and no timer: a lone appender flushes at once. A failed
//     flush drops its batch and every record buffered behind it, since
//     their LSNs follow the failed ones and are reused; each of their
//     Appends returns the error. The one exception is a batch a parked
//     replication fetch read while it was being written (replication.go):
//     its LSNs are never reused, and the log refuses local appends with
//     ErrFenced until it is reopened.
//   - A lazy record is durable only once a sync covers it. AppendLazy only
//     buffers, and never waits for a flush; the next flush (an Append, or
//     Records, Snapshot, Checkpoint, TruncateAfter, Close) writes the
//     buffer with one write and one fsync. Until then no reader sees the
//     record and the stream position does not count it, and a crash loses
//     it. A failed write or sync drops it with the records that carried it,
//     and their LSNs are reused; their bytes are truncated, with the zeros
//     past them, before the next write.
//   - Checkpoint is atomic: the compacted log is written to a temporary
//     file holding exactly the records, with no zeros past them, synced,
//     and renamed over the old log (the in-memory backend swaps its buffer
//     in one step). A crash at any point during a checkpoint leaves either
//     the complete old log or the complete new one — never an empty or
//     partially rewritten log.
//   - Open makes the repaired log durable before use: a torn tail, and the
//     zeros past the last record, are truncated and the truncation synced,
//     and a newly created log file is made durable with a parent-directory
//     fsync, so a crash immediately after open cannot resurrect the tail or
//     lose the file.
//
// For replication, the log exposes its stream position (State, LastLSN),
// incremental reads (RecordsSince, WaitSince) and a follower write surface
// (AppendRecords, InstallSnapshot) — see the replication layer in
// internal/remote for the wire protocol built on them.
//
// Full scans of the medium happen only where the bytes themselves are
// needed: open, Records/Replay, Checkpoint and InstallSnapshot. The log
// keeps an in-memory index with one (LSN, byte offset) entry per durable
// record, so RecordsSince reads only the records it returns and
// TruncateAfter finds its cut without rereading the file. The index is
// rebuilt from the scanned records at open, InstallSnapshot and Checkpoint,
// trimmed by TruncateAfter, and extended only after a write and its fsync
// both succeed, for every record (lazy ones included) that write carried.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
)

// Kind identifies the type of a log record. Kinds are assigned by the
// client packages (OTS, activity service); the log does not interpret them.
type Kind uint16

// Record is one durable log entry.
type Record struct {
	// LSN is the record's log sequence number: LSNs are contiguous from 1
	// in log order, and a record keeps its LSN across checkpoints and
	// replication.
	LSN uint64
	// Kind is the client-assigned record type.
	Kind Kind
	// Data is the record's payload, opaque to the log.
	Data []byte
}

// Log errors.
var (
	// ErrClosed reports use of a closed log.
	ErrClosed = errors.New("wal: log is closed")
	// ErrCrashed reports that crash injection stopped an append.
	ErrCrashed = errors.New("wal: simulated crash")
)

const headerSize = 8 // u32 length + u32 crc

// maxTailRetain bounds the write buffer a log keeps between writes, so one
// large batch does not pin its memory for the life of the log.
const maxTailRetain = 64 << 10

// allocStep is the step a log file grows in: a write that would pass the
// file's end first extends it with zeros to the next multiple of allocStep.
const allocStep = 1 << 20

// zeros is the read-only source of the bytes a log file is extended with.
var zeros [64 << 10]byte

// backend abstracts the durable medium.
type backend interface {
	// writeAt writes b at offset off, which is never past the end of the
	// medium. Bytes beyond the write survive it.
	writeAt(off int, b []byte) error
	// sync forces previously written bytes to durable storage.
	sync() error
	// contents reads the whole medium.
	contents() ([]byte, error)
	// readAt reads n bytes starting at offset off. The result may alias
	// the medium and is valid only until its next mutation.
	readAt(off, n int) ([]byte, error)
	// truncate discards everything beyond offset n.
	truncate(n int) error
	// replace atomically substitutes the entire contents with b: after a
	// crash at any point the medium holds either the old contents or b.
	replace(b []byte) error
	// close releases the medium.
	close() error
}

// Log is an append-only record log. Safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	be      backend
	nextLSN uint64 // one past the last durable record: the stream position
	size    int    // byte offset of the end of the last valid record: where the next write lands
	dirty   bool   // a failed write may have left bytes other than zeros past size
	epoch   uint64
	waitCh  chan struct{} // closed and renewed whenever the stream advances
	closed  bool
	index   []indexEntry // one entry per durable record, in LSN order

	// Records buffered for the next write: tail holds them encoded, and
	// pending their LSNs and offsets within tail. AppendLazy leaves them
	// here; Append adds its own record and writes the lot (flushLocked).
	// The flusher swaps in spareTail and sparePending, so records arriving
	// during its write buffer behind the batch it took.
	tail         []byte
	pending      []indexEntry
	spareTail    []byte
	sparePending []indexEntry

	// Group commit. While flushing, an Append's flusher is writing and
	// syncing a batch with mu released, and flushEnd is the LSN past it:
	// the flusher alone touches the backend, size, dirty and the crash
	// injection state, so everything else that uses them waits on idle
	// first (waitFlushLocked). open is the outcome shared by the Appends
	// waiting on the records now buffered; nil until one waits.
	flushing bool
	flushEnd uint64
	idle     sync.Cond
	open     *batch

	// Early shipping (see replication.go). parked counts the WaitSince
	// calls waiting for the stream to move. A group flush that starts
	// while one is parked lends its batch to readers: flight and flightAt
	// are the batch's bytes and entries, which RecordsSince may parse
	// while the flusher writes them, and shipped records that it did.
	// fault is set when a shipped batch fails to become durable: its LSNs
	// are a follower's now, so every later local append fails with it.
	parked   int
	flight   []byte
	flightAt []indexEntry
	shipped  bool
	fault    error

	// Coordinator-group term state (see term.go). term/termStart/termLeader
	// mirror the latest durable KindTerm record; termMarks caches every
	// durable term record's position and leader so TermStartAfter and
	// TruncateAfter answer without rescanning the backend;
	// fenced/fencedTerm are the in-memory fence raised when a higher term
	// is learned of before its record arrives through the stream.
	term       uint64
	termStart  uint64
	termLeader string
	termMarks  []termMark
	fenced     bool
	fencedTerm uint64
	// following refuses local appends on a follower's log (Follow) until
	// it adopts a term of its own.
	following bool

	// Crash injection (tests): when armed, the append path tears after
	// failAfter more successful appends. Backend-agnostic so the same
	// fault matrix runs against memory and real files.
	failAfter int
	failArmed bool
	// syncFault, when set, runs after every write's sync, which fails
	// with its error (InjectSyncFault).
	syncFault func() error
}

// batch is the outcome of one flush, shared by the Appends whose records
// it carried and that waited for it.
type batch struct {
	done bool
	err  error
}

// indexEntry locates one durable record: its LSN and the byte offset of
// its header on the medium. A record ends where the next entry (or the
// log's size) begins.
type indexEntry struct {
	lsn uint64
	off int
}

// NewMemory returns an empty in-memory log.
func NewMemory() *Log {
	l, err := newLog(&memBackend{})
	if err != nil {
		// An empty memory backend cannot fail to replay.
		panic(fmt.Sprintf("wal: NewMemory: %v", err))
	}
	return l
}

// OpenMemory returns an in-memory log initialised from a previous log's
// Snapshot, simulating a process restart over the same durable state.
func OpenMemory(data []byte) (*Log, error) {
	buf := make([]byte, len(data))
	copy(buf, data)
	return newLog(&memBackend{buf: buf})
}

// OpenFile opens (creating if needed) a file-backed log and replays it to
// establish the next LSN. A torn tail from a previous crash, and the zeros
// past the last record, are truncated and the truncation synced; the
// parent directory is fsynced so a freshly created log file survives a
// crash immediately after open.
func OpenFile(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l, err := newLog(&fileBackend{f: f, path: path, alloc: int(fi.Size())})
	if err != nil {
		f.Close()
		return nil, err
	}
	// Make the file's existence durable: without the directory fsync a
	// crash right after creating the log can lose the file itself, and
	// with it every record appended before the next directory flush.
	if err := syncDir(filepath.Dir(path)); err != nil {
		l.Close()
		return nil, fmt.Errorf("wal: sync dir for %s: %w", path, err)
	}
	return l, nil
}

// syncDir fsyncs a directory so that entries created or renamed inside it
// are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func newLog(be backend) (*Log, error) {
	l := &Log{be: be, nextLSN: 1, waitCh: make(chan struct{})}
	l.idle.L = &l.mu
	recs, valid, total, err := l.scan()
	if err != nil {
		return nil, err
	}
	l.adoptScannedLocked(recs)
	l.size = valid
	// Drop a torn tail (or a zero one) so subsequent appends produce a
	// clean log, and make the repair durable: an unsynced truncation can be
	// undone by a crash, resurrecting the torn bytes in front of records
	// appended after it.
	if total > valid {
		if err := l.be.truncate(valid); err != nil {
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := l.be.sync(); err != nil {
			return nil, fmt.Errorf("wal: sync torn-tail repair: %w", err)
		}
	}
	return l, nil
}

// Append durably adds a record and returns its LSN. The record is written
// and synced before Append returns, together with every record buffered
// with it: those AppendLazy left and those of Appends that arrived while
// the previous flush was in progress. One write and one fsync carry them
// all, with the log's lock released, so Appends arriving meanwhile queue
// for the next flush instead of each waiting out its own. If that write or
// sync fails, Append returns the error, as does every Append whose record
// was buffered with or behind the failed batch, and their LSNs are reused.
// If a previous append failed part-way, its torn bytes are truncated (and
// the truncation synced) first, so a successful Append is always visible
// to replay.
func (l *Log) Append(kind Kind, data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, err := l.appendLazyLocked(kind, data)
	if err != nil {
		return 0, err
	}
	if l.flushing {
		// Queue behind the flush in progress. Whoever flushes next takes
		// this record with every other buffered one; once no flush is in
		// progress and the record is still buffered, that is this Append.
		b := l.open
		if b == nil {
			b = new(batch)
			l.open = b
		}
		for l.flushing && !b.done {
			l.idle.Wait()
		}
		if b.done {
			if b.err != nil {
				return 0, b.err
			}
			return lsn, nil
		}
	}
	if err := l.flushLocked(true); err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendLazy adds a record that need not be durable yet and returns its
// LSN. It does no I/O: the record is encoded into the log's buffer and the
// next sync (Append, or a read or rewrite of the whole log) writes it.
// Until then the stream position, the index and every reader leave it out,
// and a crash or a failed write loses it. It suits records whose loss is
// harmless, like the transaction service's done markers.
func (l *Log) AppendLazy(kind Kind, data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLazyLocked(kind, data)
}

// appendLazyLocked buffers one local record behind any already buffered.
// The caller must hold l.mu.
func (l *Log) appendLazyLocked(kind Kind, data []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if l.fault != nil {
		return 0, l.fault
	}
	if l.fenced {
		return 0, l.fencedErrLocked()
	}
	if l.following {
		return 0, fmt.Errorf("%w: following term %d takes no local appends", ErrFenced, l.term)
	}
	lsn := l.nextFreeLocked()
	l.bufferLocked(Record{LSN: lsn, Kind: kind, Data: data})
	return lsn, nil
}

// nextFreeLocked returns the LSN the next buffered record receives: one
// past the last buffered record, or, when none is, past the batch being
// flushed or else the stream position. The caller must hold l.mu.
func (l *Log) nextFreeLocked() uint64 {
	if n := len(l.pending); n > 0 {
		return l.pending[n-1].lsn + 1
	}
	if l.flushing {
		return l.flushEnd
	}
	return l.nextLSN
}

// bufferLocked encodes r onto the write buffer. The caller must hold l.mu.
func (l *Log) bufferLocked(r Record) {
	l.pending = append(l.pending, indexEntry{lsn: r.LSN, off: len(l.tail)})
	l.tail = appendRecord(l.tail, r)
}

// flushLocked writes every buffered record as one batch with one write
// and one fsync, then extends the index and advances the stream position
// past them and settles the Appends waiting on them. With group, l.mu is
// released for the write and sync (the group commit): records buffered
// meanwhile go behind the batch, and everything else waits for the flush
// to end (waitFlushLocked), except a fetch that was parked when the flush
// started: it may read the batch before it is durable (RecordsSince). On
// failure the batch is dropped, and so is every record buffered behind
// it, since their LSNs follow the failed ones; all their LSNs are reused,
// and the log is left dirty so the next write first truncates whatever
// reached the medium. A batch a fetch read is the exception: its LSNs are
// not reused, the log faults instead (faultLocked). The caller must hold
// l.mu, with no flush in progress.
func (l *Log) flushLocked(group bool) error {
	if len(l.pending) == 0 {
		return nil
	}
	tail, pending, b := l.tail, l.pending, l.open
	l.tail, l.pending, l.open = l.spareTail[:0], l.sparePending[:0], nil
	var err error
	if group {
		l.flushing, l.flushEnd = true, pending[len(pending)-1].lsn+1
		lent := l.parked > 0
		if lent {
			l.flight, l.flightAt = tail, pending
			l.notifyLocked()
		}
		l.mu.Unlock()
		if lent {
			// Waking the parked fetch queued it to run next on this
			// goroutine's processor, where it would sit through the write
			// and sync below unless another processor steals it: yield, so
			// the batch ships before the leader's own write starts.
			runtime.Gosched()
		}
		err = l.write(tail)
		l.mu.Lock()
		l.flushing = false
		if err != nil && l.shipped {
			err = l.faultLocked(pending, err)
		}
		l.flight, l.flightAt, l.shipped = nil, nil, false
	} else {
		err = l.write(tail)
	}
	if err == nil {
		for _, e := range pending {
			l.index = append(l.index, indexEntry{lsn: e.lsn, off: l.size + e.off})
		}
		l.size += len(tail)
		l.nextLSN = pending[len(pending)-1].lsn + 1
		l.notifyLocked()
	} else {
		l.failTailLocked(err)
	}
	if b != nil {
		b.done, b.err = true, err
	}
	if cap(tail) > maxTailRetain {
		tail = nil
	}
	l.spareTail, l.sparePending = tail[:0], pending[:0]
	l.idle.Broadcast()
	return err
}

// waitFlushLocked waits until no flush is in progress. Everything that
// uses the backend, size, dirty, the crash injection state, the index or
// the buffered records (AppendLazy aside) calls it first. The caller must
// hold l.mu.
func (l *Log) waitFlushLocked() {
	for l.flushing {
		l.idle.Wait()
	}
}

// readyLocked waits out a flush in progress and reports ErrClosed on a
// closed log. The caller must hold l.mu.
func (l *Log) readyLocked() error {
	l.waitFlushLocked()
	if l.closed {
		return ErrClosed
	}
	return nil
}

// errSuperseded fails an Append whose buffered record a replicated write
// dropped: the record's LSN now belongs to the shipped stream.
var errSuperseded = errors.New("wal: buffered record superseded by a replicated write")

// dropTailLocked discards every buffered record; an Append waiting on one
// fails with errSuperseded. The caller must hold l.mu, with no flush in
// progress.
func (l *Log) dropTailLocked() {
	l.failTailLocked(errSuperseded)
}

// failTailLocked discards every buffered record, and every Append waiting
// on one returns err. The caller must hold l.mu.
func (l *Log) failTailLocked(err error) {
	if b := l.open; b != nil {
		b.done, b.err = true, err
		l.open = nil
		l.idle.Broadcast()
	}
	if cap(l.tail) > maxTailRetain {
		l.tail = nil
	}
	l.tail = l.tail[:0]
	l.pending = l.pending[:0]
}

// write repairs any torn tail, then writes b at the end of the last valid
// record and syncs it. On failure the log is marked dirty so the next
// write repairs the tail first. The caller must hold l.mu or be the
// flusher: the backend, size, dirty and the crash injection state are the
// flusher's while a flush is in progress.
func (l *Log) write(b []byte) error {
	if err := l.repairLocked(); err != nil {
		return err
	}
	if l.failArmed {
		if l.failAfter <= 0 {
			// Simulate a torn write: half the bytes reach the medium.
			_ = l.be.writeAt(l.size, b[:len(b)/2])
			l.dirty = true
			return ErrCrashed
		}
		l.failAfter--
	}
	if err := l.be.writeAt(l.size, b); err != nil {
		l.dirty = true
		return fmt.Errorf("wal: append: %w", err)
	}
	err := l.be.sync()
	if l.syncFault != nil && err == nil {
		err = l.syncFault()
	}
	if err != nil {
		// The bytes may or may not have reached the medium; treat them as
		// torn so the next append truncates back to the last known-durable
		// offset instead of writing behind an uncertain tail.
		l.dirty = true
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// repairLocked truncates torn bytes left by a failed append back to the
// end of the last valid record and syncs the truncation; the next write
// extends the file again. The caller must hold l.mu or be the flusher.
func (l *Log) repairLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.be.truncate(l.size); err != nil {
		return fmt.Errorf("wal: repair truncate: %w", err)
	}
	if err := l.be.sync(); err != nil {
		return fmt.Errorf("wal: repair sync: %w", err)
	}
	l.dirty = false
	return nil
}

// notifyLocked wakes WaitSince waiters after the stream advanced. The
// caller must hold l.mu.
func (l *Log) notifyLocked() {
	close(l.waitCh)
	l.waitCh = make(chan struct{})
}

// Records returns a copy of all records in LSN order, syncing any that
// AppendLazy buffered first.
func (l *Log) Records() ([]Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.readyLocked(); err != nil {
		return nil, err
	}
	if err := l.flushLocked(false); err != nil {
		return nil, err
	}
	return l.durableLocked()
}

// Replay calls fn for every durable record in order, stopping at the first
// error from fn.
func (l *Log) Replay(fn func(Record) error) error {
	recs, err := l.Records()
	if err != nil {
		return err
	}
	for _, r := range recs {
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint rewrites the log keeping only records for which keep returns
// true. LSNs of kept records are preserved, and the log's epoch advances
// so replication followers know to resynchronise from a snapshot. Records
// AppendLazy buffered are synced first and offered to keep like the rest.
//
// The rewrite is crash-atomic: the kept records are written to a temporary
// file, synced, and renamed over the log (the in-memory backend swaps its
// buffer in one step), so a crash mid-checkpoint leaves either the
// complete old log or the complete compacted one — never a truncated or
// partially rewritten log.
func (l *Log) Checkpoint(keep func(Record) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.readyLocked(); err != nil {
		return err
	}
	if err := l.flushLocked(false); err != nil {
		return err
	}
	recs, err := l.durableLocked()
	if err != nil {
		return err
	}
	// The latest term record is retained regardless of keep: the group's
	// fencing epoch must stay durable across every compaction, and client
	// packages sharing the log do not know about it.
	lastTerm := -1
	for i, r := range recs {
		if r.Kind == KindTerm {
			lastTerm = i
		}
	}
	var (
		out  []byte
		kept []Record
	)
	for i, r := range recs {
		if i == lastTerm || keep(r) {
			out = appendRecord(out, r)
			kept = append(kept, r)
		}
	}
	if l.failArmed && l.failAfter <= 0 {
		// Simulated crash during the rewrite: the swap never became
		// durable, so the old contents must remain intact.
		return ErrCrashed
	}
	if err := l.be.replace(out); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	// LSNs are never reused: dropping the newest records keeps the
	// position the stream has already advertised.
	next := l.nextLSN
	l.adoptScannedLocked(kept)
	l.nextLSN = next
	l.size = len(out)
	l.dirty = false
	l.epoch++
	l.notifyLocked()
	return nil
}

// Snapshot returns a copy of the durable record bytes (torn tails from a
// failed append are excluded; records AppendLazy buffered are synced
// first), for simulated restarts and for shipping the log's full state to
// a replication follower (InstallSnapshot).
func (l *Log) Snapshot() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.readyLocked(); err != nil {
		return nil, err
	}
	if err := l.flushLocked(false); err != nil {
		return nil, err
	}
	b, err := l.be.readAt(0, l.size)
	if err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out, nil
}

// Close syncs any records AppendLazy buffered and releases the backend,
// reporting the first failure. Further use returns ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitFlushLocked()
	if l.closed {
		return nil
	}
	err := l.flushLocked(false)
	l.closed = true
	l.notifyLocked()
	if cerr := l.be.close(); err == nil {
		err = cerr
	}
	return err
}

// InjectCrashAfter arranges for the log to fail all writes (and
// checkpoints) after n more successful writes, simulating a crash: the
// failing write tears half its bytes onto the medium, and a failing
// checkpoint stops before its atomic swap. A write is one flush, however
// many records it carries. AppendLazy writes nothing, so it does not
// count; the flush that syncs its record does. Supported by every backend;
// a negative n disarms injection. It reports whether injection is
// supported.
func (l *Log) InjectCrashAfter(n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitFlushLocked()
	if n < 0 {
		l.failArmed = false
		return true
	}
	l.failAfter = n
	l.failArmed = true
	return true
}

// InjectSyncFault arranges for every later write to call fn once its
// sync returns, and to fail as a failed sync does with the error fn
// returns; a nil fn removes the hook. An Append's group flush calls fn
// with the log's lock released, so a test can hold the flush inside it,
// let a parked fetch read the batch, and then fail it. Supported by every
// backend.
func (l *Log) InjectSyncFault(fn func() error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.waitFlushLocked()
	l.syncFault = fn
}

// durableLocked parses every durable record. Bytes a failed append left
// past the last one (a record whose fsync failed may be complete there)
// are not part of the log: the next append truncates them and reuses the
// LSN. The caller must hold l.mu.
func (l *Log) durableLocked() ([]Record, error) {
	b, err := l.be.readAt(0, l.size)
	if err != nil {
		return nil, fmt.Errorf("wal: read: %w", err)
	}
	recs, _ := parseRecords(b)
	return recs, nil
}

// scan parses the backend contents, returning the valid records, the byte
// offset of the end of the last valid record, and the total content size.
func (l *Log) scan() ([]Record, int, int, error) {
	b, err := l.be.contents()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: read: %w", err)
	}
	recs, valid := parseRecords(b)
	return recs, valid, len(b), nil
}

// parseRecords decodes the consecutive records at the start of b,
// stopping at the first torn or corrupt one. It returns the records, with
// data copied out of b, and the byte offset where the last one ends.
func parseRecords(b []byte) ([]Record, int) {
	var (
		recs  []Record
		off   int
		valid int
	)
	for {
		if off+headerSize > len(b) {
			break // torn or clean end
		}
		length := binary.BigEndian.Uint32(b[off : off+4])
		sum := binary.BigEndian.Uint32(b[off+4 : off+8])
		if length < 10 || off+headerSize+int(length) > len(b) {
			break // torn tail
		}
		payload := b[off+headerSize : off+headerSize+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			break // corrupt tail
		}
		data := make([]byte, len(payload)-10)
		copy(data, payload[10:])
		recs = append(recs, Record{
			LSN:  binary.BigEndian.Uint64(payload[0:8]),
			Kind: Kind(binary.BigEndian.Uint16(payload[8:10])),
			Data: data,
		})
		off += headerSize + int(length)
		valid = off
	}
	return recs, valid
}

// appendRecord appends r's encoding to dst and returns the extended slice.
func appendRecord(dst []byte, r Record) []byte {
	start := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(10+len(r.Data)))
	dst = binary.BigEndian.AppendUint32(dst, 0) // checksum, filled below
	dst = binary.BigEndian.AppendUint64(dst, r.LSN)
	dst = binary.BigEndian.AppendUint16(dst, uint16(r.Kind))
	dst = append(dst, r.Data...)
	payload := dst[start+headerSize:]
	binary.BigEndian.PutUint32(dst[start+4:start+8], crc32.ChecksumIEEE(payload))
	return dst
}

// memBackend keeps the log in memory.
type memBackend struct {
	buf []byte
}

func (m *memBackend) writeAt(off int, b []byte) error {
	if grow := off + len(b) - len(m.buf); grow > 0 {
		m.buf = append(m.buf, make([]byte, grow)...)
	}
	copy(m.buf[off:], b)
	return nil
}

func (m *memBackend) sync() error                       { return nil }
func (m *memBackend) contents() ([]byte, error)         { return m.buf, nil }
func (m *memBackend) readAt(off, n int) ([]byte, error) { return m.buf[off : off+n], nil }

func (m *memBackend) truncate(n int) error {
	if n < len(m.buf) {
		m.buf = m.buf[:n]
	}
	return nil
}

func (m *memBackend) replace(b []byte) error {
	m.buf = append(m.buf[:0:0], b...)
	return nil
}

func (m *memBackend) close() error { return nil }

// fileBackend keeps the log in a real file, with fsync on sync. Reads and
// writes are positional: the file has no cursor a failed read could move.
// The file is alloc bytes long; a write that would pass that end first
// extends the file with zeros to the next allocStep boundary, and the
// write's own fsync makes the extension durable with it. replace goes
// through a temp-file + fsync + rename + directory-fsync sequence so the
// swap is atomic across a crash at any point.
type fileBackend struct {
	f     *os.File
	path  string
	alloc int // the file's length: zeros past the log's last record while it is not dirty
}

func (fb *fileBackend) writeAt(off int, b []byte) error {
	if end := off + len(b); end > fb.alloc {
		to := (end + allocStep - 1) / allocStep * allocStep
		for fb.alloc < to {
			n, err := fb.f.WriteAt(zeros[:min(len(zeros), to-fb.alloc)], int64(fb.alloc))
			fb.alloc += n
			if err != nil {
				return fmt.Errorf("extend: %w", err)
			}
		}
	}
	_, err := fb.f.WriteAt(b, int64(off))
	return err
}

func (fb *fileBackend) sync() error { return fb.f.Sync() }

func (fb *fileBackend) contents() ([]byte, error) { return fb.readAt(0, fb.alloc) }

func (fb *fileBackend) readAt(off, n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := fb.f.ReadAt(b, int64(off)); err != nil {
		return nil, err
	}
	return b, nil
}

func (fb *fileBackend) truncate(n int) error {
	if err := fb.f.Truncate(int64(n)); err != nil {
		return fmt.Errorf("truncate: %w", err)
	}
	fb.alloc = n
	return nil
}

func (fb *fileBackend) replace(b []byte) error {
	tmpPath := fb.path + ".ckpt"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("checkpoint temp: %w", err)
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmpPath)
	}
	if _, err := tmp.Write(b); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint sync: %w", err)
	}
	if err := os.Rename(tmpPath, fb.path); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint rename: %w", err)
	}
	// Past the rename the swap is complete and replace cannot fail: the
	// caller must adopt the new contents. The open tmp handle refers to
	// the file now living at the log path, so it becomes the backend's
	// handle with no window where the log has no open file. A failed
	// directory fsync is benign for correctness — if the rename is lost to
	// a crash, recovery replays the complete old log, a valid
	// pre-checkpoint state — and so is a failed close of the old handle.
	_ = syncDir(filepath.Dir(fb.path))
	_ = fb.f.Close()
	fb.f, fb.alloc = tmp, len(b)
	return nil
}

func (fb *fileBackend) close() error { return fb.f.Close() }
