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
// Replay stops at the first torn or corrupt record, which models a crash
// mid-write; everything before it is durable. Both a file-backed and an
// in-memory backend are provided, and both support deterministic crash
// injection for recovery tests (InjectCrashAfter).
//
// Crash-atomicity guarantees:
//
//   - Append is atomic: a record is either durable in full or invisible to
//     replay. A torn tail left by a crashed or failed append is repaired
//     (truncated and synced) before the next append, so later records are
//     never written behind garbage where replay cannot see them.
//   - A lazy record is durable only once a sync covers it. AppendLazy only
//     buffers; the next Append (or Records, Snapshot, Checkpoint,
//     TruncateAfter, Close) writes the buffer with one write and one fsync.
//     Until then no reader sees the record and the stream position does
//     not count it, and a crash loses it. A failed write or sync drops it
//     with the record that carried it, and their LSNs are reused.
//   - Checkpoint is atomic: the compacted log is written to a temporary
//     file, synced, and renamed over the old log (the in-memory backend
//     swaps its buffer in one step). A crash at any point during a
//     checkpoint leaves either the complete old log or the complete new
//     one — never an empty or partially rewritten log.
//   - Open makes the repaired log durable before use: a truncated torn
//     tail is synced, and a newly created log file is made durable with a
//     parent-directory fsync, so a crash immediately after open cannot
//     resurrect the tail or lose the file.
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
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Kind identifies the type of a log record. Kinds are assigned by the
// client packages (OTS, activity service); the log does not interpret them.
type Kind uint16

// Record is one durable log entry.
type Record struct {
	LSN  uint64
	Kind Kind
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

// backend abstracts the durable medium.
type backend interface {
	// append writes b at the end of the medium.
	append(b []byte) error
	// sync forces previously written bytes to durable storage.
	sync() error
	// contents reads the whole medium.
	contents() ([]byte, error)
	// readAt reads n bytes starting at offset off. The result may alias
	// the medium and is valid only until its next mutation. Neither read
	// moves the position appends write at.
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
	size    int    // byte offset of the end of the last valid record
	dirty   bool   // a failed append may have left torn bytes past size
	epoch   uint64
	waitCh  chan struct{} // closed and renewed whenever the stream advances
	closed  bool
	index   []indexEntry // one entry per durable record, in LSN order

	// Records buffered for the next write: tail holds them encoded, and
	// pending their LSNs and offsets within tail. AppendLazy leaves them
	// here; Append adds its own record and writes the lot (flushLocked).
	tail    []byte
	pending []indexEntry

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

	// Crash injection (tests): when armed, the append path tears after
	// failAfter more successful appends. Backend-agnostic so the same
	// fault matrix runs against memory and real files.
	failAfter int
	failArmed bool
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
// establish the next LSN. A torn tail from a previous crash is truncated
// and the truncation synced; the parent directory is fsynced so a freshly
// created log file survives a crash immediately after open.
func OpenFile(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	// Appends write at the file cursor; reads never move it.
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l, err := newLog(&fileBackend{f: f, path: path})
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
	recs, valid, total, err := l.scan()
	if err != nil {
		return nil, err
	}
	l.adoptScannedLocked(recs)
	l.size = valid
	// Drop a torn tail so subsequent appends produce a clean log, and make
	// the repair durable: an unsynced truncation can be undone by a crash,
	// resurrecting the torn bytes in front of records appended after it.
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
// and synced before Append returns, together with every record AppendLazy
// buffered ahead of it: one write, one fsync. If a previous append failed
// part-way, its torn bytes are truncated (and the truncation synced) first,
// so a successful Append is always visible to replay.
func (l *Log) Append(kind Kind, data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn, err := l.appendLazyLocked(kind, data)
	if err != nil {
		return 0, err
	}
	if err := l.flushLocked(); err != nil {
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
	if l.fenced {
		return 0, fmt.Errorf("%w: term %d", ErrFenced, l.fencedTerm)
	}
	lsn := l.nextFreeLocked()
	l.bufferLocked(Record{LSN: lsn, Kind: kind, Data: data})
	return lsn, nil
}

// nextFreeLocked returns the LSN the next buffered record receives: one
// past the last buffered record, or the stream position when none is. The
// caller must hold l.mu.
func (l *Log) nextFreeLocked() uint64 {
	if n := len(l.pending); n > 0 {
		return l.pending[n-1].lsn + 1
	}
	return l.nextLSN
}

// bufferLocked encodes r onto the write buffer. The caller must hold l.mu.
func (l *Log) bufferLocked(r Record) {
	l.pending = append(l.pending, indexEntry{lsn: r.LSN, off: len(l.tail)})
	l.tail = appendRecord(l.tail, r)
}

// flushLocked writes every buffered record with one write and one fsync,
// then extends the index and advances the stream position past them. On
// failure every buffered record is dropped, so their LSNs are reused, and
// the log is left dirty so the next write first truncates whatever reached
// the medium. The caller must hold l.mu.
func (l *Log) flushLocked() error {
	if len(l.pending) == 0 {
		return nil
	}
	err := l.writeLocked(l.tail)
	if err == nil {
		for _, e := range l.pending {
			l.index = append(l.index, indexEntry{lsn: e.lsn, off: l.size + e.off})
		}
		l.size += len(l.tail)
		l.nextLSN = l.pending[len(l.pending)-1].lsn + 1
		l.notifyLocked()
	}
	l.dropTailLocked()
	return err
}

// dropTailLocked discards every buffered record. The caller must hold l.mu.
func (l *Log) dropTailLocked() {
	if cap(l.tail) > maxTailRetain {
		l.tail = nil
	}
	l.tail = l.tail[:0]
	l.pending = l.pending[:0]
}

// writeLocked repairs any torn tail, then writes b and syncs it. On
// failure the log is marked dirty so the next write repairs the tail
// first. The caller must hold l.mu.
func (l *Log) writeLocked(b []byte) error {
	if err := l.repairLocked(); err != nil {
		return err
	}
	if l.failArmed {
		if l.failAfter <= 0 {
			// Simulate a torn write: half the bytes reach the medium.
			_ = l.be.append(b[:len(b)/2])
			l.dirty = true
			return ErrCrashed
		}
		l.failAfter--
	}
	if err := l.be.append(b); err != nil {
		l.dirty = true
		return fmt.Errorf("wal: append: %w", err)
	}
	if err := l.be.sync(); err != nil {
		// The bytes may or may not have reached the medium; treat them as
		// torn so the next append truncates back to the last known-durable
		// offset instead of writing behind an uncertain tail.
		l.dirty = true
		return fmt.Errorf("wal: sync: %w", err)
	}
	return nil
}

// repairLocked truncates torn bytes left by a failed append back to the
// end of the last valid record and syncs the truncation. The caller must
// hold l.mu.
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
	if l.closed {
		return nil, ErrClosed
	}
	if err := l.flushLocked(); err != nil {
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
	if l.closed {
		return ErrClosed
	}
	if err := l.flushLocked(); err != nil {
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
	if l.closed {
		return nil, ErrClosed
	}
	if err := l.flushLocked(); err != nil {
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
	if l.closed {
		return nil
	}
	err := l.flushLocked()
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
// checkpoint stops before its atomic swap. AppendLazy writes nothing, so
// it does not count; the write that syncs its record does. Supported by
// every backend; a negative n disarms injection. It reports whether
// injection is supported.
func (l *Log) InjectCrashAfter(n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 {
		l.failArmed = false
		return true
	}
	l.failAfter = n
	l.failArmed = true
	return true
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

func (m *memBackend) append(b []byte) error {
	m.buf = append(m.buf, b...)
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

// fileBackend appends to a real file with fsync on sync. replace goes
// through a temp-file + fsync + rename + directory-fsync sequence so the
// swap is atomic across a crash at any point.
type fileBackend struct {
	f    *os.File
	path string
}

func (fb *fileBackend) append(b []byte) error {
	_, err := fb.f.Write(b)
	return err
}

func (fb *fileBackend) sync() error { return fb.f.Sync() }

// contents and readAt use positional reads: appends write at the file
// cursor, so a read that moved it and then failed would leave the next
// append overwriting acknowledged records.
func (fb *fileBackend) contents() ([]byte, error) {
	fi, err := fb.f.Stat()
	if err != nil {
		return nil, err
	}
	return fb.readAt(0, int(fi.Size()))
}

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
	if _, err := fb.f.Seek(int64(n), io.SeekStart); err != nil {
		return fmt.Errorf("seek: %w", err)
	}
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
	// The swap: after the rename the open tmp handle refers to the file
	// now living at the log path, so it becomes the backend's handle with
	// no window where the log has no open file.
	if err := os.Rename(tmpPath, fb.path); err != nil {
		cleanup()
		return fmt.Errorf("checkpoint rename: %w", err)
	}
	// Past the rename the swap is complete: the open tmp handle refers to
	// the file now living at the log path, so it becomes the backend's
	// handle with no window where the log has no open file. A failed
	// directory fsync is benign for correctness — if the rename is lost to
	// a crash, recovery replays the complete old log, a valid
	// pre-checkpoint state — so it does not fail the swap.
	_ = syncDir(filepath.Dir(fb.path))
	old := fb.f
	fb.f = tmp
	if _, err := fb.f.Seek(0, io.SeekEnd); err != nil {
		old.Close()
		return fmt.Errorf("checkpoint seek: %w", err)
	}
	return old.Close()
}

func (fb *fileBackend) close() error { return fb.f.Close() }
