package orb

import (
	"net"
	"sync"
	"sync/atomic"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// Writer tuning. The queue bound is backpressure, not a drop threshold: a
// full queue blocks the enqueuing producer until a combiner drains (or
// the connection dies). The batch bound caps how many frames one gather
// write may carry.
const (
	writeQueueDepth = 64
	maxWriteBatch   = 32
)

// frameWriter coalesces frames from concurrent producers into batched
// vectored writes without a dedicated writer goroutine: a producer
// enqueues its pooled frame encoder and then tries to become the combiner
// (TryLock). The combiner drains whatever has accumulated behind the
// previous write — its own frame plus everything concurrent producers
// enqueued meanwhile — into one writev(2) per batch, so fan-out callers
// multiplexed on one connection share syscalls, while an uncontended
// producer writes its own frame inline with no goroutine handoff at all.
//
// A producer whose TryLock fails simply leaves: the current combiner
// re-checks the queue after releasing the lock (see combine), so every
// enqueued frame is drained by someone. After the first write error (or
// discard) the writer enters failed mode and discards frames — producers
// must never block forever behind a dead connection. Every frame it does
// not write goes through onFail: the unwritten tail of the failed batch,
// then each discarded batch.
type frameWriter struct {
	q      chan *cdr.Encoder
	c      wireConn
	onFail func(unsent []*cdr.Encoder) // frames not written, from the first write failure on

	failed atomic.Bool

	mu      sync.Mutex // the combiner lock; scratch below is guarded by it
	batch   []*cdr.Encoder
	bufs    net.Buffers
	scratch net.Buffers // header copy handed to WriteFrames, which consumes it
}

// newFrameWriter builds a writer over c.
func newFrameWriter(depth int, c wireConn, onFail func([]*cdr.Encoder)) *frameWriter {
	return &frameWriter{
		q:      make(chan *cdr.Encoder, depth),
		c:      c,
		onFail: onFail,
		batch:  make([]*cdr.Encoder, 0, maxWriteBatch),
		bufs:   make(net.Buffers, 0, maxWriteBatch),
	}
}

// tryEnqueue enqueues without blocking, reporting success. The caller
// still owns the encoder on false. It does not combine — the read loop
// uses it for admission sheds and must never risk blocking in a write;
// pair it with kick().
func (w *frameWriter) tryEnqueue(enc *cdr.Encoder) bool {
	select {
	case w.q <- enc:
		return true
	default:
		return false
	}
}

// combine drains and writes the queue if no other combiner is active.
// The post-unlock re-check closes the race where a producer enqueues
// between the combiner's last empty poll and its unlock and then fails
// TryLock against it: the obligation to drain stays with whoever last
// held the lock until the queue is observably empty or another combiner
// has taken over.
func (w *frameWriter) combine() {
	for {
		if !w.mu.TryLock() {
			return // the holder re-checks after unlocking
		}
		for w.collectLocked() {
			w.writeBatchLocked()
		}
		w.mu.Unlock()
		if len(w.q) == 0 {
			return
		}
	}
}

// collectLocked gathers up to maxWriteBatch queued frames into w.batch,
// reporting whether it got any.
func (w *frameWriter) collectLocked() bool {
	w.batch = w.batch[:0]
	for len(w.batch) < maxWriteBatch {
		select {
		case e := <-w.q:
			w.batch = append(w.batch, e)
		default:
			return len(w.batch) > 0
		}
	}
	return true
}

// discard puts the writer into failed mode, waits for a write in progress
// to finish, and hands every frame still queued to onFail. A producer
// enqueuing afterwards is discarded the same way by its own combine.
func (w *frameWriter) discard() {
	w.failed.Store(true)
	w.mu.Lock()
	for w.collectLocked() {
		w.writeBatchLocked()
	}
	w.mu.Unlock()
	w.combine() // the post-unlock re-check combine's producers rely on
}

// writeBatchLocked writes w.batch in one gather write and releases the
// pooled encoders. The first failure flips the writer into discard mode;
// the unwritten tail, and every batch discarded after it, goes to onFail
// before the encoders are released — the client uses it to fail those
// calls with TRANSIENT (request never left) rather than COMM_FAILURE.
func (w *frameWriter) writeBatchLocked() {
	if w.failed.Load() {
		w.onFail(w.batch)
		for _, e := range w.batch {
			cdr.PutEncoder(e)
		}
		return
	}
	w.bufs = w.bufs[:0]
	for _, e := range w.batch {
		w.bufs = append(w.bufs, e.Frame())
	}
	// Hand WriteFrames a header copy: WriteTo consumes its argument by
	// re-slicing, and w.bufs must keep its backing array's capacity.
	w.scratch = w.bufs
	if err := w.c.WriteFrames(&w.scratch); err != nil {
		// The consume semantics of WriteFrames tell us exactly which
		// frames fully reached the kernel before the failure: those are
		// NOT in the unsent tail — the peer may have executed them, so
		// they must fail with COMM_FAILURE (unknown completion, via the
		// connection drop), never TRANSIENT. A partially-written frame
		// stays in the scratch tail: the peer cannot parse a truncated
		// frame, so "never ran" (TRANSIENT) remains true for it.
		w.failed.Store(true)
		w.onFail(w.batch[len(w.batch)-len(w.scratch):])
	}
	for _, e := range w.batch {
		cdr.PutEncoder(e)
	}
}
