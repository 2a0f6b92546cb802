package orb

import (
	"sync"
)

// Buffer ownership on the wire path (see also docs/ARCHITECTURE.md):
//
//   - Outgoing frames are built in pooled cdr.Encoders (cdr.GetEncoder,
//     BeginFrame) and handed to the connection's combining frameWriter —
//     or, on an exclusive lane, written by the caller itself — and
//     released with cdr.PutEncoder after the gather write.
//   - Incoming frames land in pooled frameBufs. The reader that got the
//     buffer from the pool is responsible for putting it back exactly once,
//     after every borrowed view of it (decoded request body, reply body,
//     service-context data) is dead.
//   - Decoded []byte fields alias the frameBuf (cdr.Decoder.ReadBytes
//     lends); anything retained past the frame must go through cdr.Clone.

// maxPooledFrameBytes bounds the capacity a pooled frame buffer may
// retain, so a one-off huge frame does not pin its memory in the pool.
const maxPooledFrameBytes = 64 << 10

// frameBuf is a pooled, reusable frame read buffer.
type frameBuf struct {
	b []byte
}

// framePool recycles read buffers across frames.
var framePool = sync.Pool{New: func() any { return &frameBuf{b: make([]byte, 0, 512)} }}

// getFrameBuf returns a frame buffer from the pool.
func getFrameBuf() *frameBuf { return framePool.Get().(*frameBuf) }

// putFrameBuf returns fb to the pool. The caller must not touch fb — or
// any slice decoded out of it — afterwards; the next frame read will
// overwrite the bytes. Oversized buffers are dropped rather than pooled.
func putFrameBuf(fb *frameBuf) {
	if fb == nil || cap(fb.b) > maxPooledFrameBytes {
		return
	}
	framePool.Put(fb)
}

// replyChanPool recycles the per-request reply channels of the client
// transport. A channel may only be recycled by the party that can prove
// no send is outstanding: the receiver that already got the (single)
// reply, or an unregistering caller that removed the pending entry itself
// (whoever removes the entry owns the one send that will ever happen).
var replyChanPool = sync.Pool{New: func() any { return make(chan reply, 1) }}

// getReplyChan returns an empty buffered reply channel from the pool.
func getReplyChan() chan reply { return replyChanPool.Get().(chan reply) }

// putReplyChan recycles ch. See replyChanPool for the ownership rule; a
// channel a late sender might still write into must be abandoned to the
// garbage collector instead.
func putReplyChan(ch chan reply) { replyChanPool.Put(ch) }
