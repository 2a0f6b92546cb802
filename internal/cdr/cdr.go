// Package cdr implements a Common Data Representation style binary
// encoding: big-endian primitives aligned to their natural size, length
// prefixed strings and octet sequences, and a tagged "any" type.
//
// The ORB (internal/orb) marshals every request and reply body with this
// package, and the Activity Service uses the any encoding for
// Signal.application_specific_data, mirroring the CORBA `any` the paper's
// IDL uses. The wire format is a simplification of OMG CDR: all streams are
// big-endian (no byte-order flag) and alignment is computed from the start
// of the stream.
package cdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// Encoding errors.
var (
	// ErrTruncated reports that a decoder ran out of bytes.
	ErrTruncated = errors.New("cdr: truncated stream")
	// ErrBadString reports a malformed string encoding.
	ErrBadString = errors.New("cdr: malformed string")
	// ErrTooLong reports a length prefix beyond the remaining stream, a
	// corruption guard against huge allocations.
	ErrTooLong = errors.New("cdr: length exceeds remaining stream")
)

// Encoder builds a CDR stream in memory. The zero value is ready to use.
// Write methods never fail; the buffer grows as needed.
//
// Hot paths should acquire encoders from the package pool with GetEncoder
// and return them with PutEncoder instead of allocating one per message;
// a pooled encoder arrives Reset and keeps its grown capacity across uses,
// which is what makes steady-state encoding allocation-free.
type Encoder struct {
	buf  []byte
	base int // stream origin: alignment is relative to buf[base:]
}

// NewEncoder returns an Encoder with the given initial capacity.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// maxPooledEncoderBytes bounds the capacity a pooled encoder may retain;
// an encoder grown past it (a one-off huge frame) is dropped instead of
// pinning its buffer in the pool forever.
const maxPooledEncoderBytes = 64 << 10

// encoderPool recycles Encoders across messages (see GetEncoder).
var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// GetEncoder returns a Reset encoder from the package pool. Pair it with
// PutEncoder once the encoded bytes have been consumed; the encoded stream
// (Bytes, Frame) aliases the encoder's buffer, so releasing the encoder
// invalidates it.
func GetEncoder() *Encoder {
	return encoderPool.Get().(*Encoder)
}

// PutEncoder resets e and returns it to the package pool. The caller must
// not touch e — or any slice obtained from its Bytes, Frame or
// FramePayload — afterwards. Oversized buffers are dropped rather than
// pooled.
func PutEncoder(e *Encoder) {
	if e == nil || cap(e.buf) > maxPooledEncoderBytes {
		return
	}
	e.Reset()
	encoderPool.Put(e)
}

// Bytes returns the encoded stream (excluding any frame length prefix
// reserved by BeginFrame). The returned slice aliases the encoder's
// buffer; it is valid until the next Write call or Reset.
func (e *Encoder) Bytes() []byte { return e.buf[e.base:] }

// Len returns the current stream length (excluding any frame length
// prefix reserved by BeginFrame).
func (e *Encoder) Len() int { return len(e.buf) - e.base }

// Reset discards the stream contents and any reserved frame prefix,
// retaining capacity.
func (e *Encoder) Reset() {
	e.buf = e.buf[:0]
	e.base = 0
}

// BeginFrame reserves a big-endian u32 length prefix at the start of the
// buffer and makes the byte after it the stream origin: alignment — and
// therefore every encoded byte — is computed exactly as if the payload
// had been encoded into its own buffer, so framing in place produces the
// same wire bytes as the historic encode-then-copy path without the copy.
// It must be called on an empty encoder, before any Write.
func (e *Encoder) BeginFrame() {
	if len(e.buf) != 0 {
		panic("cdr: BeginFrame on a non-empty encoder")
	}
	e.buf = append(e.buf, 0, 0, 0, 0)
	e.base = len(e.buf)
}

// Frame patches the reserved length prefix with the payload length and
// returns the complete frame (prefix plus payload). The returned slice
// aliases the encoder's buffer; it is valid until the next Write call,
// Reset or PutEncoder. It panics if BeginFrame was not called.
func (e *Encoder) Frame() []byte {
	if e.base != 4 {
		panic("cdr: Frame without BeginFrame")
	}
	binary.BigEndian.PutUint32(e.buf[:4], uint32(len(e.buf)-e.base))
	return e.buf
}

// FramePayload returns the frame payload alone (without the length
// prefix), for transports that add their own framing. The returned slice
// aliases the encoder's buffer.
func (e *Encoder) FramePayload() []byte { return e.buf[e.base:] }

// align pads the stream with zero bytes so the next write starts at a
// multiple of n from the origin of the stream (the byte after the frame
// prefix when BeginFrame reserved one).
func (e *Encoder) align(n int) {
	for (len(e.buf)-e.base)%n != 0 {
		e.buf = append(e.buf, 0)
	}
}

// WriteOctet appends a single byte.
func (e *Encoder) WriteOctet(b byte) { e.buf = append(e.buf, b) }

// WriteBool appends a boolean as one octet (0 or 1).
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteUint16 appends an aligned big-endian uint16.
func (e *Encoder) WriteUint16(v uint16) {
	e.align(2)
	e.buf = binary.BigEndian.AppendUint16(e.buf, v)
}

// WriteUint32 appends an aligned big-endian uint32.
func (e *Encoder) WriteUint32(v uint32) {
	e.align(4)
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// WriteUint64 appends an aligned big-endian uint64.
func (e *Encoder) WriteUint64(v uint64) {
	e.align(8)
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// WriteInt32 appends an aligned big-endian int32.
func (e *Encoder) WriteInt32(v int32) { e.WriteUint32(uint32(v)) }

// WriteInt64 appends an aligned big-endian int64.
func (e *Encoder) WriteInt64(v int64) { e.WriteUint64(uint64(v)) }

// WriteFloat64 appends an aligned IEEE-754 double.
func (e *Encoder) WriteFloat64(v float64) { e.WriteUint64(math.Float64bits(v)) }

// WriteString appends a CDR string: uint32 length including the
// terminating NUL, the bytes, then a NUL octet.
func (e *Encoder) WriteString(s string) {
	e.WriteUint32(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// WriteBytes appends an octet sequence: uint32 length then raw bytes.
func (e *Encoder) WriteBytes(b []byte) {
	e.WriteUint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// WriteRaw appends bytes without any length prefix or alignment.
func (e *Encoder) WriteRaw(b []byte) { e.buf = append(e.buf, b...) }

// Decoder reads a CDR stream. Errors are sticky: after the first failure
// every read returns the zero value and Err reports the failure.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over b. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Reset points the decoder at b, clearing any sticky error: the zero-cost
// way to reuse a stack- or pool-allocated Decoder across frames.
func (d *Decoder) Reset(b []byte) {
	d.buf = b
	d.off = 0
	d.err = nil
}

// decoderPool recycles Decoders across dispatches (see GetDecoder).
var decoderPool = sync.Pool{New: func() any { return new(Decoder) }}

// GetDecoder returns a pooled Decoder over b. Pair with PutDecoder once
// every read is done; the hot dispatch path uses this to hand servants a
// decoder without allocating one per request.
func GetDecoder(b []byte) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.Reset(b)
	return d
}

// PutDecoder returns d to the pool. The caller must not touch d
// afterwards (slices read from it keep aliasing the original buffer and
// are governed by that buffer's lifetime, not the decoder's).
func PutDecoder(d *Decoder) {
	if d == nil {
		return
	}
	d.Reset(nil)
	decoderPool.Put(d)
}

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// fail records the first error.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) align(n int) {
	if d.err != nil {
		return
	}
	for d.off%n != 0 {
		if d.off >= len(d.buf) {
			d.fail(fmt.Errorf("%w: during alignment", ErrTruncated))
			return
		}
		d.off++
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.fail(fmt.Errorf("%w: need %d bytes at offset %d of %d", ErrTruncated, n, d.off, len(d.buf)))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// ReadOctet reads one byte.
func (d *Decoder) ReadOctet() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// ReadBool reads one octet as a boolean.
func (d *Decoder) ReadBool() bool { return d.ReadOctet() != 0 }

// ReadUint16 reads an aligned big-endian uint16.
func (d *Decoder) ReadUint16() uint16 {
	d.align(2)
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// ReadUint32 reads an aligned big-endian uint32.
func (d *Decoder) ReadUint32() uint32 {
	d.align(4)
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// ReadStringList reads a uint32-counted list of strings. A count the
// remaining bytes cannot possibly hold (every string costs at least its
// 4-byte length prefix plus a NUL) is rejected before it can size an
// allocation, so a corrupt or hostile stream cannot OOM the decoder.
func (d *Decoder) ReadStringList() []string {
	n := d.ReadUint32()
	if d.err != nil {
		return nil
	}
	if int64(n) > int64(d.Remaining())/5 {
		d.fail(fmt.Errorf("%w: list of %d strings in %d bytes", ErrTooLong, n, d.Remaining()))
		return nil
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n && d.err == nil; i++ {
		out = append(out, d.ReadString())
	}
	return out
}

// WriteStringList appends a uint32-counted list of strings, the encoding
// ReadStringList reads.
func (e *Encoder) WriteStringList(ss []string) {
	e.WriteUint32(uint32(len(ss)))
	for _, s := range ss {
		e.WriteString(s)
	}
}

// ReadUint64 reads an aligned big-endian uint64.
func (d *Decoder) ReadUint64() uint64 {
	d.align(8)
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// ReadInt32 reads an aligned big-endian int32.
func (d *Decoder) ReadInt32() int32 { return int32(d.ReadUint32()) }

// ReadInt64 reads an aligned big-endian int64.
func (d *Decoder) ReadInt64() int64 { return int64(d.ReadUint64()) }

// ReadFloat64 reads an aligned IEEE-754 double.
func (d *Decoder) ReadFloat64() float64 { return math.Float64frombits(d.ReadUint64()) }

// ReadString reads a CDR string. The returned string is a copy: it never
// aliases the decoder's buffer, so it may be retained freely.
func (d *Decoder) ReadString() string {
	return string(d.ReadStringBytes())
}

// ReadStringBytes reads a CDR string but returns its bytes (without the
// NUL terminator) as a lent sub-slice ALIASING the decoder's buffer — the
// zero-allocation sibling of ReadString for hot paths that only need the
// bytes transiently (a map lookup, an intern probe). Everything said
// about ReadBytes' lifetime applies: Clone before retaining.
func (d *Decoder) ReadStringBytes() []byte {
	n := d.ReadUint32()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		d.fail(fmt.Errorf("%w: zero-length string encoding", ErrBadString))
		return nil
	}
	if int(n) > d.Remaining() {
		d.fail(fmt.Errorf("%w: string of %d bytes", ErrTooLong, n))
		return nil
	}
	b := d.take(int(n))
	if b == nil {
		return nil
	}
	if b[len(b)-1] != 0 {
		d.fail(fmt.Errorf("%w: missing NUL terminator", ErrBadString))
		return nil
	}
	return b[:len(b)-1]
}

// ReadBytes reads an octet sequence. The returned slice ALIASES the
// decoder's buffer — it is a lent sub-slice, not a copy — so it is only
// valid while the buffer is: the ORB recycles frame buffers once dispatch
// returns, after which a retained slice is overwritten by a later frame.
// Anything kept past the current dispatch must be copied with Clone.
// Lending instead of copying is what makes steady-state decoding
// allocation-free.
func (d *Decoder) ReadBytes() []byte {
	n := d.ReadUint32()
	if d.err != nil {
		return nil
	}
	if int(n) > d.Remaining() {
		d.fail(fmt.Errorf("%w: octet sequence of %d bytes", ErrTooLong, n))
		return nil
	}
	return d.take(int(n))
}

// ReadBytesClone reads an octet sequence as an owned copy: Clone applied
// to ReadBytes, for callers that retain the data past the frame.
func (d *Decoder) ReadBytesClone() []byte {
	return Clone(d.ReadBytes())
}

// Clone returns an owned copy of b that does not alias any decoder or
// frame buffer (nil for an empty input). Servants and interceptors must
// route any lent slice they retain past their dispatch — a ReadBytes
// result, a service-context payload — through Clone, or buffer reuse will
// overwrite it under them.
func Clone(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
