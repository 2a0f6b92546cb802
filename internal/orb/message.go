package orb

import (
	"encoding/binary"
	"fmt"
	"io"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// Wire protocol ("GLOP" — GIOP-lite over plain TCP):
//
//	frame   = u32 length | payload               (length excludes itself)
//	payload = "GLOP" | u8 version | u8 msgType | u16 flags | content
//
// The only flag is flagSole, set on a request sent over an exclusive lane
// (client.go): the connection carries nothing else until its reply
// leaves, so the server dispatches it on the connection's read loop.
// Replies carry no flags, and a receiver ignores bits it does not know.
//
// Request content: u64 requestID, string objectKey, string operation,
// service-context list, bytes body.
// Reply content:   u64 requestID, u8 status, service-context list, bytes
// body (status OK) or string code + string detail (exception statuses).

var protocolMagic = [4]byte{'G', 'L', 'O', 'P'}

const (
	protocolVersion = 1

	msgRequest byte = 1
	msgReply   byte = 2

	replyOK        byte = 0
	replySystemErr byte = 1
	replyUserErr   byte = 2

	// flagSole marks a request as the only one its connection carries
	// until the reply leaves.
	flagSole uint16 = 1

	// maxFrameSize guards against corrupt length prefixes.
	maxFrameSize = 64 << 20
)

// ServiceContext is an out-of-band context entry carried with a request or
// reply — the mechanism the Activity Service uses to propagate activity and
// transaction context implicitly, as the CORBA specification prescribes.
type ServiceContext struct {
	// ID names the context slot (see the well-known IDs below).
	ID uint32
	// Data is the opaque encoded payload.
	Data []byte
}

// ContextActivity is the well-known service context ID carrying the
// activity propagation context.
const ContextActivity uint32 = 0x41435456 // "ACTV"

// request is a decoded request message. body and the contexts' Data are
// lent from the frame the request was decoded out of: they are valid only
// until the frame buffer is released back to the pool (after dispatch and
// reply encoding on the server).
type request struct {
	requestID uint64
	sole      bool // sent over an exclusive lane (flagSole)
	objectKey string
	operation string
	contexts  []ServiceContext
	body      []byte
}

// reply is a decoded reply message. When fb is non-nil, body and the
// contexts' Data are lent from that pooled frame buffer; release
// transfers the buffer back to the pool and must only run once no
// borrowed view is live (replyToResult clones the body first).
type reply struct {
	requestID uint64
	status    byte
	contexts  []ServiceContext
	body      []byte // OK payload
	errCode   string // exception code for non-OK
	errDetail string
	fb        *frameBuf // pooled frame backing body, nil for local/synthesized replies
}

// release returns the reply's backing frame buffer (if any) to the pool.
func (r *reply) release() {
	if r.fb != nil {
		putFrameBuf(r.fb)
		r.fb = nil
	}
}

func encodeContexts(e *cdr.Encoder, ctxs []ServiceContext) {
	e.WriteUint32(uint32(len(ctxs)))
	for _, c := range ctxs {
		e.WriteUint32(c.ID)
		e.WriteBytes(c.Data)
	}
}

// decodeContexts reads a counted service-context list. A count the
// remaining bytes cannot hold fails the decoder (ReadCount), so the
// request is refused rather than dispatched without its contexts.
func decodeContexts(d *cdr.Decoder) []ServiceContext {
	n := d.ReadCount(1)
	if d.Err() != nil || n == 0 {
		return nil
	}
	out := make([]ServiceContext, 0, n)
	for i := 0; i < n; i++ {
		c := ServiceContext{ID: d.ReadUint32(), Data: d.ReadBytes()}
		if d.Err() != nil {
			return nil
		}
		out = append(out, c)
	}
	return out
}

// encodeRequestFrame encodes r as a complete wire frame — u32 length
// prefix included — into a pooled encoder, assembled in place (BeginFrame
// reserves the prefix up front, so there is no encode-then-copy step).
// Ownership of the encoder moves to the caller; whoever consumes the
// frame releases it with cdr.PutEncoder.
func encodeRequestFrame(r request) *cdr.Encoder {
	e := cdr.GetEncoder()
	e.BeginFrame()
	e.WriteRaw(protocolMagic[:])
	e.WriteOctet(protocolVersion)
	e.WriteOctet(msgRequest)
	var flags uint16
	if r.sole {
		flags = flagSole
	}
	e.WriteUint16(flags)
	e.WriteUint64(r.requestID)
	e.WriteString(r.objectKey)
	e.WriteString(r.operation)
	encodeContexts(e, r.contexts)
	e.WriteBytes(r.body)
	return e
}

// encodeReplyFrame encodes r as a complete wire frame into a pooled
// encoder, like encodeRequestFrame.
func encodeReplyFrame(r reply) *cdr.Encoder {
	e := cdr.GetEncoder()
	e.BeginFrame()
	e.WriteRaw(protocolMagic[:])
	e.WriteOctet(protocolVersion)
	e.WriteOctet(msgReply)
	e.WriteUint16(0)
	e.WriteUint64(r.requestID)
	e.WriteOctet(r.status)
	encodeContexts(e, r.contexts)
	if r.status == replyOK {
		e.WriteBytes(r.body)
	} else {
		e.WriteString(r.errCode)
		e.WriteString(r.errDetail)
	}
	return e
}

// decodeHeader validates magic and version and returns the message type
// and flags. The magic octets are compared individually: materializing a
// [4]byte for the error formatter would heap-escape it on every call, not
// just the error path.
func decodeHeader(d *cdr.Decoder) (byte, uint16, error) {
	m0 := d.ReadOctet()
	m1 := d.ReadOctet()
	m2 := d.ReadOctet()
	m3 := d.ReadOctet()
	version := d.ReadOctet()
	msgType := d.ReadOctet()
	flags := d.ReadUint16()
	if err := d.Err(); err != nil {
		return 0, 0, Systemf(CodeMarshal, "short header: %v", err)
	}
	if m0 != protocolMagic[0] || m1 != protocolMagic[1] || m2 != protocolMagic[2] || m3 != protocolMagic[3] {
		return 0, 0, Systemf(CodeMarshal, "bad magic %q", string([]byte{m0, m1, m2, m3}))
	}
	if version != protocolVersion {
		return 0, 0, Systemf(CodeMarshal, "unsupported version %d", version)
	}
	return msgType, flags, nil
}

// wireRequest is a request decoded without materializing its strings:
// objectKey and operation are lent sub-slices of the frame, like body and
// the context data. The server dispatch path uses it so the steady state
// allocates no key/operation strings at all (map lookups on string(b)
// compile allocation-free, and operation names intern); everything else
// goes through decodeRequest, which converts to the owned request form.
type wireRequest struct {
	requestID uint64
	sole      bool
	objectKey []byte // lent from the frame
	operation []byte // lent from the frame
	contexts  []ServiceContext
	body      []byte
}

func decodeRequestWire(b []byte) (wireRequest, error) {
	// Stack decoder: it never escapes, so decoding a frame allocates
	// nothing beyond the context list (and that only when present).
	var dec cdr.Decoder
	dec.Reset(b)
	d := &dec
	msgType, flags, err := decodeHeader(d)
	if err != nil {
		return wireRequest{}, err
	}
	if msgType != msgRequest {
		return wireRequest{}, Systemf(CodeMarshal, "expected request, got type %d", msgType)
	}
	r := wireRequest{
		requestID: d.ReadUint64(),
		sole:      flags&flagSole != 0,
		objectKey: d.ReadStringBytes(),
		operation: d.ReadStringBytes(),
	}
	r.contexts = decodeContexts(d)
	r.body = d.ReadBytes()
	if err := d.Err(); err != nil {
		return wireRequest{}, Systemf(CodeMarshal, "decode request: %v", err)
	}
	return r, nil
}

func decodeRequest(b []byte) (request, error) {
	w, err := decodeRequestWire(b)
	if err != nil {
		return request{}, err
	}
	return request{
		requestID: w.requestID,
		sole:      w.sole,
		objectKey: string(w.objectKey),
		operation: string(w.operation),
		contexts:  w.contexts,
		body:      w.body,
	}, nil
}

func decodeReply(b []byte) (reply, error) {
	var dec cdr.Decoder
	dec.Reset(b)
	d := &dec
	msgType, _, err := decodeHeader(d)
	if err != nil {
		return reply{}, err
	}
	if msgType != msgReply {
		return reply{}, Systemf(CodeMarshal, "expected reply, got type %d", msgType)
	}
	r := reply{
		requestID: d.ReadUint64(),
		status:    d.ReadOctet(),
	}
	r.contexts = decodeContexts(d)
	if r.status == replyOK {
		r.body = d.ReadBytes()
	} else {
		r.errCode = d.ReadString()
		r.errDetail = d.ReadString()
	}
	if err := d.Err(); err != nil {
		return reply{}, Systemf(CodeMarshal, "decode reply: %v", err)
	}
	return r, nil
}

// writeFrame writes a length-prefixed frame (two writes: prefix, then
// payload). The hot paths batch complete pre-framed buffers through
// net.Buffers instead; this remains for transports handed a bare payload
// (Conn.WriteFrame implementations).
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrameInto reads one length-prefixed frame, reusing buf's capacity
// when it suffices and allocating otherwise. The returned slice aliases
// buf (or its replacement); callers recycling buffers own the lifetime.
// The length prefix is read into buf too (a stack header array would
// escape through the io.Reader interface and cost an allocation per
// frame).
func readFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > maxFrameSize {
		return nil, fmt.Errorf("orb: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
