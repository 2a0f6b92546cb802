package orb

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// legacyEncodeRequest builds a request payload exactly the way the PR-4
// era client did: encode into a standalone buffer, no reserved prefix,
// fresh allocations throughout. The framing (u32 length, then payload)
// is added by legacyWriteFrame.
func legacyEncodeRequest(r request) []byte {
	e := cdr.NewEncoder(128 + len(r.body))
	e.WriteRaw(protocolMagic[:])
	e.WriteOctet(protocolVersion)
	e.WriteOctet(msgRequest)
	e.WriteUint16(0)
	e.WriteUint64(r.requestID)
	e.WriteString(r.objectKey)
	e.WriteString(r.operation)
	encodeContexts(e, r.contexts)
	e.WriteBytes(r.body)
	return e.Bytes()
}

// legacyEncodeReply is the PR-4 era reply encoding.
func legacyEncodeReply(r reply) []byte {
	e := cdr.NewEncoder(64 + len(r.body))
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
	return e.Bytes()
}

// legacyWriteFrame writes the prefix and payload in two writes, as the
// old writeFrame-over-mutex path did.
func legacyWriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// legacyReadFrame reads one frame into a fresh allocation.
func legacyReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	payload := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// TestWireFormatUnchangedByPooledEncoders pins every byte of the framed
// encoding against the PR-4 era encode-then-copy path, across the
// alignment-sensitive shapes: empty and non-empty bodies, service
// contexts, error replies.
func TestWireFormatUnchangedByPooledEncoders(t *testing.T) {
	reqs := []request{
		{requestID: 1, objectKey: "k", operation: "ping"},
		{requestID: 0xDEADBEEFCAFE, objectKey: "key-long-enough-to-misalign", operation: "process_signal",
			contexts: []ServiceContext{{ID: ContextActivity, Data: []byte{9, 8, 7}}, {ID: contextOther, Data: nil}},
			body:     []byte("hello wire")},
	}
	for i, r := range reqs {
		enc := encodeRequestFrame(r)
		wantPayload := legacyEncodeRequest(r)
		if !bytes.Equal(enc.FramePayload(), wantPayload) {
			t.Fatalf("request %d payload changed:\n got %x\nwant %x", i, enc.FramePayload(), wantPayload)
		}
		frame := enc.Frame()
		if binary.BigEndian.Uint32(frame[:4]) != uint32(len(wantPayload)) || !bytes.Equal(frame[4:], wantPayload) {
			t.Fatalf("request %d frame changed", i)
		}
		cdr.PutEncoder(enc)
	}
	reps := []reply{
		{requestID: 7, status: replyOK, body: []byte("result")},
		{requestID: 8, status: replyOK},
		{requestID: 9, status: replySystemErr, errCode: "TRANSIENT", errDetail: "busy"},
	}
	for i, r := range reps {
		enc := encodeReplyFrame(r)
		if want := legacyEncodeReply(r); !bytes.Equal(enc.FramePayload(), want) {
			t.Fatalf("reply %d payload changed:\n got %x\nwant %x", i, enc.FramePayload(), want)
		}
		cdr.PutEncoder(enc)
	}
}

// TestWireFormatSoleRequest pins every byte of a sole request — an
// exclusive lane's — beside the multiplexed request it differs from only
// in the header's flags field, and its decoding back to sole.
func TestWireFormatSoleRequest(t *testing.T) {
	const want = "0000002c" + // frame length
		"474c4f50" + "01" + "01" + "0001" + // "GLOP", version, request, flags = sole
		"0000000000000001" + // request id
		"00000002" + "6b00" + "0000" + // object key "k", padded
		"00000005" + "70696e6700" + "000000" + // operation "ping", padded
		"00000000" + // no service contexts
		"00000000" // empty body
	r := request{requestID: 1, sole: true, objectKey: "k", operation: "ping"}
	enc := encodeRequestFrame(r)
	defer cdr.PutEncoder(enc)
	if got := fmt.Sprintf("%x", enc.Frame()); got != want {
		t.Fatalf("sole request frame:\n got %s\nwant %s", got, want)
	}
	r.sole = false
	mux := encodeRequestFrame(r)
	defer cdr.PutEncoder(mux)
	sole := append([]byte(nil), enc.FramePayload()...)
	sole[7] = 0
	if !bytes.Equal(sole, mux.FramePayload()) || !bytes.Equal(mux.FramePayload(), legacyEncodeRequest(r)) {
		t.Fatal("a sole request must differ from the multiplexed encoding in the flags field only")
	}
	got, err := decodeRequest(enc.FramePayload())
	if err != nil || !got.sole {
		t.Fatalf("decoded sole request = %+v, %v", got, err)
	}
	if got, err := decodeRequest(mux.FramePayload()); err != nil || got.sole {
		t.Fatalf("decoded multiplexed request = %+v, %v", got, err)
	}
}

// TestRemoteLegacyClientInterop drives the new server with a hand-rolled
// PR-4-era client — raw TCP, two-write frames, fresh buffers, no
// batching, several requests pipelined before any reply is read — and
// checks every reply. The wire format and framing discipline must be
// compatible in both directions.
func TestRemoteLegacyClientInterop(t *testing.T) {
	srv := New()
	defer srv.Shutdown()
	ref := srv.RegisterServant("IDL:test/Echo:1.0", echoBytesServant{})
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", strings.TrimPrefix(ep, "tcp:"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const calls = 16
	// Pipeline all requests first (the old client allowed concurrent
	// sends on one conn), then read the replies in whatever order the
	// server produced them.
	want := make(map[uint64]string, calls)
	for i := 0; i < calls; i++ {
		body := cdr.NewEncoder(32)
		msg := fmt.Sprintf("payload-%d", i)
		body.WriteBytes([]byte(msg))
		id := uint64(100 + i)
		want[id] = msg
		payload := legacyEncodeRequest(request{
			requestID: id,
			objectKey: ref.Key,
			operation: "echo",
			body:      body.Bytes(),
		})
		if err := legacyWriteFrame(conn, payload); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < calls; i++ {
		frame, err := legacyReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := decodeReply(frame)
		if err != nil {
			t.Fatal(err)
		}
		if rep.status != replyOK {
			t.Fatalf("reply %d: status %d (%s: %s)", rep.requestID, rep.status, rep.errCode, rep.errDetail)
		}
		// The echo servant unwraps the octet sequence: the reply body is
		// the raw message content.
		got := string(rep.body)
		if msg, ok := want[rep.requestID]; !ok || got != msg {
			t.Fatalf("reply %d: body %q, want %q", rep.requestID, got, want[rep.requestID])
		}
		delete(want, rep.requestID)
	}
}

// retainingServant keeps every request body it ever saw — through
// cdr.Clone, as the buffer-ownership contract requires — so the test can
// verify the retained copies survive frame-buffer reuse.
type retainingServant struct {
	mu       sync.Mutex
	retained [][]byte
}

// Dispatch implements Servant.
func (s *retainingServant) Dispatch(_ context.Context, _ string, in *cdr.Decoder) ([]byte, error) {
	lent := in.ReadBytes()
	s.mu.Lock()
	s.retained = append(s.retained, cdr.Clone(lent))
	s.mu.Unlock()
	return lent, nil // echo back the lent slice: legal, encoded before frame release
}

// TestRetainingServantMustClone runs sequential varied-body calls over
// one connection — so the server's pooled request frames are reused
// underneath the servant — and verifies that bodies retained through
// cdr.Clone keep their original contents. (Retaining the lent slice
// directly would be overwritten by later frames; Clone is the contract.)
func TestRetainingServantMustClone(t *testing.T) {
	srv := New()
	defer srv.Shutdown()
	servant := &retainingServant{}
	ref := srv.RegisterServant("IDL:test/Retain:1.0", servant)
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = srv.IOR(ref.Key)
	cli := New(WithPoolSize(1))
	defer cli.Shutdown()

	ctx := context.Background()
	const calls = 200
	contents := make([][]byte, calls)
	for i := 0; i < calls; i++ {
		contents[i] = []byte(fmt.Sprintf("body-%03d-%s", i, strings.Repeat("x", i%40)))
		e := cdr.NewEncoder(64)
		e.WriteBytes(contents[i])
		// The servant unwraps the octet sequence, so the echo comes back
		// as the raw content.
		out, err := cli.Invoke(ctx, ref, "keep", e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, contents[i]) {
			t.Fatalf("call %d: echo mismatch: %q want %q", i, out, contents[i])
		}
	}
	servant.mu.Lock()
	defer servant.mu.Unlock()
	if len(servant.retained) != calls {
		t.Fatalf("servant retained %d bodies, want %d", len(servant.retained), calls)
	}
	for i, kept := range servant.retained {
		if !bytes.Equal(kept, contents[i]) {
			t.Fatalf("retained body %d corrupted by buffer reuse: got %q want %q", i, kept, contents[i])
		}
	}
}

// TestChaosConcurrentFanoutSharedConnBufferReuse is the buffer-reuse
// safety net the ISSUE demands: a 64-caller fan-out storm multiplexed
// over a single pooled connection (pool=1 forces every caller through one
// frameWriter and one readLoop's recycled buffers), under a
// ChaosTransport latency rule so writes interleave with slow faulted
// frames. Every echoed body must come back intact and every reply must
// match its own request — a recycled buffer crossing calls would corrupt
// bodies, and a recycled reply channel crossing calls would cross-deliver
// them. Run under -race in the chaos CI job.
func TestChaosConcurrentFanoutSharedConnBufferReuse(t *testing.T) {
	srv := New()
	defer srv.Shutdown()
	ref := srv.RegisterServant("IDL:test/Echo:1.0", echoBytesServant{})
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = srv.IOR(ref.Key)

	ct := NewChaosTransport()
	// Slow every 16th request a little: keeps the single conn's write
	// path congested so frames genuinely queue behind each other, without
	// stretching the test.
	ct.Inject(ChaosRule{Op: "echo", Stage: StageRequest, Latency: 200 * time.Microsecond, After: 0, Count: 0})
	cli := New(WithPoolSize(1), WithTransport(ct), WithCallTimeout(30*time.Second))
	defer cli.Shutdown()

	const (
		callers = 64
		perCall = 20
	)
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perCall; i++ {
				msg := fmt.Sprintf("caller-%02d-call-%03d-%s", c, i, strings.Repeat("y", (c+i)%50))
				e := cdr.NewEncoder(80)
				e.WriteBytes([]byte(msg))
				out, err := cli.Invoke(ctx, ref, "echo", e.Bytes())
				if err != nil {
					errCh <- fmt.Errorf("caller %d call %d: %w", c, i, err)
					return
				}
				if got := string(out); got != msg {
					errCh <- fmt.Errorf("caller %d call %d: body %q, want %q (buffer reuse corruption)", c, i, got, msg)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// consumeNBatchWriter simulates a gather write that fully flushes the
// first n buffers (consuming them, as net.Buffers.WriteTo does) and then
// fails. Only WriteFrames is ever called on it.
type consumeNBatchWriter struct {
	wireConn
	n   int
	err error
}

// WriteFrames implements wireConn.
func (c consumeNBatchWriter) WriteFrames(bufs *net.Buffers) error {
	if c.n < len(*bufs) {
		*bufs = (*bufs)[c.n:]
		return c.err
	}
	*bufs = nil
	return c.err
}

// failNthConn is a plain Conn whose nth WriteFrame fails.
type failNthConn struct {
	Conn
	n, writes int
}

func (c *failNthConn) WriteFrame([]byte) error {
	if c.writes++; c.writes == c.n {
		return io.ErrClosedPipe
	}
	return nil
}

// TestWriterPartialBatchFailureSplitsSentFromUnsent pins the
// exactly-once-critical split on a failed gather write: frames the
// kernel fully consumed before the error must NOT be reported through
// onFail (their callers get COMM_FAILURE — unknown completion — from the
// connection drop), while the unwritten tail is reported (TRANSIENT: the
// peer cannot have parsed a truncated or unsent frame, so retry and
// failover stay safe). The plainConn row holds the adapter to the same
// split, one WriteFrame per frame.
func TestWriterPartialBatchFailureSplitsSentFromUnsent(t *testing.T) {
	mkFrame := func(id uint64) *cdr.Encoder {
		return encodeRequestFrame(request{requestID: id, objectKey: "k", operation: "op"})
	}
	fail := func(n int) wireConn { return consumeNBatchWriter{n: n, err: io.ErrClosedPipe} }
	for _, tc := range []struct {
		name    string
		frames  int
		sink    wireConn
		wantIDs []uint64
	}{
		{"consumed=1", 3, fail(1), []uint64{101, 102}}, // 100 flushed: not failed-unsent
		{"consumed=0", 3, fail(0), []uint64{100, 101, 102}},
		{"consumed=2", 2, fail(2), nil}, // everything flushed before the error
		{"plainConn", 3, plainConn{&failNthConn{n: 2}}, []uint64{101, 102}},
	} {
		var got []uint64
		w := newFrameWriter(8, tc.sink, func(unsent []*cdr.Encoder) {
			for _, e := range unsent {
				p := e.FramePayload()
				got = append(got, binary.BigEndian.Uint64(p[8:16]))
			}
		})
		for i := 0; i < tc.frames; i++ {
			if !w.tryEnqueue(mkFrame(uint64(100 + i))) {
				t.Fatal("enqueue failed")
			}
		}
		w.combine()
		if fmt.Sprint(got) != fmt.Sprint(tc.wantIDs) {
			t.Fatalf("%s: onFail saw %v, want %v", tc.name, got, tc.wantIDs)
		}
		if !w.failed.Load() {
			t.Fatalf("%s: writer did not enter failed mode", tc.name)
		}
	}
}
