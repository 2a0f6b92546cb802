package orb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// echoServant implements "echo" (returns its argument), "fail" (user
// error), "system" (system exception) and "contexts" (returns the number
// of service contexts observed by the server interceptor — set via ctx).
type echoServant struct{}

type observedKey struct{}

func (echoServant) Dispatch(ctx context.Context, op string, in *cdr.Decoder) ([]byte, error) {
	switch op {
	case "echo":
		s := in.ReadString()
		if err := in.Err(); err != nil {
			return nil, Systemf(CodeMarshal, "echo: %v", err)
		}
		e := cdr.NewEncoder(32)
		e.WriteString(s)
		return e.Bytes(), nil
	case "fail":
		return nil, errors.New("application failure")
	case "system":
		return nil, Systemf(CodeTransient, "try later")
	case "contexts":
		n, _ := ctx.Value(observedKey{}).(int)
		e := cdr.NewEncoder(8)
		e.WriteUint32(uint32(n))
		return e.Bytes(), nil
	case "slow":
		time.Sleep(200 * time.Millisecond)
		return nil, nil
	default:
		return nil, Systemf(CodeBadOperation, "no operation %q", op)
	}
}

func echoCall(t *testing.T, o *ORB, ref IOR, msg string) (string, error) {
	t.Helper()
	e := cdr.NewEncoder(32)
	e.WriteString(msg)
	body, err := o.Invoke(context.Background(), ref, "echo", e.Bytes())
	if err != nil {
		return "", err
	}
	d := cdr.NewDecoder(body)
	s := d.ReadString()
	if err := d.Err(); err != nil {
		t.Fatalf("decode echo reply: %v", err)
	}
	return s, nil
}

func TestInprocInvoke(t *testing.T) {
	o := New()
	defer o.Shutdown()
	ref := o.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	got, err := echoCall(t, o, ref, "hello")
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("echo = %q", got)
	}
}

func TestInprocAcrossORBs(t *testing.T) {
	server := New()
	defer server.Shutdown()
	client := New()
	defer client.Shutdown()
	ref := server.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	got, err := echoCall(t, client, ref, "cross")
	if err != nil {
		t.Fatal(err)
	}
	if got != "cross" {
		t.Fatalf("echo = %q", got)
	}
}

func TestTCPInvoke(t *testing.T) {
	server := New()
	defer server.Shutdown()
	ref := server.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	endpoint, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// IORs minted after Listen carry the TCP endpoint.
	ref2, ok := server.IOR(ref.Key)
	if !ok || ref2.Endpoint() != endpoint {
		t.Fatalf("IOR endpoint = %q, want %q", ref2.Endpoint(), endpoint)
	}

	client := New()
	defer client.Shutdown()
	got, err := echoCall(t, client, ref2, "over tcp")
	if err != nil {
		t.Fatal(err)
	}
	if got != "over tcp" {
		t.Fatalf("echo = %q", got)
	}
}

func TestTCPSelfReferenceShortCircuits(t *testing.T) {
	o := New()
	defer o.Shutdown()
	if _, err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref := o.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	got, err := echoCall(t, o, ref, "self")
	if err != nil {
		t.Fatal(err)
	}
	if got != "self" {
		t.Fatalf("echo = %q", got)
	}
}

func TestUserErrorCrossesWire(t *testing.T) {
	server := New()
	defer server.Shutdown()
	ref := server.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	if _, err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = server.IOR(ref.Key)

	client := New()
	defer client.Shutdown()
	_, err := client.Invoke(context.Background(), ref, "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Message != "application failure" {
		t.Fatalf("err = %v, want RemoteError", err)
	}
}

func TestSystemErrorCrossesWire(t *testing.T) {
	server := New()
	defer server.Shutdown()
	ref := server.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	if _, err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = server.IOR(ref.Key)

	client := New()
	defer client.Shutdown()
	_, err := client.Invoke(context.Background(), ref, "system", nil)
	if !IsSystem(err, CodeTransient) {
		t.Fatalf("err = %v, want TRANSIENT", err)
	}
}

func TestObjectNotExist(t *testing.T) {
	o := New()
	defer o.Shutdown()
	ref := NewIOR("IDL:test/Ghost:1.0", "missing", "inproc:"+o.ID())
	_, err := o.Invoke(context.Background(), ref, "echo", nil)
	if !IsSystem(err, CodeObjectNotExist) {
		t.Fatalf("err = %v, want OBJECT_NOT_EXIST", err)
	}
}

func TestBadOperation(t *testing.T) {
	o := New()
	defer o.Shutdown()
	ref := o.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	_, err := o.Invoke(context.Background(), ref, "nonsense", nil)
	if !IsSystem(err, CodeBadOperation) {
		t.Fatalf("err = %v, want BAD_OPERATION", err)
	}
}

func TestNilReference(t *testing.T) {
	o := New()
	defer o.Shutdown()
	_, err := o.Invoke(context.Background(), IOR{}, "echo", nil)
	if !IsSystem(err, CodeObjectNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeactivatedServant(t *testing.T) {
	o := New()
	defer o.Shutdown()
	ref := o.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	o.Deactivate(ref.Key)
	_, err := o.Invoke(context.Background(), ref, "echo", nil)
	if !IsSystem(err, CodeObjectNotExist) {
		t.Fatalf("err = %v", err)
	}
}

// contextOther is a service context ID no servant of this package
// reads: contexts travel whether or not anything understands them.
const contextOther uint32 = 0x4F544852 // "OTHR"

func TestServiceContextPropagation(t *testing.T) {
	server := New()
	defer server.Shutdown()
	server.AddServerInterceptor(func(ctx context.Context, contexts []ServiceContext) (context.Context, error) {
		return context.WithValue(ctx, observedKey{}, len(contexts)), nil
	})
	ref := server.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	if _, err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = server.IOR(ref.Key)

	client := New()
	defer client.Shutdown()
	client.AddClientInterceptor(func(ctx context.Context, _ IOR, _ string) ([]ServiceContext, error) {
		return []ServiceContext{
			{ID: ContextActivity, Data: []byte("activity-ctx")},
			{ID: contextOther, Data: []byte("other-ctx")},
		}, nil
	})
	body, err := client.Invoke(context.Background(), ref, "contexts", nil)
	if err != nil {
		t.Fatal(err)
	}
	d := cdr.NewDecoder(body)
	if n := d.ReadUint32(); n != 2 {
		t.Fatalf("server observed %d contexts, want 2", n)
	}
}

func TestInvocationTimeout(t *testing.T) {
	server := New()
	defer server.Shutdown()
	ref := server.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	if _, err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = server.IOR(ref.Key)

	client := New(WithCallTimeout(30 * time.Millisecond))
	defer client.Shutdown()
	_, err := client.Invoke(context.Background(), ref, "slow", nil)
	if !IsSystem(err, CodeTimeout) {
		t.Fatalf("err = %v, want TIMEOUT", err)
	}
}

func TestConcurrentTCPInvocations(t *testing.T) {
	server := New()
	defer server.Shutdown()
	ref := server.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	if _, err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = server.IOR(ref.Key)

	client := New()
	defer client.Shutdown()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				msg := fmt.Sprintf("w%d-%d", id, i)
				got, err := echoCall(t, client, ref, msg)
				if err != nil {
					t.Errorf("%s: %v", msg, err)
					return
				}
				if got != msg {
					t.Errorf("echo %q = %q: replies crossed", msg, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestServerShutdownFailsInflight(t *testing.T) {
	server := New()
	ref := server.RegisterServant("IDL:test/Echo:1.0", echoServant{})
	if _, err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ref, _ = server.IOR(ref.Key)

	client := New()
	defer client.Shutdown()
	// Prime the connection.
	if _, err := echoCall(t, client, ref, "prime"); err != nil {
		t.Fatal(err)
	}
	server.Shutdown()
	_, err := echoCall(t, client, ref, "after")
	if err == nil {
		t.Fatal("invocation succeeded against a shut-down server")
	}
	var se *SystemError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a system exception", err)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	o := New()
	o.Shutdown()
	o.Shutdown()
	if _, err := o.Invoke(context.Background(), NewIOR("x", "k", "inproc:z"), "op", nil); !IsSystem(err, CodeCommFailure) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewIORNormalizesSchemelessEndpoints(t *testing.T) {
	ref := NewIOR("IDL:test/T:1.0", "k", "127.0.0.1:7411", "tcp:10.0.0.1:7411", "inproc:z", "")
	want := []string{"tcp:127.0.0.1:7411", "tcp:10.0.0.1:7411", "inproc:z"}
	got := ref.Endpoints()
	if len(got) != len(want) {
		t.Fatalf("endpoints = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("endpoints = %v, want %v", got, want)
		}
	}
}

func TestIORStringRoundTrip(t *testing.T) {
	ref := NewIOR("IDL:test/Echo:1.0", "abc123", "tcp:127.0.0.1:9099")
	parsed, err := ParseIOR(ref.String())
	if err != nil {
		t.Fatal(err)
	}
	if !parsed.Equal(ref) {
		t.Fatalf("round trip: %+v != %+v", parsed, ref)
	}
	for _, bad := range []string{"", "IOR:", "nonsense", "IOR:onlyone", "IOR:a|b"} {
		if _, err := ParseIOR(bad); err == nil {
			t.Errorf("ParseIOR(%q) succeeded", bad)
		}
	}
}

func TestIORCDRRoundTrip(t *testing.T) {
	ref := NewIOR("IDL:test/T:1.0", "k1", "inproc:xyz")
	e := cdr.NewEncoder(0)
	ref.Encode(e)
	d := cdr.NewDecoder(e.Bytes())
	got := DecodeIOR(d)
	if d.Err() != nil || !got.Equal(ref) {
		t.Fatalf("got %+v err %v", got, d.Err())
	}
}

func TestMessageRoundTrip(t *testing.T) {
	req := request{
		requestID: 42,
		objectKey: "key-1",
		operation: "do_it",
		contexts:  []ServiceContext{{ID: 7, Data: []byte("ctx")}},
		body:      []byte{1, 2, 3},
	}
	got, err := decodeRequest(encodeRequestFrame(req).FramePayload())
	if err != nil {
		t.Fatal(err)
	}
	if got.requestID != 42 || got.objectKey != "key-1" || got.operation != "do_it" ||
		len(got.contexts) != 1 || string(got.contexts[0].Data) != "ctx" || len(got.body) != 3 {
		t.Fatalf("request round trip: %+v", got)
	}

	rep := reply{requestID: 42, status: replyOK, body: []byte("result")}
	gotRep, err := decodeReply(encodeReplyFrame(rep).FramePayload())
	if err != nil {
		t.Fatal(err)
	}
	if gotRep.requestID != 42 || string(gotRep.body) != "result" {
		t.Fatalf("reply round trip: %+v", gotRep)
	}

	erep := reply{requestID: 7, status: replySystemErr, errCode: "TRANSIENT", errDetail: "busy"}
	gotErep, err := decodeReply(encodeReplyFrame(erep).FramePayload())
	if err != nil {
		t.Fatal(err)
	}
	if gotErep.errCode != "TRANSIENT" || gotErep.errDetail != "busy" {
		t.Fatalf("error reply round trip: %+v", gotErep)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeRequest([]byte("XXXXjunkjunkjunk")); err == nil {
		t.Fatal("bad magic accepted")
	}
	req := encodeRequestFrame(request{requestID: 1, objectKey: "k", operation: "op"}).FramePayload()
	req[4] = 99 // version
	if _, err := decodeRequest(req); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := decodeReply(encodeRequestFrame(request{requestID: 1}).FramePayload()); err == nil {
		t.Fatal("request decoded as reply")
	}
}

// hostileContextFrame is a request payload whose service-context count
// (0xFFFFFFFF) claims far more contexts than the bytes that follow it.
func hostileContextFrame() []byte {
	e := cdr.NewEncoder(64)
	e.WriteRaw(protocolMagic[:])
	e.WriteOctet(protocolVersion)
	e.WriteOctet(msgRequest)
	e.WriteUint16(0)
	e.WriteUint64(1)
	e.WriteString("k")
	e.WriteString("op")
	e.WriteUint32(0xFFFFFFFF)
	e.WriteBytes([]byte("abc"))
	return e.Bytes()
}

// TestDecodeRejectsHostileContextCount: a context count the frame cannot
// hold fails the decode with MARSHAL, instead of the request being
// dispatched with its contexts silently dropped.
func TestDecodeRejectsHostileContextCount(t *testing.T) {
	r, err := decodeRequest(hostileContextFrame())
	if !IsSystem(err, CodeMarshal) {
		t.Fatalf("decodeRequest = %+v, %v; want MARSHAL", r, err)
	}
}

func TestEndpointHost(t *testing.T) {
	if got := endpointHost("tcp:1.2.3.4:99"); got != "1.2.3.4:99" {
		t.Fatalf("endpointHost = %q", got)
	}
}
