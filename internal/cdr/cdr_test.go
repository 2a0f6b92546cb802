package cdr

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.WriteOctet(0xAB)
	e.WriteBool(true)
	e.WriteBool(false)
	e.WriteUint16(0xBEEF)
	e.WriteUint32(0xDEADBEEF)
	e.WriteUint64(0x0123456789ABCDEF)
	e.WriteInt32(-42)
	e.WriteInt64(-1 << 60)
	e.WriteFloat64(math.Pi)
	e.WriteString("hello")
	e.WriteBytes([]byte{1, 2, 3})

	d := NewDecoder(e.Bytes())
	if got := d.ReadOctet(); got != 0xAB {
		t.Errorf("octet = %#x", got)
	}
	if !d.ReadBool() || d.ReadBool() {
		t.Error("bool round trip failed")
	}
	if got := d.ReadUint16(); got != 0xBEEF {
		t.Errorf("u16 = %#x", got)
	}
	if got := d.ReadUint32(); got != 0xDEADBEEF {
		t.Errorf("u32 = %#x", got)
	}
	if got := d.ReadUint64(); got != 0x0123456789ABCDEF {
		t.Errorf("u64 = %#x", got)
	}
	if got := d.ReadInt32(); got != -42 {
		t.Errorf("i32 = %d", got)
	}
	if got := d.ReadInt64(); got != -1<<60 {
		t.Errorf("i64 = %d", got)
	}
	if got := d.ReadFloat64(); got != math.Pi {
		t.Errorf("f64 = %g", got)
	}
	if got := d.ReadString(); got != "hello" {
		t.Errorf("string = %q", got)
	}
	if got := d.ReadBytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("bytes = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("decode error: %v", err)
	}
	if d.Remaining() != 0 {
		t.Fatalf("remaining = %d", d.Remaining())
	}
}

func TestAlignment(t *testing.T) {
	e := NewEncoder(0)
	e.WriteOctet(1) // offset 1
	e.WriteUint32(7)
	if e.Len() != 8 { // 1 byte + 3 pad + 4
		t.Fatalf("len = %d, want 8", e.Len())
	}
	e.WriteOctet(2) // offset 9
	e.WriteUint64(9)
	if e.Len() != 24 { // 9 + 7 pad + 8
		t.Fatalf("len = %d, want 24", e.Len())
	}
	d := NewDecoder(e.Bytes())
	if d.ReadOctet() != 1 || d.ReadUint32() != 7 || d.ReadOctet() != 2 || d.ReadUint64() != 9 {
		t.Fatal("aligned round trip failed")
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
}

func TestEmptyStringRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.WriteString("")
	d := NewDecoder(e.Bytes())
	if got := d.ReadString(); got != "" || d.Err() != nil {
		t.Fatalf("got %q err %v", got, d.Err())
	}
}

func TestEmptyBytesRoundTrip(t *testing.T) {
	e := NewEncoder(0)
	e.WriteBytes(nil)
	d := NewDecoder(e.Bytes())
	if got := d.ReadBytes(); len(got) != 0 || d.Err() != nil {
		t.Fatalf("got %v err %v", got, d.Err())
	}
}

func TestTruncatedStreamsFail(t *testing.T) {
	e := NewEncoder(0)
	e.WriteUint64(12345)
	e.WriteString("payload")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.ReadUint64()
		d.ReadString()
		if d.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestStickyError(t *testing.T) {
	d := NewDecoder(nil)
	_ = d.ReadUint32()
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	_ = d.ReadString()
	if !errors.Is(d.Err(), ErrTruncated) {
		t.Fatalf("err = %v", d.Err())
	}
	if d.Err() != first {
		t.Fatal("error was overwritten")
	}
}

func TestHugeLengthRejected(t *testing.T) {
	e := NewEncoder(0)
	e.WriteUint32(0xFFFFFFFF) // absurd string length
	d := NewDecoder(e.Bytes())
	_ = d.ReadString()
	if !errors.Is(d.Err(), ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", d.Err())
	}
}

// TestReadCountBound: a count the remaining bytes can hold at the stated
// per-element minimum is returned; one more fails the decoder with
// ErrTooLong and returns 0.
func TestReadCountBound(t *testing.T) {
	for _, tc := range []struct {
		count, minBytes int
		ok              bool
	}{
		{count: 0, minBytes: 5, ok: true},
		{count: 4, minBytes: 5, ok: true},
		{count: 5, minBytes: 5, ok: false},
		{count: 20, minBytes: 1, ok: true},
		{count: 21, minBytes: 1, ok: false},
	} {
		e := NewEncoder(0)
		e.WriteUint32(uint32(tc.count))
		e.WriteRaw(make([]byte, 20))
		d := NewDecoder(e.Bytes())
		n := d.ReadCount(tc.minBytes)
		if tc.ok && (n != tc.count || d.Err() != nil) {
			t.Fatalf("ReadCount(%d) of %d = %d, %v; want accepted", tc.minBytes, tc.count, n, d.Err())
		}
		if !tc.ok && (n != 0 || !errors.Is(d.Err(), ErrTooLong)) {
			t.Fatalf("ReadCount(%d) of %d = %d, %v; want ErrTooLong", tc.minBytes, tc.count, n, d.Err())
		}
	}
}

func TestStringMissingNUL(t *testing.T) {
	e := NewEncoder(0)
	e.WriteUint32(3)
	e.WriteRaw([]byte{'a', 'b', 'c'}) // no NUL
	d := NewDecoder(e.Bytes())
	_ = d.ReadString()
	if !errors.Is(d.Err(), ErrBadString) {
		t.Fatalf("err = %v, want ErrBadString", d.Err())
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string, pre uint8) bool {
		e := NewEncoder(0)
		// random leading bytes force interesting alignment
		for i := 0; i < int(pre%8); i++ {
			e.WriteOctet(0xFF)
		}
		e.WriteString(s)
		d := NewDecoder(e.Bytes())
		for i := 0; i < int(pre%8); i++ {
			d.ReadOctet()
		}
		return d.ReadString() == s && d.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNumericRoundTrip(t *testing.T) {
	f := func(a int64, b uint64, c float64, d32 int32) bool {
		e := NewEncoder(0)
		e.WriteInt64(a)
		e.WriteUint64(b)
		e.WriteFloat64(c)
		e.WriteInt32(d32)
		dec := NewDecoder(e.Bytes())
		okF := dec.ReadInt64() == a && dec.ReadUint64() == b
		f2 := dec.ReadFloat64()
		okF = okF && (f2 == c || (math.IsNaN(f2) && math.IsNaN(c)))
		okF = okF && dec.ReadInt32() == d32
		return okF && dec.Err() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(0)
	e.WriteUint64(1)
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("len after reset = %d", e.Len())
	}
	e.WriteOctet(9)
	if e.Len() != 1 || e.Bytes()[0] != 9 {
		t.Fatal("encoder unusable after reset")
	}
}

// buildStream writes one of everything through e.
func buildStream(e *Encoder) {
	e.WriteOctet(7)
	e.WriteUint16(0xBEEF)
	e.WriteUint32(0xDEADBEEF)
	e.WriteUint64(1 << 40)
	e.WriteString("frame me")
	e.WriteBytes([]byte{1, 2, 3, 4, 5})
	e.WriteFloat64(3.5)
}

// TestFrameAssemblyMatchesEncodeThenCopy pins the in-place framing
// contract: BeginFrame/Frame must produce byte-for-byte the same wire
// frame as the historic encode-into-own-buffer-then-prefix path, for
// every alignment-sensitive write. This is what "wire format unchanged"
// rests on.
func TestFrameAssemblyMatchesEncodeThenCopy(t *testing.T) {
	legacy := NewEncoder(0)
	buildStream(legacy)
	want := make([]byte, 4+legacy.Len())
	want[0] = byte(uint32(legacy.Len()) >> 24)
	want[1] = byte(uint32(legacy.Len()) >> 16)
	want[2] = byte(uint32(legacy.Len()) >> 8)
	want[3] = byte(uint32(legacy.Len()))
	copy(want[4:], legacy.Bytes())

	framed := NewEncoder(0)
	framed.BeginFrame()
	buildStream(framed)
	got := framed.Frame()
	if !bytes.Equal(got, want) {
		t.Fatalf("framed bytes differ from encode-then-copy:\n got %x\nwant %x", got, want)
	}
	if !bytes.Equal(framed.FramePayload(), legacy.Bytes()) {
		t.Fatalf("FramePayload differs from legacy payload")
	}
	if framed.Len() != legacy.Len() {
		t.Fatalf("Len = %d, want %d", framed.Len(), legacy.Len())
	}
}

// TestEncoderPoolReuse pins the pooled-encoder lifecycle: a released
// encoder comes back Reset (frame state included) and oversized encoders
// are dropped rather than pooled.
func TestEncoderPoolReuse(t *testing.T) {
	e := GetEncoder()
	e.BeginFrame()
	e.WriteString("first use")
	_ = e.Frame()
	PutEncoder(e)

	e2 := GetEncoder()
	if e2.Len() != 0 {
		t.Fatalf("pooled encoder not reset: len %d", e2.Len())
	}
	e2.BeginFrame()
	e2.WriteUint32(99)
	frame := e2.Frame()
	if len(frame) != 8 { // 4-byte prefix + one u32 at payload offset 0
		t.Fatalf("reused encoder produced %d-byte frame, want 8", len(frame))
	}
	PutEncoder(e2)

	big := GetEncoder()
	big.BeginFrame()
	big.WriteRaw(make([]byte, maxPooledEncoderBytes+1))
	PutEncoder(big) // must drop, not pool
	next := GetEncoder()
	if cap(next.buf) > maxPooledEncoderBytes {
		t.Fatalf("oversized encoder buffer (cap %d) survived in the pool", cap(next.buf))
	}
	PutEncoder(next)
}

// TestReadBytesAliasesAndCloneOwns pins the decoder's lending contract:
// ReadBytes aliases the stream (mutating the buffer mutates the slice —
// what pooled frame reuse does for real), Clone and ReadBytesClone
// detach, and ReadString is always an owned copy.
func TestReadBytesAliasesAndCloneOwns(t *testing.T) {
	e := NewEncoder(0)
	e.WriteBytes([]byte("payload"))
	e.WriteBytes([]byte("second"))
	e.WriteString("stringy")
	buf := append([]byte(nil), e.Bytes()...)

	d := NewDecoder(buf)
	lent := d.ReadBytes()
	owned := d.ReadBytesClone()
	s := d.ReadString()
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	if string(lent) != "payload" || string(owned) != "second" || s != "stringy" {
		t.Fatalf("decoded %q %q %q", lent, owned, s)
	}
	cloned := Clone(lent)

	// Simulate frame-buffer reuse: overwrite the stream.
	for i := range buf {
		buf[i] = 0xFF
	}
	if string(lent) == "payload" {
		t.Fatal("ReadBytes result did not alias the stream (contract says it is lent)")
	}
	if string(cloned) != "payload" {
		t.Fatalf("Clone mutated with the stream: %q", cloned)
	}
	if string(owned) != "second" {
		t.Fatalf("ReadBytesClone mutated with the stream: %q", owned)
	}
	if Clone(nil) != nil || Clone([]byte{}) != nil {
		t.Fatal("Clone of empty input must be nil")
	}
}

// TestDecoderReset pins Reset: it clears the sticky error and re-points
// the decoder, which is what the pooled decoders rely on.
func TestDecoderReset(t *testing.T) {
	d := NewDecoder([]byte{1})
	d.ReadUint64() // truncated: sticky error
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
	d.Reset([]byte{0, 0, 0, 5})
	if d.Err() != nil {
		t.Fatalf("Reset kept error: %v", d.Err())
	}
	if got := d.ReadUint32(); got != 5 || d.Err() != nil {
		t.Fatalf("ReadUint32 after Reset = %d, err %v", got, d.Err())
	}
	pd := GetDecoder([]byte{9})
	if got := pd.ReadOctet(); got != 9 {
		t.Fatalf("pooled decoder read %d, want 9", got)
	}
	PutDecoder(pd)
}
