package cdr

import (
	"errors"
	"fmt"
	"sort"
)

// TypeCode tags the dynamic type of an encoded any value.
type TypeCode byte

// Type codes for the any encoding.
const (
	TCNull TypeCode = iota + 1
	TCBool
	TCInt64
	TCDouble
	TCString
	TCBytes
	TCSeq
	TCMap
)

// ErrUnsupportedAny reports a Go value outside the any-codable set.
var ErrUnsupportedAny = errors.New("cdr: unsupported type for any encoding")

// ErrBadTypeCode reports an unknown type tag in the stream.
var ErrBadTypeCode = errors.New("cdr: unknown any type code")

// maxAnyDepth bounds nesting so corrupt streams cannot recurse unboundedly.
const maxAnyDepth = 64

// EncodeAny appends a tagged encoding of v. The codable set mirrors what a
// CORBA any carries in the paper's protocols:
//
//	nil, bool, int, int32, int64, float64, string, []byte,
//	[]any (elements codable), map[string]any (values codable).
//
// Integers widen to int64 on the wire; decode always yields int64.
func EncodeAny(e *Encoder, v any) error {
	return encodeAny(e, v, 0)
}

func encodeAny(e *Encoder, v any, depth int) error {
	if depth > maxAnyDepth {
		return fmt.Errorf("%w: nesting deeper than %d", ErrUnsupportedAny, maxAnyDepth)
	}
	switch x := v.(type) {
	case nil:
		e.WriteOctet(byte(TCNull))
	case bool:
		e.WriteOctet(byte(TCBool))
		e.WriteBool(x)
	case int:
		e.WriteOctet(byte(TCInt64))
		e.WriteInt64(int64(x))
	case int32:
		e.WriteOctet(byte(TCInt64))
		e.WriteInt64(int64(x))
	case int64:
		e.WriteOctet(byte(TCInt64))
		e.WriteInt64(x)
	case float64:
		e.WriteOctet(byte(TCDouble))
		e.WriteFloat64(x)
	case string:
		e.WriteOctet(byte(TCString))
		e.WriteString(x)
	case []byte:
		e.WriteOctet(byte(TCBytes))
		e.WriteBytes(x)
	case []any:
		e.WriteOctet(byte(TCSeq))
		e.WriteUint32(uint32(len(x)))
		for _, el := range x {
			if err := encodeAny(e, el, depth+1); err != nil {
				return err
			}
		}
	case map[string]any:
		e.WriteOctet(byte(TCMap))
		e.WriteUint32(uint32(len(x)))
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys) // deterministic wire form
		for _, k := range keys {
			e.WriteString(k)
			if err := encodeAny(e, x[k], depth+1); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%w: %T", ErrUnsupportedAny, v)
	}
	return nil
}

// DecodeAny reads a value written by EncodeAny. Every decoded value is an
// owned copy — []byte values are Cloned off the stream rather than lent —
// because any-values escape into long-lived structures (signal payloads,
// property groups) that outlive the frame they arrived in.
func DecodeAny(d *Decoder) (any, error) {
	v := decodeAny(d, 0)
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

func decodeAny(d *Decoder, depth int) any {
	if d.err != nil {
		return nil
	}
	if depth > maxAnyDepth {
		d.fail(fmt.Errorf("%w: nesting deeper than %d", ErrBadTypeCode, maxAnyDepth))
		return nil
	}
	tc := TypeCode(d.ReadOctet())
	if d.err != nil {
		return nil
	}
	switch tc {
	case TCNull:
		return nil
	case TCBool:
		return d.ReadBool()
	case TCInt64:
		return d.ReadInt64()
	case TCDouble:
		return d.ReadFloat64()
	case TCString:
		return d.ReadString()
	case TCBytes:
		b := d.ReadBytesClone()
		if b == nil && d.err == nil {
			b = []byte{} // preserve empty-vs-nil across a round trip
		}
		return b
	case TCSeq:
		n := d.ReadCount(1)
		if d.err != nil {
			return nil
		}
		seq := make([]any, 0, n)
		for i := 0; i < n; i++ {
			seq = append(seq, decodeAny(d, depth+1))
			if d.err != nil {
				return nil
			}
		}
		return seq
	case TCMap:
		n := d.ReadCount(1)
		if d.err != nil {
			return nil
		}
		m := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k := d.ReadString()
			v := decodeAny(d, depth+1)
			if d.err != nil {
				return nil
			}
			m[k] = v
		}
		return m
	default:
		d.fail(fmt.Errorf("%w: 0x%02x", ErrBadTypeCode, byte(tc)))
		return nil
	}
}

// MarshalAny encodes v as a standalone byte slice. The result is an
// owned copy, free of any encoder buffer.
func MarshalAny(v any) ([]byte, error) {
	e := NewEncoder(64)
	if err := EncodeAny(e, v); err != nil {
		return nil, err
	}
	out := make([]byte, e.Len())
	copy(out, e.Bytes())
	return out, nil
}

// UnmarshalAny decodes a standalone byte slice produced by MarshalAny.
func UnmarshalAny(b []byte) (any, error) {
	return DecodeAny(NewDecoder(b))
}
