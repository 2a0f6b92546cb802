package orb

import (
	"strings"
	"testing"

	"github.com/extendedtx/activityservice/internal/cdr"
)

// FuzzParseIOR throws strings at the stringified-reference parser — seeded
// with single- and multi-profile references and near-misses — and requires
// every accepted reference to survive two round trips exactly:
// re-stringify→re-parse, and CDR encode→decode. Rejections are fine;
// panics, hangs, and lossy round trips are not.
func FuzzParseIOR(f *testing.F) {
	// Single-profile references (the one-element case).
	f.Add("IOR:tcp:10.1.2.3:7411|IDL:ActivityService/Action:1.0|act-42")
	f.Add("IOR:inproc:orb-7|IDL:GLOP/NameService:1.0|naming")
	// Multi-profile references.
	f.Add("IOR:tcp:a:1,tcp:b:2|IDL:T:1.0|k")
	f.Add("IOR:tcp:h1:9,tcp:h2:9,tcp:h3:9|IDL:CosTransactions/Resource:1.0|res/1")
	// Near-misses the parser must reject without panicking.
	f.Add("IOR:")
	f.Add("IOR:|t|k")
	f.Add("IOR:a|b")
	f.Add("IOR:tcp:a:1,|t|k")
	f.Add("IOR:,tcp:a:1|t|k")
	f.Add("IOR9:tcp:a:1,tcp:b:2|t|k") // any prefix but "IOR:"
	f.Add("garbage")
	f.Fuzz(func(t *testing.T, s string) {
		ref, err := ParseIOR(s)
		if err != nil {
			return
		}
		// String round trip: parse(stringify(ref)) == ref.
		again, err := ParseIOR(ref.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", ref.String(), s, err)
		}
		if !again.Equal(ref) {
			t.Fatalf("string round trip lossy:\n in: %+v\nout: %+v", ref, again)
		}
		// CDR round trip: decode(encode(ref)) == ref, including when the
		// reference sits mid-stream.
		e := cdr.NewEncoder(64)
		ref.Encode(e)
		got := DecodeIOR(cdr.NewDecoder(e.Bytes()))
		if !got.Equal(ref) {
			t.Fatalf("CDR round trip lossy:\n in: %+v\nout: %+v", ref, got)
		}
		// One form: every accepted reference stringifies under "IOR:".
		if !strings.HasPrefix(ref.String(), "IOR:") {
			t.Fatalf("reference stringified to %q, want the IOR: form", ref.String())
		}
	})
}

// FuzzDecodeIOR throws arbitrary bytes at the CDR reference decoder: it
// may reject them (sticky decoder error), but must never panic, and
// whatever it accepts must re-encode and decode to the same reference.
func FuzzDecodeIOR(f *testing.F) {
	seed := func(r IOR) {
		e := cdr.NewEncoder(64)
		r.Encode(e)
		f.Add(e.Bytes())
	}
	seed(NewIOR("IDL:T:1.0", "k", "tcp:a:1"))
	seed(NewIOR("IDL:T:1.0", "k", "tcp:a:1", "tcp:b:2"))
	seed(IOR{TypeID: "IDL:T:1.0", Key: "k"}) // no profiles
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})                                                    // huge TypeID length
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff})    // huge profile count
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0}) // one empty endpoint
	f.Fuzz(func(t *testing.T, data []byte) {
		d := cdr.NewDecoder(data)
		ref := DecodeIOR(d)
		if d.Err() != nil {
			return
		}
		e := cdr.NewEncoder(64)
		ref.Encode(e)
		got := DecodeIOR(cdr.NewDecoder(e.Bytes()))
		if !got.Equal(ref) {
			t.Fatalf("accepted reference not canonical:\n in: %+v\nout: %+v", ref, got)
		}
	})
}
