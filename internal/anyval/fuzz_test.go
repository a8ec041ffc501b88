package anyval

import (
	"bytes"
	"runtime"
	"testing"
)

// allocated reports the bytes f allocated (and whatever the test runtime
// allocated beside it: the bound below leaves room).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is "a small multiple of the input".
func allocBound(input int) uint64 { return 64<<10 + 16*uint64(input) }

// FuzzUnmarshalAny feeds UnmarshalBytes what a set_state hands a replica:
// an application state some other member's get_state produced. It must
// never panic, never allocate more than a small multiple of the input
// (64 KiB + 16× the input), and whatever it accepts must re-encode to bytes
// that decode to the same type and re-encode to themselves — one value,
// one spelling.
func FuzzUnmarshalAny(f *testing.F) {
	entry := StructOf("IDL:E:1.0", "E", Field{Name: "k", Type: TCString}, Field{Name: "v", Type: TCLong})
	for _, a := range []Any{
		Null(),
		{Type: TCVoid},
		FromLong(-42),
		FromLongLong(1 << 60),
		FromDouble(3.25),
		FromBoolean(true),
		FromString("state of the object"),
		{Type: TCShort, Value: int16(-7)},
		{Type: TCUShort, Value: uint16(9)},
		{Type: TCULong, Value: uint32(0xFFFFFFFF)},
		{Type: TCFloat, Value: float32(1.5)},
		{Type: TCOctet, Value: byte(0xAB)},
		{Type: TCChar, Value: byte('x')},
		FromBytes([]byte("opaque application state")),
		{Type: SequenceOf(TCLong), Value: []any{int32(1), int32(-2), int32(3)}},
		{Type: StructOf("IDL:Bank/AccountState:1.0", "AccountState",
			Field{Name: "owner", Type: TCString},
			Field{Name: "balance", Type: TCLongLong},
			Field{Name: "frozen", Type: TCBoolean},
			Field{Name: "history", Type: TCOctetSeq},
		), Value: []any{"alice", int64(1234567), false, []byte{9, 9}}},
		{Type: SequenceOf(entry), Value: []any{[]any{"x", int32(1)}, []any{"y", int32(2)}}},
	} {
		buf, err := a.MarshalBytes()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		var a Any
		var err error
		if grew := allocated(func() { a, err = UnmarshalBytes(buf) }); grew > allocBound(len(buf)) {
			t.Fatalf("decoding %d bytes allocated %d", len(buf), grew)
		}
		if err != nil {
			return
		}
		enc, err := a.MarshalBytes()
		if err != nil {
			t.Fatalf("accepted %v value does not re-encode: %v", a.Type.Kind, err)
		}
		again, err := UnmarshalBytes(enc)
		if err != nil {
			t.Fatalf("re-encoded %v value does not decode: %v", a.Type.Kind, err)
		}
		if !again.Type.Equal(a.Type) {
			t.Fatalf("type %+v came back as %+v", a.Type, again.Type)
		}
		if enc2, err := again.MarshalBytes(); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("value re-encodes to %x, then to %x (%v)", enc, enc2, err)
		}
	})
}
