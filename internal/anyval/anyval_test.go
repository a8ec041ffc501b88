package anyval

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"eternal/internal/cdr"
)

func roundTrip(t *testing.T, a Any) Any {
	t.Helper()
	raw, err := a.MarshalBytes()
	if err != nil {
		t.Fatalf("marshal %v: %v", a.Type.Kind, err)
	}
	got, err := UnmarshalBytes(raw)
	if err != nil {
		t.Fatalf("unmarshal %v: %v", a.Type.Kind, err)
	}
	return got
}

func TestPrimitiveRoundTrips(t *testing.T) {
	cases := []Any{
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
	}
	for _, a := range cases {
		got := roundTrip(t, a)
		if !got.Type.Equal(a.Type) {
			t.Errorf("%v: type changed to %v", a.Type.Kind, got.Type.Kind)
		}
		if got.Value != a.Value {
			t.Errorf("%v: value = %v, want %v", a.Type.Kind, got.Value, a.Value)
		}
	}
}

func TestNullRoundTrip(t *testing.T) {
	got := roundTrip(t, Null())
	if !got.IsNull() {
		t.Fatalf("got %+v, want null", got)
	}
}

func TestOctetSeqRoundTrip(t *testing.T) {
	state := []byte{1, 2, 3, 0, 255, 42}
	a := FromBytes(state)
	got := roundTrip(t, a)
	b, err := got.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, state) {
		t.Fatalf("bytes = % x", b)
	}
}

func TestFromBytesCopies(t *testing.T) {
	src := []byte{1, 2, 3}
	a := FromBytes(src)
	src[0] = 99
	b, _ := a.Bytes()
	if b[0] != 1 {
		t.Fatal("FromBytes must copy its input")
	}
}

func TestBytesTypeMismatch(t *testing.T) {
	if _, err := FromLong(1).Bytes(); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestSequenceOfLongs(t *testing.T) {
	a := Any{Type: SequenceOf(TCLong), Value: []any{int32(1), int32(-2), int32(3)}}
	got := roundTrip(t, a)
	xs, ok := got.Value.([]any)
	if !ok || len(xs) != 3 {
		t.Fatalf("value = %#v", got.Value)
	}
	if xs[1] != int32(-2) {
		t.Errorf("xs[1] = %v", xs[1])
	}
}

func TestStructRoundTrip(t *testing.T) {
	tc := StructOf("IDL:Bank/AccountState:1.0", "AccountState",
		Field{Name: "owner", Type: TCString},
		Field{Name: "balance", Type: TCLongLong},
		Field{Name: "frozen", Type: TCBoolean},
		Field{Name: "history", Type: TCOctetSeq},
	)
	a := Any{Type: tc, Value: []any{"alice", int64(1234567), false, []byte{9, 9}}}
	got := roundTrip(t, a)
	if !got.Type.Equal(tc) {
		t.Fatalf("type = %+v", got.Type)
	}
	xs := got.Value.([]any)
	if xs[0] != "alice" || xs[1] != int64(1234567) || xs[2] != false {
		t.Errorf("fields = %#v", xs)
	}
	if !bytes.Equal(xs[3].([]byte), []byte{9, 9}) {
		t.Errorf("history = %#v", xs[3])
	}
}

func TestNestedSequenceOfStruct(t *testing.T) {
	entry := StructOf("IDL:E:1.0", "E", Field{Name: "k", Type: TCString}, Field{Name: "v", Type: TCLong})
	tc := SequenceOf(entry)
	a := Any{Type: tc, Value: []any{
		[]any{"x", int32(1)},
		[]any{"y", int32(2)},
	}}
	got := roundTrip(t, a)
	xs := got.Value.([]any)
	if len(xs) != 2 || xs[1].([]any)[0] != "y" {
		t.Fatalf("value = %#v", got.Value)
	}
}

// A sequence of values that encode to nothing is refused both ways: the
// decoder used to accept three nulls followed by three spare bytes, and
// then refuse the same value's own encoding, which has no spare bytes.
func TestSequenceOfEmptyElementsRefused(t *testing.T) {
	empty := StructOf("IDL:Empty:1.0", "Empty", Field{Name: "n", Type: TCNull})
	for _, elem := range []*TypeCode{TCNull, TCVoid, empty} {
		a := Any{Type: SequenceOf(elem), Value: []any{nil, nil, nil}}
		if elem == empty {
			a.Value = []any{[]any{nil}}
		}
		if _, err := a.MarshalBytes(); !errors.Is(err, ErrEmptyElements) {
			t.Errorf("marshal sequence<%v>: err = %v, want ErrEmptyElements", elem.Kind, err)
		}
		if got := roundTrip(t, Any{Type: SequenceOf(elem), Value: []any{}}); len(got.Value.([]any)) != 0 {
			t.Errorf("empty sequence<%v> came back as %v", elem.Kind, got.Value)
		}
	}
	found := []byte("\x00\x00\x00\x13\x00\x00\x00\f0000\x00\x00\x00\x000000\x00\x00\x00\x03000")
	if _, err := UnmarshalBytes(found); !errors.Is(err, ErrEmptyElements) {
		t.Fatalf("unmarshal three nulls: err = %v, want ErrEmptyElements", err)
	}
}

func TestTypeMismatchOnMarshal(t *testing.T) {
	a := Any{Type: TCLong, Value: "not a long"}
	if _, err := a.MarshalBytes(); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
	b := Any{Type: StructOf("id", "n", Field{Name: "f", Type: TCLong}), Value: []any{}}
	if _, err := b.MarshalBytes(); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("struct arity err = %v", err)
	}
}

func TestTypeCodeEqual(t *testing.T) {
	if !TCOctetSeq.Equal(SequenceOf(TCOctet)) {
		t.Error("octet seq should equal itself")
	}
	if TCOctetSeq.Equal(SequenceOf(TCLong)) {
		t.Error("different element types must differ")
	}
	s1 := StructOf("id", "n", Field{Name: "a", Type: TCLong})
	s2 := StructOf("id", "n", Field{Name: "a", Type: TCLong})
	s3 := StructOf("id2", "n", Field{Name: "a", Type: TCLong})
	if !s1.Equal(s2) || s1.Equal(s3) {
		t.Error("struct equality broken")
	}
	if TCLong.Equal(nil) {
		t.Error("nil inequality broken")
	}
}

func TestUnsupportedKind(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteULong(9999)
	if _, err := UnmarshalBytes(e.Bytes()); !errors.Is(err, ErrUnsupportedKind) {
		t.Fatalf("err = %v", err)
	}
}

// Property: sequence<octet> Anys of arbitrary size round-trip exactly.
func TestQuickOctetSeqRoundTrip(t *testing.T) {
	f := func(b []byte) bool {
		raw, err := FromBytes(b).MarshalBytes()
		if err != nil {
			return false
		}
		got, err := UnmarshalBytes(raw)
		if err != nil {
			return false
		}
		out, err := got.Bytes()
		return err == nil && bytes.Equal(out, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: UnmarshalBytes never panics on arbitrary input.
func TestQuickUnmarshalRobust(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = UnmarshalBytes(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
