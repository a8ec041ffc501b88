package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

var errBad = errors.New("bad message")

func TestRoundTrip(t *testing.T) {
	b := binary.AppendUvarint(nil, math.MaxUint64)
	b = binary.AppendUvarint(b, math.MaxUint32)
	b = AppendBytes(AppendBytes(b, "name"), []byte{})
	b = AppendStrings(append(b, 0xAA, 0xBB), []string{"a", "", "bc"})
	r := NewReader(b)
	if v := r.U64(); v != math.MaxUint64 {
		t.Fatalf("U64 = %d", v)
	}
	if v := r.U32(); v != math.MaxUint32 {
		t.Fatalf("U32 = %d", v)
	}
	if s, e, raw := r.Str(), r.Bytes(), r.Take(2); s != "name" || len(e) != 0 || !bytes.Equal(raw, []byte{0xAA, 0xBB}) {
		t.Fatalf("Str, Bytes, Take = %q, %x, %x", s, e, raw)
	}
	if ss := r.Strs(); len(ss) != 3 || ss[0] != "a" || ss[1] != "" || ss[2] != "bc" {
		t.Fatalf("Strs = %q", ss)
	}
	if err := r.Done(errBad); err != nil {
		t.Fatal(err)
	}
}

// TestReaderIsStrict: each rule refuses its input, Done wraps the caller's
// error, and the first error sticks.
func TestReaderIsStrict(t *testing.T) {
	u64 := func(r *Reader) { r.U64() }
	for _, tc := range []struct {
		name string
		in   []byte
		read func(r *Reader)
	}{
		{"empty", nil, u64},
		{"eleven-byte varint", append(bytes.Repeat([]byte{0xff}, 10), 1), u64},
		{"varint past 64 bits", append(bytes.Repeat([]byte{0xff}, 9), 2), u64},
		{"varint with a spare zero byte", []byte{0x81, 0x00}, u64},
		{"past 32 bits", binary.AppendUvarint(nil, 1<<32), func(r *Reader) { r.U32() }},
		{"length unbacked", []byte{2, 'x'}, func(r *Reader) { r.Bytes() }},
		{"count unbacked", []byte{2, 1, 1, 1}, func(r *Reader) { r.Count(2) }},
		{"trailing byte", []byte{1, 0}, u64},
		{"caller's own rule", []byte{0}, func(r *Reader) { r.U64(); r.Fail(errors.New("zero not allowed here")) }},
	} {
		r := NewReader(tc.in)
		tc.read(&r)
		if err := r.Done(errBad); !errors.Is(err, errBad) {
			t.Errorf("%s: Done = %v, want errBad", tc.name, err)
		}
	}
	r := NewReader([]byte{0x81, 0x00, 5})
	if r.U64(); r.Err() == nil || r.U64() != 0 || r.Take(0) != nil {
		t.Fatal("a read after an error returned something")
	}
}
