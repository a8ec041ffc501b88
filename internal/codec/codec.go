// Package codec is the one byte layout Eternal uses for what it puts on its
// own ring and CORBA does not define: Totem's packets, the replication
// envelope, and what envelopes carry — the state bundle, the transfer
// manifest and retransmit list, the duplicate filter, the group spec and
// table. Integers are uvarints; strings and byte runs are a uvarint length
// and the bytes; a list is a uvarint count and its elements. Nothing is
// aligned, padded or terminated. Where CORBA defines the bytes (GIOP, IORs,
// `any` and the application state inside it) they stay CDR.
//
// Decoding is strict, so that an accepted message is the one encoding of its
// value and a short hostile one sizes no allocation: a Reader takes only the
// shortest spelling of each uvarint, believes a length or count only as far
// as the bytes behind it go, and at Done refuses trailing bytes.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// AppendBytes appends a length-prefixed string or byte run.
func AppendBytes[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// AppendStrings appends a count and that many length-prefixed strings.
func AppendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = AppendBytes(b, s)
	}
	return b
}

// The reasons a Reader refuses its input. They carry no values: a decode
// error reads the same however long the message that caused it.
var (
	errShort    = errors.New("truncated")
	errVarint   = errors.New("malformed varint")
	errUint32   = errors.New("value overflows 32 bits")
	errCount    = errors.New("count exceeds the bytes that follow")
	errTrailing = errors.New("trailing bytes")
)

// Reader reads fields off one message until the first error, which sticks:
// every later read returns zero, and Done reports the error once.
type Reader struct {
	b   []byte
	err error
}

// NewReader reads b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// U64 reads a uvarint of at most ten bytes and none spare (0x80 0x00 is not
// a second way to write 0).
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	switch {
	case n == 0:
		r.err = errShort
	case n < 0 || (n > 1 && r.b[n-1] == 0):
		r.err = errVarint
	default:
		r.b = r.b[n:]
		return v
	}
	return 0
}

// U32 reads a uvarint that must fit 32 bits.
func (r *Reader) U32() uint32 {
	v := r.U64()
	if v > math.MaxUint32 {
		r.Fail(errUint32)
		return 0
	}
	return uint32(v)
}

// Take reads n bytes. The result aliases the message (no copy): a caller
// that keeps it past the message's lifetime, or lets it be written, clones
// it.
func (r *Reader) Take(n uint64) []byte {
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = errShort
	}
	if r.err != nil {
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Bytes reads a length-prefixed byte run, aliasing the message as Take does.
func (r *Reader) Bytes() []byte { return r.Take(r.U64()) }

// Rest reads every byte left: a message's last field, whose length is the
// message's own. It aliases the message as Take does.
func (r *Reader) Rest() []byte { return r.Take(uint64(len(r.b))) }

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Count reads an element count and refuses one the rest of the message
// cannot hold at min (≥ 1) bytes an element, so a hostile count sizes no
// allocation.
func (r *Reader) Count(min int) int {
	n := r.U64()
	if r.err == nil && n > uint64(len(r.b)/min) {
		r.err = errCount
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Strs reads what AppendStrings wrote.
func (r *Reader) Strs() []string {
	out := make([]string, r.Count(1)) // an empty string is its 1-byte length
	for i := range out {
		out[i] = r.Str()
	}
	return out
}

// Fail records err, a reason of the caller's own (an order, a range, a
// combination the layout allows and the message type does not), unless an
// earlier error already stuck.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err reports the error that stuck, if any: a decoder checks it before
// allocating for what it has read so far.
func (r *Reader) Err() error { return r.err }

// Done is the message's verdict once every field is read: nil, or bad
// wrapping the first error — trailing bytes included.
func (r *Reader) Done(bad error) error {
	if r.err == nil && len(r.b) > 0 {
		r.err = errTrailing
	}
	if r.err != nil {
		return fmt.Errorf("%w: %v", bad, r.err)
	}
	return nil
}
