// Package cdr implements CORBA's Common Data Representation (CDR), the
// wire encoding used by GIOP/IIOP messages.
//
// CDR is an aligned, bi-endian encoding: every primitive value is aligned
// to its natural size measured from the start of the stream (or from the
// start of the enclosing encapsulation), and the byte order of the stream
// is declared by the producer rather than fixed by the specification.
//
// The package provides an Encoder that appends CDR-encoded values to a
// growing buffer and a Decoder that consumes them, plus helpers for CDR
// encapsulations (nested, self-describing octet sequences that restart
// alignment and carry their own endianness flag, used throughout IORs and
// service contexts).
package cdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// ByteOrder identifies the byte order of a CDR stream.
type ByteOrder byte

const (
	// BigEndian is the traditional network byte order.
	BigEndian ByteOrder = 0
	// LittleEndian is declared by a flag value of 1 in GIOP headers and
	// encapsulations.
	LittleEndian ByteOrder = 1
)

// String returns the conventional name of the byte order.
func (o ByteOrder) String() string {
	if o == LittleEndian {
		return "little-endian"
	}
	return "big-endian"
}

// appendOrder unifies the decode and append views of encoding/binary's two
// fixed byte orders.
type appendOrder interface {
	binary.ByteOrder
	binary.AppendByteOrder
}

func (o ByteOrder) order() appendOrder {
	if o == LittleEndian {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

// Errors reported by the Decoder.
var (
	// ErrTruncated indicates that the stream ended in the middle of a value.
	ErrTruncated = errors.New("cdr: truncated stream")
	// ErrInvalidString indicates a CDR string without its mandatory NUL
	// terminator.
	ErrInvalidString = errors.New("cdr: string missing NUL terminator")
	// ErrLengthOverflow indicates a sequence or string whose declared length
	// exceeds the remaining stream.
	ErrLengthOverflow = errors.New("cdr: declared length exceeds remaining stream")
)

// Encoder appends CDR-encoded values to a buffer.
//
// The zero value is ready to use and encodes big-endian with alignment
// measured from offset zero. Use NewEncoder to choose byte order or an
// alignment origin (GIOP 1.2 bodies are aligned relative to the end of the
// 12-byte message header, which is itself 4-aligned, so offset 0 works; the
// origin matters for encapsulations spliced into outer streams).
type Encoder struct {
	buf   []byte
	order ByteOrder
	// base is subtracted from len(buf) when computing alignment, so that an
	// encoder can produce a fragment destined for a known absolute offset.
	base int
}

// NewEncoder returns an Encoder producing the given byte order.
func NewEncoder(order ByteOrder) *Encoder {
	return &Encoder{order: order}
}

// Reset empties the encoder for reuse, keeping the allocated buffer
// capacity, and sets its byte order and a zero alignment origin.
func (e *Encoder) Reset(order ByteOrder) {
	e.buf = e.buf[:0]
	e.order = order
	e.base = 0
}

// maxPooledBuf bounds the buffer capacity retained by the encoder pool;
// an encoder that grew past it (a large state transfer, say) is released
// with its buffer dropped so the pool holds only hot-path-sized buffers.
const maxPooledBuf = 64 << 10

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// AcquireEncoder returns an empty pooled Encoder producing the given byte
// order. Release it with ReleaseEncoder when the encoded bytes are no
// longer referenced; hot paths that encode, hand the bytes to a
// non-retaining consumer (see totem.Transport's ownership rule) and
// release, encode with zero steady-state allocation.
func AcquireEncoder(order ByteOrder) *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset(order)
	return e
}

// ReleaseEncoder returns e to the pool. The caller must not use e — nor
// any slice previously obtained from e.Bytes() — after the call.
func ReleaseEncoder(e *Encoder) {
	if e == nil {
		return
	}
	if cap(e.buf) > maxPooledBuf {
		e.buf = nil
	}
	encoderPool.Put(e)
}

// Order reports the byte order the encoder writes.
func (e *Encoder) Order() ByteOrder { return e.order }

// Len reports the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Bytes returns the encoded stream. The returned slice aliases the
// encoder's internal buffer; it is valid until the next Write call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Align pads the stream with zero bytes until its length is a multiple of n.
func (e *Encoder) Align(n int) {
	if n <= 1 {
		return
	}
	for (len(e.buf)-e.base)%n != 0 {
		e.buf = append(e.buf, 0)
	}
}

// WriteOctet appends a single unaligned byte.
func (e *Encoder) WriteOctet(v byte) { e.buf = append(e.buf, v) }

// WriteBoolean appends a CDR boolean (one octet, 0 or 1).
func (e *Encoder) WriteBoolean(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteUShort appends a 2-aligned unsigned short.
func (e *Encoder) WriteUShort(v uint16) {
	e.Align(2)
	e.buf = e.order.order().AppendUint16(e.buf, v)
}

// WriteShort appends a 2-aligned signed short.
func (e *Encoder) WriteShort(v int16) { e.WriteUShort(uint16(v)) }

// WriteULong appends a 4-aligned unsigned long.
func (e *Encoder) WriteULong(v uint32) {
	e.Align(4)
	e.buf = e.order.order().AppendUint32(e.buf, v)
}

// WriteLong appends a 4-aligned signed long.
func (e *Encoder) WriteLong(v int32) { e.WriteULong(uint32(v)) }

// WriteULongLong appends an 8-aligned unsigned long long.
func (e *Encoder) WriteULongLong(v uint64) {
	e.Align(8)
	e.buf = e.order.order().AppendUint64(e.buf, v)
}

// WriteLongLong appends an 8-aligned signed long long.
func (e *Encoder) WriteLongLong(v int64) { e.WriteULongLong(uint64(v)) }

// WriteFloat appends a 4-aligned IEEE-754 single-precision float.
func (e *Encoder) WriteFloat(v float32) { e.WriteULong(math.Float32bits(v)) }

// WriteDouble appends an 8-aligned IEEE-754 double-precision float.
func (e *Encoder) WriteDouble(v float64) { e.WriteULongLong(math.Float64bits(v)) }

// WriteString appends a CDR string: a ulong length that counts the
// terminating NUL, the bytes, and the NUL.
func (e *Encoder) WriteString(s string) {
	e.WriteULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// WriteOctetSeq appends a sequence<octet>: a ulong count followed by the
// raw bytes.
func (e *Encoder) WriteOctetSeq(b []byte) {
	e.WriteULong(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// WriteULongSeq appends a sequence<ulong>.
func (e *Encoder) WriteULongSeq(vs []uint32) {
	e.WriteULong(uint32(len(vs)))
	for _, v := range vs {
		e.WriteULong(v)
	}
}

// WriteRaw appends bytes without any alignment or length prefix.
func (e *Encoder) WriteRaw(b []byte) { e.buf = append(e.buf, b...) }

// WriteEncapsulation appends a CDR encapsulation built by fill: a
// sequence<octet> whose first octet declares the byte order of the nested
// stream and whose alignment restarts at that octet.
func (e *Encoder) WriteEncapsulation(order ByteOrder, fill func(*Encoder)) {
	inner := NewEncoder(order)
	inner.WriteOctet(byte(order))
	fill(inner)
	e.WriteOctetSeq(inner.Bytes())
}

// Decoder consumes CDR-encoded values from a byte slice.
//
// The decoder does not copy the input; DecodeString and friends return
// views or copies as documented per method.
type Decoder struct {
	buf   []byte
	pos   int
	order ByteOrder
}

// NewDecoder returns a Decoder reading buf in the given byte order.
// Alignment is measured from the start of buf.
func NewDecoder(buf []byte, order ByteOrder) *Decoder {
	return &Decoder{buf: buf, order: order}
}

// NewEncapsulationDecoder interprets buf as a CDR encapsulation: the first
// octet is the byte-order flag and alignment restarts at it.
func NewEncapsulationDecoder(buf []byte) (*Decoder, error) {
	if len(buf) < 1 {
		return nil, fmt.Errorf("cdr: empty encapsulation: %w", ErrTruncated)
	}
	order := ByteOrder(buf[0] & 1)
	d := NewDecoder(buf, order)
	d.pos = 1
	return d, nil
}

// Order reports the byte order the decoder reads.
func (d *Decoder) Order() ByteOrder { return d.order }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Pos reports the current read offset from the start of the stream.
func (d *Decoder) Pos() int { return d.pos }

// Align skips pad bytes until the read offset is a multiple of n.
func (d *Decoder) Align(n int) error {
	if n <= 1 {
		return nil
	}
	for d.pos%n != 0 {
		if d.pos >= len(d.buf) {
			return ErrTruncated
		}
		d.pos++
	}
	return nil
}

func (d *Decoder) need(n int) error {
	if len(d.buf)-d.pos < n {
		return ErrTruncated
	}
	return nil
}

// ReadOctet consumes one unaligned byte.
func (d *Decoder) ReadOctet() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

// ReadBoolean consumes a CDR boolean.
func (d *Decoder) ReadBoolean() (bool, error) {
	v, err := d.ReadOctet()
	return v != 0, err
}

// ReadUShort consumes a 2-aligned unsigned short.
func (d *Decoder) ReadUShort() (uint16, error) {
	if err := d.Align(2); err != nil {
		return 0, err
	}
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := d.order.order().Uint16(d.buf[d.pos:])
	d.pos += 2
	return v, nil
}

// ReadShort consumes a 2-aligned signed short.
func (d *Decoder) ReadShort() (int16, error) {
	v, err := d.ReadUShort()
	return int16(v), err
}

// ReadULong consumes a 4-aligned unsigned long.
func (d *Decoder) ReadULong() (uint32, error) {
	if err := d.Align(4); err != nil {
		return 0, err
	}
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := d.order.order().Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

// ReadLong consumes a 4-aligned signed long.
func (d *Decoder) ReadLong() (int32, error) {
	v, err := d.ReadULong()
	return int32(v), err
}

// ReadULongLong consumes an 8-aligned unsigned long long.
func (d *Decoder) ReadULongLong() (uint64, error) {
	if err := d.Align(8); err != nil {
		return 0, err
	}
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := d.order.order().Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
}

// ReadLongLong consumes an 8-aligned signed long long.
func (d *Decoder) ReadLongLong() (int64, error) {
	v, err := d.ReadULongLong()
	return int64(v), err
}

// ReadFloat consumes a 4-aligned single-precision float.
func (d *Decoder) ReadFloat() (float32, error) {
	v, err := d.ReadULong()
	return math.Float32frombits(v), err
}

// ReadDouble consumes an 8-aligned double-precision float.
func (d *Decoder) ReadDouble() (float64, error) {
	v, err := d.ReadULongLong()
	return math.Float64frombits(v), err
}

// ReadString consumes a CDR string and returns a copy of its contents
// without the terminating NUL.
func (d *Decoder) ReadString() (string, error) {
	n, err := d.ReadULong()
	if err != nil {
		return "", err
	}
	if n == 0 {
		// Tolerated deviation seen in some ORBs: zero-length means empty
		// string with no NUL at all.
		return "", nil
	}
	if uint32(d.Remaining()) < n {
		return "", ErrLengthOverflow
	}
	raw := d.buf[d.pos : d.pos+int(n)]
	d.pos += int(n)
	if raw[len(raw)-1] != 0 {
		return "", ErrInvalidString
	}
	return string(raw[:len(raw)-1]), nil
}

// ReadOctetSeq consumes a sequence<octet> and returns a copy of its bytes.
func (d *Decoder) ReadOctetSeq() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint32(d.Remaining()) < n {
		return nil, ErrLengthOverflow
	}
	out := make([]byte, n)
	copy(out, d.buf[d.pos:d.pos+int(n)])
	d.pos += int(n)
	return out, nil
}

// ReadULongSeq consumes a sequence<ulong>.
func (d *Decoder) ReadULongSeq() ([]uint32, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint64(d.Remaining()) < uint64(n)*4 {
		return nil, ErrLengthOverflow
	}
	out := make([]uint32, 0, n)
	for i := uint32(0); i < n; i++ {
		v, err := d.ReadULong()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// ReadRaw consumes exactly n bytes without alignment and returns a copy.
func (d *Decoder) ReadRaw(n int) ([]byte, error) {
	if err := d.need(n); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, d.buf[d.pos:d.pos+n])
	d.pos += n
	return out, nil
}

// ReadEncapsulation consumes a sequence<octet> and returns a Decoder for
// the encapsulated stream it contains.
func (d *Decoder) ReadEncapsulation() (*Decoder, error) {
	body, err := d.ReadOctetSeq()
	if err != nil {
		return nil, err
	}
	return NewEncapsulationDecoder(body)
}
