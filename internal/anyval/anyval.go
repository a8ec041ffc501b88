// Package anyval implements the CORBA "any" type and the subset of
// TypeCodes needed to carry it: a self-describing (TypeCode, value) pair.
//
// The FT-CORBA Checkpointable interface defines application-level state as
// `typedef any State` precisely because no single format can be
// standardized for every application (paper §4.1); this package is the
// wire representation of that State.
package anyval

import (
	"errors"
	"fmt"

	"eternal/internal/cdr"
)

// Kind enumerates the TypeCode kinds this implementation supports. The
// numeric values are the standard TCKind constants.
type Kind uint32

// Supported TCKind values.
const (
	KindNull     Kind = 0
	KindVoid     Kind = 1
	KindShort    Kind = 2
	KindLong     Kind = 3
	KindUShort   Kind = 4
	KindULong    Kind = 5
	KindFloat    Kind = 6
	KindDouble   Kind = 7
	KindBoolean  Kind = 8
	KindChar     Kind = 9
	KindOctet    Kind = 10
	KindStruct   Kind = 15
	KindString   Kind = 18
	KindSequence Kind = 19
	KindLongLong Kind = 23
)

var kindNames = map[Kind]string{
	KindNull: "null", KindVoid: "void", KindShort: "short", KindLong: "long",
	KindUShort: "ushort", KindULong: "ulong", KindFloat: "float",
	KindDouble: "double", KindBoolean: "boolean", KindChar: "char",
	KindOctet: "octet", KindStruct: "struct", KindString: "string",
	KindSequence: "sequence", KindLongLong: "longlong",
}

// String returns the IDL-ish name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint32(k))
}

// Errors reported by this package.
var (
	ErrUnsupportedKind = errors.New("anyval: unsupported TypeCode kind")
	ErrTypeMismatch    = errors.New("anyval: Go value does not match TypeCode")
	// ErrEmptyElements: a non-empty sequence whose elements occupy no
	// bytes (null, void, or a struct of such). Its length would be the only
	// bound on what decoding it allocates, so neither side accepts one.
	ErrEmptyElements = errors.New("anyval: sequence of elements that occupy no bytes")
)

// occupiesNoBytes reports whether every value of tc encodes to nothing.
func occupiesNoBytes(tc *TypeCode) bool {
	switch tc.Kind {
	case KindNull, KindVoid:
		return true
	case KindStruct:
		for _, f := range tc.Fields {
			if !occupiesNoBytes(f.Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TypeCode describes the type of an Any value.
//
// For KindSequence, Elem describes the element type. For KindStruct,
// Fields describe the members in order. All other kinds are primitive.
type TypeCode struct {
	Kind Kind
	// ID and Name are the repository id and name (struct kinds only).
	ID   string
	Name string
	// Elem is the element type of a sequence.
	Elem *TypeCode
	// Fields are the members of a struct.
	Fields []Field
}

// Field is one member of a struct TypeCode.
type Field struct {
	Name string
	Type *TypeCode
}

// Convenience TypeCodes for the primitive kinds.
var (
	TCNull     = &TypeCode{Kind: KindNull}
	TCVoid     = &TypeCode{Kind: KindVoid}
	TCShort    = &TypeCode{Kind: KindShort}
	TCLong     = &TypeCode{Kind: KindLong}
	TCUShort   = &TypeCode{Kind: KindUShort}
	TCULong    = &TypeCode{Kind: KindULong}
	TCFloat    = &TypeCode{Kind: KindFloat}
	TCDouble   = &TypeCode{Kind: KindDouble}
	TCBoolean  = &TypeCode{Kind: KindBoolean}
	TCChar     = &TypeCode{Kind: KindChar}
	TCOctet    = &TypeCode{Kind: KindOctet}
	TCString   = &TypeCode{Kind: KindString}
	TCLongLong = &TypeCode{Kind: KindLongLong}
	// TCOctetSeq is sequence<octet>, the workhorse State encoding.
	TCOctetSeq = &TypeCode{Kind: KindSequence, Elem: TCOctet}
)

// SequenceOf returns a sequence TypeCode with the given element type.
func SequenceOf(elem *TypeCode) *TypeCode {
	return &TypeCode{Kind: KindSequence, Elem: elem}
}

// StructOf returns a struct TypeCode.
func StructOf(id, name string, fields ...Field) *TypeCode {
	return &TypeCode{Kind: KindStruct, ID: id, Name: name, Fields: fields}
}

// Equal reports whether two TypeCodes describe the same type.
func (tc *TypeCode) Equal(other *TypeCode) bool {
	if tc == nil || other == nil {
		return tc == other
	}
	if tc.Kind != other.Kind {
		return false
	}
	switch tc.Kind {
	case KindSequence:
		return tc.Elem.Equal(other.Elem)
	case KindStruct:
		if tc.ID != other.ID || len(tc.Fields) != len(other.Fields) {
			return false
		}
		for i := range tc.Fields {
			if tc.Fields[i].Name != other.Fields[i].Name ||
				!tc.Fields[i].Type.Equal(other.Fields[i].Type) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

func (tc *TypeCode) marshal(e *cdr.Encoder) {
	e.WriteULong(uint32(tc.Kind))
	switch tc.Kind {
	case KindString:
		e.WriteULong(0) // unbounded
	case KindSequence:
		e.WriteEncapsulation(e.Order(), func(inner *cdr.Encoder) {
			tc.Elem.marshal(inner)
			inner.WriteULong(0) // unbounded
		})
	case KindStruct:
		e.WriteEncapsulation(e.Order(), func(inner *cdr.Encoder) {
			inner.WriteString(tc.ID)
			inner.WriteString(tc.Name)
			inner.WriteULong(uint32(len(tc.Fields)))
			for _, f := range tc.Fields {
				inner.WriteString(f.Name)
				f.Type.marshal(inner)
			}
		})
	}
}

func unmarshalTypeCode(d *cdr.Decoder) (*TypeCode, error) {
	k, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	kind := Kind(k)
	switch kind {
	case KindNull, KindVoid, KindShort, KindLong, KindUShort, KindULong,
		KindFloat, KindDouble, KindBoolean, KindChar, KindOctet, KindLongLong:
		return &TypeCode{Kind: kind}, nil
	case KindString:
		if _, err := d.ReadULong(); err != nil { // bound
			return nil, err
		}
		return &TypeCode{Kind: kind}, nil
	case KindSequence:
		inner, err := d.ReadEncapsulation()
		if err != nil {
			return nil, err
		}
		elem, err := unmarshalTypeCode(inner)
		if err != nil {
			return nil, err
		}
		if _, err := inner.ReadULong(); err != nil { // bound
			return nil, err
		}
		return &TypeCode{Kind: KindSequence, Elem: elem}, nil
	case KindStruct:
		inner, err := d.ReadEncapsulation()
		if err != nil {
			return nil, err
		}
		tc := &TypeCode{Kind: KindStruct}
		if tc.ID, err = inner.ReadString(); err != nil {
			return nil, err
		}
		if tc.Name, err = inner.ReadString(); err != nil {
			return nil, err
		}
		n, err := inner.ReadULong()
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			name, err := inner.ReadString()
			if err != nil {
				return nil, err
			}
			ft, err := unmarshalTypeCode(inner)
			if err != nil {
				return nil, err
			}
			tc.Fields = append(tc.Fields, Field{Name: name, Type: ft})
		}
		return tc, nil
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedKind, kind)
	}
}

// Any is a self-describing CORBA value: a TypeCode plus a Go value.
//
// The Go representations are: int16, int32, uint16, uint32, int64, float32,
// float64, bool, byte (octet and char), string, []byte (sequence<octet>),
// []any (other sequences), map-free struct values as []any in field order,
// and nil for null/void.
type Any struct {
	Type  *TypeCode
	Value any
}

// Null is the null Any.
func Null() Any { return Any{Type: TCNull} }

// FromBytes wraps raw bytes as a sequence<octet> Any — the conventional
// encoding for opaque application-level state.
func FromBytes(b []byte) Any {
	return Any{Type: TCOctetSeq, Value: append([]byte(nil), b...)}
}

// FromString wraps a string Any.
func FromString(s string) Any { return Any{Type: TCString, Value: s} }

// FromLong wraps an int32 Any.
func FromLong(v int32) Any { return Any{Type: TCLong, Value: v} }

// FromLongLong wraps an int64 Any.
func FromLongLong(v int64) Any { return Any{Type: TCLongLong, Value: v} }

// FromDouble wraps a float64 Any.
func FromDouble(v float64) Any { return Any{Type: TCDouble, Value: v} }

// FromBoolean wraps a bool Any.
func FromBoolean(v bool) Any { return Any{Type: TCBoolean, Value: v} }

// Bytes returns the []byte payload of a sequence<octet> Any.
func (a Any) Bytes() ([]byte, error) {
	if !a.Type.Equal(TCOctetSeq) {
		return nil, fmt.Errorf("%w: %v is not sequence<octet>", ErrTypeMismatch, a.Type.Kind)
	}
	b, ok := a.Value.([]byte)
	if !ok {
		return nil, ErrTypeMismatch
	}
	return b, nil
}

// IsNull reports whether the Any carries no value.
func (a Any) IsNull() bool {
	return a.Type == nil || a.Type.Kind == KindNull || a.Type.Kind == KindVoid
}

// Marshal appends the Any (TypeCode then value) to the encoder.
func (a Any) Marshal(e *cdr.Encoder) error {
	tc := a.Type
	if tc == nil {
		tc = TCNull
	}
	tc.marshal(e)
	return marshalValue(e, tc, a.Value)
}

// MarshalBytes encodes the Any as a standalone big-endian CDR stream.
func (a Any) MarshalBytes() ([]byte, error) {
	e := cdr.NewEncoder(cdr.BigEndian)
	if err := a.Marshal(e); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

func marshalValue(e *cdr.Encoder, tc *TypeCode, v any) error {
	switch tc.Kind {
	case KindNull, KindVoid:
		return nil
	case KindShort:
		x, ok := v.(int16)
		if !ok {
			return mismatch(tc, v)
		}
		e.WriteShort(x)
	case KindUShort:
		x, ok := v.(uint16)
		if !ok {
			return mismatch(tc, v)
		}
		e.WriteUShort(x)
	case KindLong:
		x, ok := v.(int32)
		if !ok {
			return mismatch(tc, v)
		}
		e.WriteLong(x)
	case KindULong:
		x, ok := v.(uint32)
		if !ok {
			return mismatch(tc, v)
		}
		e.WriteULong(x)
	case KindLongLong:
		x, ok := v.(int64)
		if !ok {
			return mismatch(tc, v)
		}
		e.WriteLongLong(x)
	case KindFloat:
		x, ok := v.(float32)
		if !ok {
			return mismatch(tc, v)
		}
		e.WriteFloat(x)
	case KindDouble:
		x, ok := v.(float64)
		if !ok {
			return mismatch(tc, v)
		}
		e.WriteDouble(x)
	case KindBoolean:
		x, ok := v.(bool)
		if !ok {
			return mismatch(tc, v)
		}
		e.WriteBoolean(x)
	case KindChar, KindOctet:
		x, ok := v.(byte)
		if !ok {
			return mismatch(tc, v)
		}
		e.WriteOctet(x)
	case KindString:
		x, ok := v.(string)
		if !ok {
			return mismatch(tc, v)
		}
		e.WriteString(x)
	case KindSequence:
		if tc.Elem.Kind == KindOctet {
			x, ok := v.([]byte)
			if !ok {
				return mismatch(tc, v)
			}
			e.WriteOctetSeq(x)
			return nil
		}
		xs, ok := v.([]any)
		if !ok {
			return mismatch(tc, v)
		}
		if len(xs) > 0 && occupiesNoBytes(tc.Elem) {
			return ErrEmptyElements
		}
		e.WriteULong(uint32(len(xs)))
		for _, x := range xs {
			if err := marshalValue(e, tc.Elem, x); err != nil {
				return err
			}
		}
	case KindStruct:
		xs, ok := v.([]any)
		if !ok || len(xs) != len(tc.Fields) {
			return mismatch(tc, v)
		}
		for i, f := range tc.Fields {
			if err := marshalValue(e, f.Type, xs[i]); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("%w: %v", ErrUnsupportedKind, tc.Kind)
	}
	return nil
}

func mismatch(tc *TypeCode, v any) error {
	return fmt.Errorf("%w: %T for %v", ErrTypeMismatch, v, tc.Kind)
}

// Unmarshal decodes an Any (TypeCode then value) from the decoder.
func Unmarshal(d *cdr.Decoder) (Any, error) {
	tc, err := unmarshalTypeCode(d)
	if err != nil {
		return Any{}, err
	}
	v, err := unmarshalValue(d, tc)
	if err != nil {
		return Any{}, err
	}
	return Any{Type: tc, Value: v}, nil
}

// UnmarshalBytes decodes an Any from a standalone big-endian CDR stream.
func UnmarshalBytes(buf []byte) (Any, error) {
	return Unmarshal(cdr.NewDecoder(buf, cdr.BigEndian))
}

func unmarshalValue(d *cdr.Decoder, tc *TypeCode) (any, error) {
	switch tc.Kind {
	case KindNull, KindVoid:
		return nil, nil
	case KindShort:
		return d.ReadShort()
	case KindUShort:
		return d.ReadUShort()
	case KindLong:
		return d.ReadLong()
	case KindULong:
		return d.ReadULong()
	case KindLongLong:
		return d.ReadLongLong()
	case KindFloat:
		return d.ReadFloat()
	case KindDouble:
		return d.ReadDouble()
	case KindBoolean:
		return d.ReadBoolean()
	case KindChar, KindOctet:
		return d.ReadOctet()
	case KindString:
		return d.ReadString()
	case KindSequence:
		if tc.Elem.Kind == KindOctet {
			return d.ReadOctetSeq()
		}
		n, err := d.ReadULong()
		if err != nil {
			return nil, err
		}
		if n > 0 && occupiesNoBytes(tc.Elem) {
			return nil, ErrEmptyElements
		}
		if uint64(n) > uint64(d.Remaining()) {
			return nil, cdr.ErrLengthOverflow
		}
		xs := make([]any, 0, n)
		for i := uint32(0); i < n; i++ {
			x, err := unmarshalValue(d, tc.Elem)
			if err != nil {
				return nil, err
			}
			xs = append(xs, x)
		}
		return xs, nil
	case KindStruct:
		xs := make([]any, 0, len(tc.Fields))
		for _, f := range tc.Fields {
			x, err := unmarshalValue(d, f.Type)
			if err != nil {
				return nil, err
			}
			xs = append(xs, x)
		}
		return xs, nil
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedKind, tc.Kind)
	}
}
