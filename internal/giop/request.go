package giop

import (
	"fmt"

	"eternal/internal/cdr"
)

// ServiceContext is one entry of a GIOP service context list: an id chosen
// from the OMG-administered space plus opaque data (almost always a CDR
// encapsulation).
//
// Service contexts are GIOP's extension mechanism; the paper's §4.2.2
// client–server handshake (code-set negotiation, vendor-specific shortcuts)
// travels in them.
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// Well-known service context ids used by this implementation.
const (
	// SCCodeSets is the OMG CodeSets service context (id 1), carrying the
	// char/wchar transmission code sets chosen by the client.
	SCCodeSets uint32 = 1
	// SCFTGroupVersion carries the FT-CORBA object-group version seen by
	// the client (FT_GROUP_VERSION, id 0x1B in this implementation).
	SCFTGroupVersion uint32 = 0x1B
	// SCFTRequest carries the FT-CORBA request identification (client id,
	// retention id, expiration) used for duplicate suppression.
	SCFTRequest uint32 = 0x1C
	// SCVendorHandshake is the vendor-specific negotiation context of our
	// mini-ORB ("Eternal Test ORB"), mimicking VisiBroker 4.0's proprietary
	// handshake that negotiates a shortcut object key (paper §4.2.2). The
	// value is from the vendor prefix space.
	SCVendorHandshake uint32 = 0x45544F00 // "ETO\0"
)

func writeServiceContexts(e *cdr.Encoder, scs []ServiceContext) {
	e.WriteULong(uint32(len(scs)))
	for _, sc := range scs {
		e.WriteULong(sc.ID)
		e.WriteOctetSeq(sc.Data)
	}
}

func readServiceContexts(d *cdr.Decoder) ([]ServiceContext, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	if uint64(n)*8 > uint64(d.Remaining()) {
		return nil, cdr.ErrLengthOverflow
	}
	scs := make([]ServiceContext, 0, n)
	for i := uint32(0); i < n; i++ {
		id, err := d.ReadULong()
		if err != nil {
			return nil, err
		}
		data, err := d.ReadOctetSeq()
		if err != nil {
			return nil, err
		}
		scs = append(scs, ServiceContext{ID: id, Data: data})
	}
	return scs, nil
}

// FindContext returns the first service context with the given id, or nil.
func FindContext(scs []ServiceContext, id uint32) *ServiceContext {
	for i := range scs {
		if scs[i].ID == id {
			return &scs[i]
		}
	}
	return nil
}

// RequestHeader is the GIOP Request header common to versions 1.0–1.2.
//
// Response semantics: in 1.0/1.1 a boolean response_expected; in 1.2 a
// response_flags octet where 0x03 means "reply expected". Oneway requests
// carry false/0x00.
type RequestHeader struct {
	ServiceContexts  []ServiceContext
	RequestID        uint32
	ResponseExpected bool
	// ObjectKey addresses the target object within the server (GIOP 1.2
	// TargetAddress is supported in its KeyAddr form only, which is what
	// every mainstream ORB sends).
	ObjectKey []byte
	Operation string
	// Principal is the deprecated requesting_principal of GIOP 1.0/1.1.
	Principal []byte
}

// Request is a parsed GIOP Request message: its header plus the CDR-encoded
// parameter body and the byte order to decode it with.
type Request struct {
	Header RequestHeader
	Order  cdr.ByteOrder
	// Args is the raw CDR parameter data (aligned per the GIOP version).
	Args []byte
}

// EncodeRequest builds a complete Request message.
func EncodeRequest(v Version, order cdr.ByteOrder, h *RequestHeader, args []byte) *Message {
	e := cdr.NewEncoder(order)
	if v.AtLeast(Version12) {
		e.WriteULong(h.RequestID)
		var flags byte
		if h.ResponseExpected {
			flags = 0x03
		}
		e.WriteOctet(flags)
		e.WriteRaw([]byte{0, 0, 0}) // reserved
		e.WriteShort(0)             // TargetAddress discriminant: KeyAddr
		e.WriteOctetSeq(h.ObjectKey)
		e.WriteString(h.Operation)
		writeServiceContexts(e, h.ServiceContexts)
		if len(args) > 0 {
			e.Align(8)
		}
	} else {
		writeServiceContexts(e, h.ServiceContexts)
		e.WriteULong(h.RequestID)
		e.WriteBoolean(h.ResponseExpected)
		if v.Minor >= 1 {
			e.WriteRaw([]byte{0, 0, 0}) // reserved
		}
		e.WriteOctetSeq(h.ObjectKey)
		e.WriteString(h.Operation)
		e.WriteOctetSeq(h.Principal)
	}
	e.WriteRaw(args)
	return &Message{Version: v, Order: order, Type: MsgRequest, Body: e.Bytes()}
}

// ParseRequest decodes the Request header from a MsgRequest message.
func ParseRequest(m *Message) (*Request, error) {
	if m.Type != MsgRequest {
		return nil, fmt.Errorf("%w: %v", ErrUnexpected, m.Type)
	}
	d := cdr.NewDecoder(m.Body, m.Order)
	var h RequestHeader
	var err error
	if m.Version.AtLeast(Version12) {
		if h.RequestID, err = d.ReadULong(); err != nil {
			return nil, err
		}
		flags, err := d.ReadOctet()
		if err != nil {
			return nil, err
		}
		h.ResponseExpected = flags&0x03 == 0x03
		if _, err := d.ReadRaw(3); err != nil {
			return nil, err
		}
		disc, err := d.ReadShort()
		if err != nil {
			return nil, err
		}
		if disc != 0 {
			return nil, fmt.Errorf("giop: unsupported TargetAddress discriminant %d", disc)
		}
		if h.ObjectKey, err = d.ReadOctetSeq(); err != nil {
			return nil, err
		}
		if h.Operation, err = d.ReadString(); err != nil {
			return nil, err
		}
		if h.ServiceContexts, err = readServiceContexts(d); err != nil {
			return nil, err
		}
		if d.Remaining() > 0 {
			if err := d.Align(8); err != nil {
				return nil, err
			}
		}
	} else {
		if h.ServiceContexts, err = readServiceContexts(d); err != nil {
			return nil, err
		}
		if h.RequestID, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if h.ResponseExpected, err = d.ReadBoolean(); err != nil {
			return nil, err
		}
		if m.Version.Minor >= 1 {
			if _, err := d.ReadRaw(3); err != nil {
				return nil, err
			}
		}
		if h.ObjectKey, err = d.ReadOctetSeq(); err != nil {
			return nil, err
		}
		if h.Operation, err = d.ReadString(); err != nil {
			return nil, err
		}
		if h.Principal, err = d.ReadOctetSeq(); err != nil {
			return nil, err
		}
	}
	args := make([]byte, d.Remaining())
	copy(args, m.Body[d.Pos():])
	nRequests.Add(1)
	return &Request{Header: h, Order: m.Order, Args: args}, nil
}

// PeekRequest decodes only the request_id and response flag of a
// MsgRequest message: what Eternal's mechanisms need to number a request
// they pass on whole.
func PeekRequest(m *Message) (id uint32, responseExpected bool, err error) {
	if m.Type != MsgRequest {
		return 0, false, fmt.Errorf("%w: %v", ErrUnexpected, m.Type)
	}
	d := cdr.NewDecoder(m.Body, m.Order)
	if m.Version.AtLeast(Version12) {
		if id, err = d.ReadULong(); err != nil {
			return 0, false, err
		}
		flags, err := d.ReadOctet()
		return id, flags&0x03 == 0x03, err
	}
	if _, err = readServiceContexts(d); err != nil {
		return 0, false, err
	}
	if id, err = d.ReadULong(); err != nil {
		return 0, false, err
	}
	responseExpected, err = d.ReadBoolean()
	return id, responseExpected, err
}

// ReplyStatus is the GIOP reply_status discriminant.
type ReplyStatus uint32

// The GIOP reply status values.
const (
	ReplyNoException         ReplyStatus = 0
	ReplyUserException       ReplyStatus = 1
	ReplySystemException     ReplyStatus = 2
	ReplyLocationForward     ReplyStatus = 3
	ReplyLocationForwardPerm ReplyStatus = 4 // GIOP 1.2
	ReplyNeedsAddressingMode ReplyStatus = 5 // GIOP 1.2
)

var replyStatusNames = [...]string{
	"NO_EXCEPTION", "USER_EXCEPTION", "SYSTEM_EXCEPTION",
	"LOCATION_FORWARD", "LOCATION_FORWARD_PERM", "NEEDS_ADDRESSING_MODE",
}

// String returns the specification name of the status.
func (s ReplyStatus) String() string {
	if int(s) < len(replyStatusNames) {
		return replyStatusNames[s]
	}
	return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
}

// ReplyHeader is the GIOP Reply header common to versions 1.0–1.2.
type ReplyHeader struct {
	ServiceContexts []ServiceContext
	RequestID       uint32
	Status          ReplyStatus
}

// Reply is a parsed GIOP Reply message.
type Reply struct {
	Header ReplyHeader
	Order  cdr.ByteOrder
	// Result is the raw CDR result data (return value + out params, or the
	// exception body for non-NO_EXCEPTION statuses).
	Result []byte
}

// EncodeReply builds a complete Reply message.
func EncodeReply(v Version, order cdr.ByteOrder, h *ReplyHeader, result []byte) *Message {
	e := cdr.NewEncoder(order)
	if v.AtLeast(Version12) {
		e.WriteULong(h.RequestID)
		e.WriteULong(uint32(h.Status))
		writeServiceContexts(e, h.ServiceContexts)
		if len(result) > 0 {
			e.Align(8)
		}
	} else {
		writeServiceContexts(e, h.ServiceContexts)
		e.WriteULong(h.RequestID)
		e.WriteULong(uint32(h.Status))
	}
	e.WriteRaw(result)
	return &Message{Version: v, Order: order, Type: MsgReply, Body: e.Bytes()}
}

// ParseReply decodes the Reply header from a MsgReply message.
func ParseReply(m *Message) (*Reply, error) {
	if m.Type != MsgReply {
		return nil, fmt.Errorf("%w: %v", ErrUnexpected, m.Type)
	}
	d := cdr.NewDecoder(m.Body, m.Order)
	var h ReplyHeader
	var err error
	if m.Version.AtLeast(Version12) {
		if h.RequestID, err = d.ReadULong(); err != nil {
			return nil, err
		}
		st, err := d.ReadULong()
		if err != nil {
			return nil, err
		}
		h.Status = ReplyStatus(st)
		if h.ServiceContexts, err = readServiceContexts(d); err != nil {
			return nil, err
		}
		if d.Remaining() > 0 {
			if err := d.Align(8); err != nil {
				return nil, err
			}
		}
	} else {
		if h.ServiceContexts, err = readServiceContexts(d); err != nil {
			return nil, err
		}
		if h.RequestID, err = d.ReadULong(); err != nil {
			return nil, err
		}
		st, err := d.ReadULong()
		if err != nil {
			return nil, err
		}
		h.Status = ReplyStatus(st)
	}
	result := make([]byte, d.Remaining())
	copy(result, m.Body[d.Pos():])
	nReplies.Add(1)
	return &Reply{Header: h, Order: m.Order, Result: result}, nil
}

// PeekReply decodes only the request_id of a MsgReply message: what a
// client ORB needs to route a reply to its caller, who parses the rest
// with ParseReply.
func PeekReply(m *Message) (uint32, error) {
	if m.Type != MsgReply {
		return 0, fmt.Errorf("%w: %v", ErrUnexpected, m.Type)
	}
	d := cdr.NewDecoder(m.Body, m.Order)
	if !m.Version.AtLeast(Version12) {
		if _, err := readServiceContexts(d); err != nil {
			return 0, err
		}
	}
	return d.ReadULong()
}

// CancelRequestHeader is the GIOP CancelRequest header.
type CancelRequestHeader struct {
	RequestID uint32
}

// EncodeCancelRequest builds a CancelRequest message.
func EncodeCancelRequest(v Version, order cdr.ByteOrder, requestID uint32) *Message {
	e := cdr.NewEncoder(order)
	e.WriteULong(requestID)
	return &Message{Version: v, Order: order, Type: MsgCancelRequest, Body: e.Bytes()}
}

// ParseCancelRequest decodes a CancelRequest message.
func ParseCancelRequest(m *Message) (*CancelRequestHeader, error) {
	if m.Type != MsgCancelRequest {
		return nil, fmt.Errorf("%w: %v", ErrUnexpected, m.Type)
	}
	d := cdr.NewDecoder(m.Body, m.Order)
	id, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	return &CancelRequestHeader{RequestID: id}, nil
}

// LocateRequestHeader is the GIOP LocateRequest header (KeyAddr form).
type LocateRequestHeader struct {
	RequestID uint32
	ObjectKey []byte
}

// EncodeLocateRequest builds a LocateRequest message.
func EncodeLocateRequest(v Version, order cdr.ByteOrder, h *LocateRequestHeader) *Message {
	e := cdr.NewEncoder(order)
	e.WriteULong(h.RequestID)
	if v.AtLeast(Version12) {
		e.WriteShort(0) // KeyAddr
	}
	e.WriteOctetSeq(h.ObjectKey)
	return &Message{Version: v, Order: order, Type: MsgLocateRequest, Body: e.Bytes()}
}

// ParseLocateRequest decodes a LocateRequest message.
func ParseLocateRequest(m *Message) (*LocateRequestHeader, error) {
	if m.Type != MsgLocateRequest {
		return nil, fmt.Errorf("%w: %v", ErrUnexpected, m.Type)
	}
	d := cdr.NewDecoder(m.Body, m.Order)
	var h LocateRequestHeader
	var err error
	if h.RequestID, err = d.ReadULong(); err != nil {
		return nil, err
	}
	if m.Version.AtLeast(Version12) {
		disc, err := d.ReadShort()
		if err != nil {
			return nil, err
		}
		if disc != 0 {
			return nil, fmt.Errorf("giop: unsupported TargetAddress discriminant %d", disc)
		}
	}
	if h.ObjectKey, err = d.ReadOctetSeq(); err != nil {
		return nil, err
	}
	return &h, nil
}

// LocateStatus is the GIOP locate_status discriminant.
type LocateStatus uint32

// The GIOP locate status values.
const (
	LocateUnknownObject LocateStatus = 0
	LocateObjectHere    LocateStatus = 1
	LocateObjectForward LocateStatus = 2
)

// LocateReplyHeader is the GIOP LocateReply header.
type LocateReplyHeader struct {
	RequestID uint32
	Status    LocateStatus
}

// EncodeLocateReply builds a LocateReply message.
func EncodeLocateReply(v Version, order cdr.ByteOrder, h *LocateReplyHeader) *Message {
	e := cdr.NewEncoder(order)
	e.WriteULong(h.RequestID)
	e.WriteULong(uint32(h.Status))
	return &Message{Version: v, Order: order, Type: MsgLocateReply, Body: e.Bytes()}
}

// ParseLocateReply decodes a LocateReply message.
func ParseLocateReply(m *Message) (*LocateReplyHeader, error) {
	if m.Type != MsgLocateReply {
		return nil, fmt.Errorf("%w: %v", ErrUnexpected, m.Type)
	}
	d := cdr.NewDecoder(m.Body, m.Order)
	var h LocateReplyHeader
	id, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	h.RequestID = id
	st, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	h.Status = LocateStatus(st)
	return &h, nil
}
