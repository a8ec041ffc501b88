// Package replication implements Eternal's Replication Mechanisms state:
// the envelope protocol that carries IIOP messages and control operations
// over the totally-ordered multicast, the replicated group-metadata state
// machine every node evaluates identically, and the duplicate suppression
// based on Eternal-generated operation identifiers (paper §2.1, §4.3).
package replication

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"eternal/internal/cdr"
	"eternal/internal/codec"
	"eternal/internal/giop"
)

// Kind discriminates envelope types on the wire.
type Kind byte

// Envelope kinds: the first byte of every envelope. 1–38 are retired and
// not reused — 6, the monolithic set_state envelope; 1–13, the CDR layouts
// of the kinds below; 14–25, the same kinds when the spec, table, bundle,
// manifest and index list they carry were still CDR; 26–32, 34, 35, 37 and
// 38, the same kinds while every envelope carried an 8-byte trace id, a
// length-prefixed payload and its empty fields written out, and the audit
// record a checkpoint-log position and a state size — so a node of any
// older layout and this one reject each other's envelopes at the first
// byte. 33 was KSyncState while each group in its table still carried an
// unused transfer-id counter. 36 was the retransmit-by-index request for a
// state chunk: a state transfer now trusts Totem's delivery.
const (
	// KRequest carries a client's IIOP Request to a server group.
	KRequest Kind = 39
	// KReply carries a server's IIOP Reply back to a logical client
	// connection.
	KReply Kind = 40
	// KCreateGroup creates an object group (control payload:
	// group spec).
	KCreateGroup Kind = 41
	// KRemoveMember removes one replica from a group (replica kill or
	// administrative removal).
	KRemoveMember Kind = 42
	// KAddMember adds a new (recovering) replica to a group. Its position
	// in the total order is the state synchronization point: the paper's
	// get_state() marker (Figure 5 step i).
	KAddMember Kind = 43
	// KCheckpoint is the periodic state-retrieval marker for passive
	// replication (paper §3.3); it triggers get_state() on the primary at
	// a consistent point in the total order.
	KCheckpoint Kind = 44
	// KSyncRequest asks for the group-metadata table, once per view: Node
	// is the requester, Conn.Client/Conn.Seq the view's representative and
	// epoch. Its delivery position defines the snapshot point — or, once
	// every member has asked, the cold start (doc/PROTOCOL.md §2).
	KSyncRequest Kind = 45
	// KSyncState carries the table snapshot taken at the matching
	// KSyncRequest's position, which XferID names.
	KSyncState Kind = 46
	// KStateChunk carries one bounded slice of the encoded state bundle —
	// application-level state with ORB-level and infrastructure-level
	// state piggybacked (Figure 5 steps iii–v) — streamed ahead of its
	// KStateManifest and interleaved with foreground traffic. OpID is the
	// chunk index within the transfer XferID; Node is the donor.
	KStateChunk Kind = 47
	// KStateManifest is the state transfer's sync point, the paper's
	// set_state: it closes the transfer XferID at one position in the
	// total order and carries the manifest — chunk count, chunk size, and
	// per-chunk checksums — the receiver uses to validate and assemble the
	// streamed chunks.
	KStateManifest Kind = 48
	// KAudit carries the live consistency audit. OpID discriminates the
	// two phases: an AuditMark (sent by the group's primary) fixes an
	// audit epoch at its own delivery position — every instance-bearing
	// member digests its state at exactly that point in the total order —
	// and an AuditReport (one per member, XferID = the mark's delivery
	// seq) carries the resulting AuditRecord for epoch-by-epoch matching.
	KAudit Kind = 49
)

var kindNames = map[Kind]string{
	KRequest: "Request", KReply: "Reply", KCreateGroup: "CreateGroup",
	KRemoveMember: "RemoveMember", KAddMember: "AddMember",
	KCheckpoint: "Checkpoint", KSyncRequest: "SyncRequest", KSyncState: "SyncState",
	KStateChunk: "StateChunk", KStateManifest: "StateManifest", KAudit: "Audit",
}

// String names the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", byte(k))
}

// ErrBadEnvelope reports an undecodable envelope.
var ErrBadEnvelope = errors.New("replication: bad envelope")

// ConnID names one logical client connection: the entity that dialed, the
// group it dialed, and the ordinal of that dial. Replicas of a replicated
// client, being deterministic, open their nth connection to the same
// group at the same logical time, so all of them produce the same ConnID —
// which is what lets the mechanisms pair up their duplicate invocations.
type ConnID struct {
	Client string
	Group  string
	Seq    uint64
}

// String renders the connection id.
func (c ConnID) String() string { return fmt.Sprintf("%s->%s#%d", c.Client, c.Group, c.Seq) }

// AppendConnID appends c as the state bundle and the filter state spell it:
// Client and Group length-prefixed, then Seq. (The envelope spells its own
// connection more tightly, sharing the group when it can.)
func AppendConnID(b []byte, c ConnID) []byte {
	return binary.AppendUvarint(codec.AppendBytes(codec.AppendBytes(b, c.Client), c.Group), c.Seq)
}

// ReadConnID reads what AppendConnID wrote.
func ReadConnID(r *codec.Reader) ConnID { return ConnID{Client: r.Str(), Group: r.Str(), Seq: r.U64()} }

// compareConnID orders connections by Client, Group, Seq: the order the
// filter state lists them in.
func compareConnID(a, b ConnID) int {
	return cmp.Or(strings.Compare(a.Client, b.Client), strings.Compare(a.Group, b.Group), cmp.Compare(a.Seq, b.Seq))
}

// Envelope is one Eternal message conveyed by the totally-ordered
// multicast.
type Envelope struct {
	Kind Kind
	// Group is the target object group name (empty for KReply, which is
	// addressed by Conn).
	Group string
	// Node is the node an administrative operation concerns (KAddMember,
	// KRemoveMember) or the donor of a state transfer.
	Node string
	// Conn identifies the logical client connection for KRequest/KReply.
	Conn ConnID
	// OpID is the Eternal operation identifier: the logical GIOP
	// request_id of the invocation on its connection. Together with Conn
	// it uniquely identifies an invocation (response) for duplicate
	// suppression (paper §4.3).
	OpID uint32
	// Oneway marks invocations that expect no response.
	Oneway bool
	// XferID correlates a KAddMember/KCheckpoint with the KStateChunk/
	// KStateManifest stream it triggers.
	XferID uint64
	// Trace is the invocation's trace id, the span model's key on every
	// node: TraceID(Conn, OpID) on a KRequest or KReply, 0 (untraced) on
	// every other kind. It is derived, not carried: Encode leaves it out
	// and Decode restates it.
	Trace uint64
	// Payload is the raw IIOP message (KRequest/KReply), the encoded
	// group spec (KCreateGroup), one slice of the encoded state bundle
	// (KStateChunk) or the encoded manifest (KStateManifest).
	Payload []byte
}

// TraceID is the trace id of invocation op on connection conn. Every node
// derives the same id from what a KRequest or KReply already carries, so
// every copy of one logical invocation — a replicated client's included —
// and its reply share it without carrying it. It is FNV-1a over the
// connection (each string behind its length) and then the operation, so
// two operations of one connection never share an id; it is never 0, the
// untraced id.
func TraceID(conn ConnID, op uint32) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, s := range [2]string{conn.Client, conn.Group} {
		h = (h ^ uint64(len(s))) * prime
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
	}
	return max(((h^conn.Seq)*prime^uint64(op))*prime, 1)
}

// The wire layout, in package codec's terms: kind, flags, then Group and
// Node (each only when flagged, so flagged means non-empty), Conn.Client and
// (without flagSameGroup) Conn.Group as length-prefixed strings; Conn.Seq
// and OpID as uvarints; XferID as a uvarint when flagged (so flagged means
// non-zero); then the payload, the rest of the envelope. A KRequest or
// KReply whose payload is a whole big-endian GIOP 1.2 message of its own
// type sends it without the 12-byte header, which flagGIOP restates.
const (
	flagOneway byte = 1 << iota
	// flagSameGroup: Conn.Group equals Group and is not written twice —
	// true of every request a client connection multicasts.
	flagSameGroup
	flagGroup
	flagNode
	flagXfer
	// flagGIOP: the payload's GIOP header is elided (see giopHeader).
	flagGIOP
	flagsKnown = flagOneway | flagSameGroup | flagGroup | flagNode | flagXfer | flagGIOP
)

// giopType is the GIOP message type an invocation's envelope carries: a
// Request in a KRequest, a Reply in a KReply. No other kind carries one.
func giopType(k Kind) (giop.MsgType, bool) {
	switch k {
	case KRequest:
		return giop.MsgRequest, true
	case KReply:
		return giop.MsgReply, true
	}
	return 0, false
}

// giopHeader is the header of a whole big-endian GIOP 1.2 message of type t
// with a body of size bytes: the one header an envelope elides.
func giopHeader(t giop.MsgType, size int) (h [giop.HeaderLen]byte) {
	(&giop.Message{Version: giop.Version12, Order: cdr.BigEndian, Type: t}).AppendHeader(h[:0], size)
	return h
}

// elidable reports whether payload travels without its GIOP header in an
// envelope of kind k.
func elidable(k Kind, payload []byte) bool {
	t, ok := giopType(k)
	return ok && len(payload) >= giop.HeaderLen && uint64(len(payload)-giop.HeaderLen) <= math.MaxUint32 &&
		[giop.HeaderLen]byte(payload) == giopHeader(t, len(payload)-giop.HeaderLen)
}

// Encode serializes the envelope into a fresh buffer.
func (e *Envelope) Encode() []byte {
	b, body := e.appendHeader(make([]byte, 0, 64+len(e.Payload)))
	return append(b, body...)
}

// EncodeTo appends the envelope to enc, so hot paths can encode into a
// pooled encoder (see cdr.AcquireEncoder) instead of allocating per
// envelope. The encoder serves only as a byte buffer: everything before the
// payload is built on the stack and copied in once.
func (e *Envelope) EncodeTo(enc *cdr.Encoder) {
	var hdr [128]byte
	b, body := e.appendHeader(hdr[:0])
	enc.WriteRaw(b)
	enc.WriteRaw(body)
}

// appendHeader appends everything before the payload's bytes, and returns
// the payload's bytes that follow: all of it, or all after its elided GIOP
// header.
func (e *Envelope) appendHeader(b []byte) (_, body []byte) {
	flags, body := byte(0), e.Payload
	if e.Oneway {
		flags |= flagOneway
	}
	if e.Conn.Group == e.Group {
		flags |= flagSameGroup
	}
	if e.Group != "" {
		flags |= flagGroup
	}
	if e.Node != "" {
		flags |= flagNode
	}
	if e.XferID != 0 {
		flags |= flagXfer
	}
	if elidable(e.Kind, body) {
		flags, body = flags|flagGIOP, body[giop.HeaderLen:]
	}
	b = append(b, byte(e.Kind), flags)
	if flags&flagGroup != 0 {
		b = codec.AppendBytes(b, e.Group)
	}
	if flags&flagNode != 0 {
		b = codec.AppendBytes(b, e.Node)
	}
	b = codec.AppendBytes(b, e.Conn.Client)
	if flags&flagSameGroup == 0 {
		b = codec.AppendBytes(b, e.Conn.Group)
	}
	b = binary.AppendUvarint(binary.AppendUvarint(b, e.Conn.Seq), uint64(e.OpID))
	if flags&flagXfer != 0 {
		b = binary.AppendUvarint(b, e.XferID)
	}
	return b, body
}

// Decode parses an envelope. It accepts exactly what EncodeTo writes — a
// live kind, known flags, no flagged field empty or zero, an elidable GIOP
// header elided and no other, shortest varints, a 32-bit OpID, lengths the
// buffer backs — restates the trace id, and copies the payload out of buf.
func Decode(buf []byte) (*Envelope, error) {
	if len(buf) < 2 || kindNames[Kind(buf[0])] == "" || buf[1]&^flagsKnown != 0 {
		return nil, fmt.Errorf("%w: kind and flags % x: unknown, retired or truncated", ErrBadEnvelope, buf[:min(len(buf), 2)])
	}
	flags := buf[1]
	e := &Envelope{Kind: Kind(buf[0]), Oneway: flags&flagOneway != 0}
	r := codec.NewReader(buf[2:])
	if flags&flagGroup != 0 {
		if e.Group = r.Str(); e.Group == "" {
			r.Fail(errors.New("flagged group empty"))
		}
	}
	if flags&flagNode != 0 {
		if e.Node = r.Str(); e.Node == "" {
			r.Fail(errors.New("flagged node empty"))
		}
	}
	e.Conn.Client = r.Str()
	if flags&flagSameGroup != 0 {
		e.Conn.Group = e.Group
	} else if e.Conn.Group = r.Str(); e.Conn.Group == e.Group {
		r.Fail(errors.New("connection's group written out, not flagged"))
	}
	e.Conn.Seq, e.OpID = r.U64(), r.U32()
	if flags&flagXfer != 0 {
		if e.XferID = r.U64(); e.XferID == 0 {
			r.Fail(errors.New("flagged transfer id zero"))
		}
	}
	body := r.Rest()
	if err := r.Done(ErrBadEnvelope); err != nil {
		return nil, err
	}
	t, invocation := giopType(e.Kind)
	switch {
	case flags&flagGIOP == 0 && elidable(e.Kind, body):
		return nil, fmt.Errorf("%w: elidable GIOP header written out", ErrBadEnvelope)
	case flags&flagGIOP == 0:
		e.Payload = bytes.Clone(body)
	case !invocation || uint64(len(body)) > math.MaxUint32:
		return nil, fmt.Errorf("%w: GIOP header elided from a %v envelope", ErrBadEnvelope, e.Kind)
	default:
		hdr := giopHeader(t, len(body))
		e.Payload = append(append(make([]byte, 0, len(hdr)+len(body)), hdr[:]...), body...)
	}
	if invocation {
		e.Trace = TraceID(e.Conn, e.OpID)
	}
	return e, nil
}
