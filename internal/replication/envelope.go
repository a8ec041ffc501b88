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
	"strings"

	"eternal/internal/cdr"
	"eternal/internal/codec"
)

// Kind discriminates envelope types on the wire.
type Kind byte

// Envelope kinds: the first byte of every envelope. 1–25 and 36 are retired
// and not reused — 6, the monolithic set_state envelope; 1–13, the CDR
// layouts of the kinds below; 14–25, the same kinds when the spec, table,
// bundle, manifest and index list they carry were still CDR — so a node of
// either older layout and this one reject each other's envelopes at the
// first byte. 36 was the retransmit-by-index request for a state chunk: a
// state transfer now trusts Totem's delivery, and a node still sending the
// request has it rejected at the first byte like the rest.
const (
	// KRequest carries a client's IIOP Request to a server group.
	KRequest Kind = 26
	// KReply carries a server's IIOP Reply back to a logical client
	// connection.
	KReply Kind = 27
	// KCreateGroup creates an object group (control payload:
	// group spec).
	KCreateGroup Kind = 28
	// KRemoveMember removes one replica from a group (replica kill or
	// administrative removal).
	KRemoveMember Kind = 29
	// KAddMember adds a new (recovering) replica to a group. Its position
	// in the total order is the state synchronization point: the paper's
	// get_state() marker (Figure 5 step i).
	KAddMember Kind = 30
	// KCheckpoint is the periodic state-retrieval marker for passive
	// replication (paper §3.3); it triggers get_state() on the primary at
	// a consistent point in the total order.
	KCheckpoint Kind = 31
	// KSyncRequest asks for the group-metadata table, once per view: Node
	// is the requester, Conn.Client/Conn.Seq the view's representative and
	// epoch. Its delivery position defines the snapshot point — or, once
	// every member has asked, the cold start (doc/PROTOCOL.md §2).
	KSyncRequest Kind = 32
	// KSyncState carries the table snapshot taken at the matching
	// KSyncRequest's position, which XferID names.
	KSyncState Kind = 33
	// KStateChunk carries one bounded slice of the encoded state bundle —
	// application-level state with ORB-level and infrastructure-level
	// state piggybacked (Figure 5 steps iii–v) — streamed ahead of its
	// KStateManifest and interleaved with foreground traffic. OpID is the
	// chunk index within the transfer XferID; Node is the donor.
	KStateChunk Kind = 34
	// KStateManifest is the state transfer's sync point, the paper's
	// set_state: it closes the transfer XferID at one position in the
	// total order and carries the manifest — chunk count, chunk size, and
	// per-chunk checksums — the receiver uses to validate and assemble the
	// streamed chunks.
	KStateManifest Kind = 35
	// KAudit carries the live consistency audit. OpID discriminates the
	// two phases: an AuditMark (sent by the group's primary) fixes an
	// audit epoch at its own delivery position — every instance-bearing
	// member digests its state at exactly that point in the total order —
	// and an AuditReport (one per member, XferID = the mark's delivery
	// seq) carries the resulting AuditRecord for epoch-by-epoch matching.
	KAudit Kind = 37
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
	// Trace is the Eternal-assigned trace id stamped at interception (0
	// when untraced): every hop of the invocation — and its KReply —
	// carries it, so each node's span journal can reconstruct the
	// message's lifecycle timeline.
	Trace uint64
	// Payload is the raw IIOP message (KRequest/KReply), the encoded
	// group spec (KCreateGroup), one slice of the encoded state bundle
	// (KStateChunk) or the encoded manifest (KStateManifest).
	Payload []byte
}

// The wire layout, in package codec's terms: kind, flags, then Group, Node,
// Conn.Client and (without flagSameGroup) Conn.Group as length-prefixed
// strings; Conn.Seq, OpID, XferID as uvarints; Trace as 8 big-endian bytes
// (its high half is a node hash, 10 bytes as a uvarint); the payload,
// length-prefixed.
const (
	flagOneway byte = 1 << iota
	// flagSameGroup: Conn.Group equals Group and is not written twice —
	// true of every request a client connection multicasts.
	flagSameGroup
)

// Encode serializes the envelope into a fresh buffer.
func (e *Envelope) Encode() []byte {
	return append(e.appendHeader(make([]byte, 0, 64+len(e.Payload))), e.Payload...)
}

// EncodeTo appends the envelope to enc, so hot paths can encode into a
// pooled encoder (see cdr.AcquireEncoder) instead of allocating per
// envelope. The encoder serves only as a byte buffer: everything before the
// payload is built on the stack and copied in once.
func (e *Envelope) EncodeTo(enc *cdr.Encoder) {
	var hdr [128]byte
	enc.WriteRaw(e.appendHeader(hdr[:0]))
	enc.WriteRaw(e.Payload)
}

// appendHeader appends everything before the payload's bytes.
func (e *Envelope) appendHeader(b []byte) []byte {
	flags := byte(0)
	if e.Oneway {
		flags |= flagOneway
	}
	if e.Conn.Group == e.Group {
		flags |= flagSameGroup
	}
	b = codec.AppendBytes(append(b, byte(e.Kind), flags), e.Group)
	b = codec.AppendBytes(codec.AppendBytes(b, e.Node), e.Conn.Client)
	if flags&flagSameGroup == 0 {
		b = codec.AppendBytes(b, e.Conn.Group)
	}
	b = binary.AppendUvarint(binary.AppendUvarint(b, e.Conn.Seq), uint64(e.OpID))
	b = binary.BigEndian.AppendUint64(binary.AppendUvarint(b, e.XferID), e.Trace)
	return binary.AppendUvarint(b, uint64(len(e.Payload)))
}

// Decode parses an envelope. It accepts exactly what EncodeTo writes — a
// live kind, known flags, shortest varints, a 32-bit OpID, lengths the
// buffer backs, no trailing bytes — and copies the payload out of buf.
func Decode(buf []byte) (*Envelope, error) {
	if len(buf) < 2 || kindNames[Kind(buf[0])] == "" || buf[1]&^(flagOneway|flagSameGroup) != 0 {
		return nil, fmt.Errorf("%w: kind and flags % x: unknown, retired or truncated", ErrBadEnvelope, buf[:min(len(buf), 2)])
	}
	e := &Envelope{Kind: Kind(buf[0]), Oneway: buf[1]&flagOneway != 0}
	r := codec.NewReader(buf[2:])
	e.Group, e.Node, e.Conn.Client = r.Str(), r.Str(), r.Str()
	if buf[1]&flagSameGroup != 0 {
		e.Conn.Group = e.Group
	} else if e.Conn.Group = r.Str(); e.Conn.Group == e.Group {
		r.Fail(errors.New("connection's group written out, not flagged"))
	}
	e.Conn.Seq, e.OpID, e.XferID = r.U64(), r.U32(), r.U64()
	if t := r.Take(8); t != nil {
		e.Trace = binary.BigEndian.Uint64(t)
	}
	e.Payload = bytes.Clone(r.Bytes())
	if err := r.Done(ErrBadEnvelope); err != nil {
		return nil, err
	}
	return e, nil
}
