// Package replication implements Eternal's Replication Mechanisms state:
// the envelope protocol that carries IIOP messages and control operations
// over the totally-ordered multicast, the replicated group-metadata state
// machine every node evaluates identically, and the duplicate suppression
// based on Eternal-generated operation identifiers (paper §2.1, §4.3).
package replication

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"eternal/internal/cdr"
)

// Kind discriminates envelope types on the wire.
type Kind byte

// Envelope kinds: the first byte of every envelope. 1–13 are retired and not
// reused — 6, the monolithic set_state envelope, and the CDR layouts of the
// kinds below — so a node still writing CDR envelopes and this one reject
// each other's at the first byte.
const (
	// KRequest carries a client's IIOP Request to a server group.
	KRequest Kind = 14
	// KReply carries a server's IIOP Reply back to a logical client
	// connection.
	KReply Kind = 15
	// KCreateGroup creates an object group (control payload:
	// group spec).
	KCreateGroup Kind = 16
	// KRemoveMember removes one replica from a group (replica kill or
	// administrative removal).
	KRemoveMember Kind = 17
	// KAddMember adds a new (recovering) replica to a group. Its position
	// in the total order is the state synchronization point: the paper's
	// get_state() marker (Figure 5 step i).
	KAddMember Kind = 18
	// KCheckpoint is the periodic state-retrieval marker for passive
	// replication (paper §3.3); it triggers get_state() on the primary at
	// a consistent point in the total order.
	KCheckpoint Kind = 19
	// KSyncRequest asks for the group-metadata table, once per view: Node
	// is the requester, Conn.Client/Conn.Seq the view's representative and
	// epoch. Its delivery position defines the snapshot point — or, once
	// every member has asked, the cold start (doc/PROTOCOL.md §2).
	KSyncRequest Kind = 20
	// KSyncState carries the table snapshot taken at the matching
	// KSyncRequest's position, which XferID names.
	KSyncState Kind = 21
	// KStateChunk carries one bounded slice of the encoded state bundle —
	// application-level state with ORB-level and infrastructure-level
	// state piggybacked (Figure 5 steps iii–v) — streamed ahead of its
	// KStateManifest and interleaved with foreground traffic. OpID is the
	// chunk index within the transfer XferID; Node is the donor.
	KStateChunk Kind = 22
	// KStateManifest is the state transfer's sync point, the paper's
	// set_state: it closes the transfer XferID at one position in the
	// total order and carries the manifest — chunk count, chunk size, and
	// per-chunk checksums — the receiver uses to validate and assemble the
	// streamed chunks.
	KStateManifest Kind = 23
	// KStateRetransmit asks the donor (or any node holding the transfer
	// cached) to re-multicast the listed chunk indexes of transfer
	// XferID. Node is the requester; the payload is an encoded index
	// list.
	KStateRetransmit Kind = 24
	// KAudit carries the live consistency audit. OpID discriminates the
	// two phases: an AuditMark (sent by the group's primary) fixes an
	// audit epoch at its own delivery position — every instance-bearing
	// member digests its state at exactly that point in the total order —
	// and an AuditReport (one per member, XferID = the mark's delivery
	// seq) carries the resulting AuditRecord for epoch-by-epoch matching.
	KAudit Kind = 25
)

var kindNames = map[Kind]string{
	KRequest: "Request", KReply: "Reply", KCreateGroup: "CreateGroup",
	KRemoveMember: "RemoveMember", KAddMember: "AddMember",
	KCheckpoint: "Checkpoint", KSyncRequest: "SyncRequest", KSyncState: "SyncState",
	KStateChunk: "StateChunk", KStateManifest: "StateManifest",
	KStateRetransmit: "StateRetransmit", KAudit: "Audit",
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

// The wire layout, unaligned: kind, flags, then Group, Node, Conn.Client and
// (without flagSameGroup) Conn.Group as uvarint length and bytes; Conn.Seq,
// OpID, XferID as uvarints; Trace as 8 big-endian bytes (its high half is a
// node hash, 10 bytes as a uvarint); the payload, length and bytes.
const (
	flagOneway byte = 1 << iota
	// flagSameGroup: Conn.Group equals Group and is not written twice —
	// true of every request a client connection multicasts.
	flagSameGroup
)

// Encode serializes the envelope into a fresh buffer.
func (e *Envelope) Encode() []byte {
	enc := cdr.NewEncoder(cdr.BigEndian)
	e.EncodeTo(enc)
	return enc.Bytes()
}

// EncodeTo appends the envelope to enc, so hot paths can encode into a
// pooled encoder (see cdr.AcquireEncoder) instead of allocating per
// envelope. The encoder serves only as a byte buffer: everything before the
// payload is built on the stack and copied in once.
func (e *Envelope) EncodeTo(enc *cdr.Encoder) {
	flags := byte(0)
	if e.Oneway {
		flags |= flagOneway
	}
	if e.Conn.Group == e.Group {
		flags |= flagSameGroup
	}
	var hdr [128]byte
	b := appendBytes(append(hdr[:0], byte(e.Kind), flags), e.Group)
	b = appendBytes(appendBytes(b, e.Node), e.Conn.Client)
	if flags&flagSameGroup == 0 {
		b = appendBytes(b, e.Conn.Group)
	}
	b = binary.AppendUvarint(binary.AppendUvarint(b, e.Conn.Seq), uint64(e.OpID))
	b = binary.BigEndian.AppendUint64(binary.AppendUvarint(b, e.XferID), e.Trace)
	enc.WriteRaw(binary.AppendUvarint(b, uint64(len(e.Payload))))
	enc.WriteRaw(e.Payload)
}

func appendBytes(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// Decode parses an envelope. It accepts exactly what EncodeTo writes — a
// live kind, known flags, shortest varints, a 32-bit OpID, lengths the
// buffer backs, no trailing bytes — and copies the payload out of buf.
func Decode(buf []byte) (*Envelope, error) {
	if len(buf) < 2 || kindNames[Kind(buf[0])] == "" || buf[1]&^(flagOneway|flagSameGroup) != 0 {
		return nil, fmt.Errorf("%w: kind and flags % x: unknown, retired or truncated", ErrBadEnvelope, buf[:min(len(buf), 2)])
	}
	e := &Envelope{Kind: Kind(buf[0]), Oneway: buf[1]&flagOneway != 0}
	r := reader{b: buf[2:]}
	e.Group, e.Node, e.Conn.Client = r.str(), r.str(), r.str()
	if buf[1]&flagSameGroup != 0 {
		e.Conn.Group = e.Group
	} else if e.Conn.Group = r.str(); r.err == nil && e.Conn.Group == e.Group {
		r.err = errors.New("connection's group written out, not flagged")
	}
	seq, op, xfer := r.u64(), r.u64(), r.u64()
	if r.err == nil && op > math.MaxUint32 {
		r.err = errors.New("operation id overflows 32 bits")
	}
	e.Conn.Seq, e.OpID, e.XferID = seq, uint32(op), xfer
	if t := r.take(8); t != nil {
		e.Trace = binary.BigEndian.Uint64(t)
	}
	if e.Payload = bytes.Clone(r.take(r.u64())); r.err == nil && len(r.b) > 0 {
		r.err = errors.New("trailing bytes")
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, r.err)
	}
	return e, nil
}

// reader reads fields off an envelope until the first error, which sticks:
// every later read returns zero.
type reader struct {
	b   []byte
	err error
}

// u64 reads a uvarint of at most ten bytes and none spare (0x80 0x00 is not
// a second way to write 0).
func (r *reader) u64() uint64 {
	v, n := binary.Uvarint(r.b)
	if r.err == nil && (n <= 0 || n > 1 && r.b[n-1] == 0) {
		r.err = errors.New("truncated or malformed varint")
	}
	if r.err != nil {
		return 0
	}
	r.b = r.b[n:]
	return v
}

// take reads n bytes, aliasing the envelope.
func (r *reader) take(n uint64) []byte {
	if r.err == nil && n > uint64(len(r.b)) {
		r.err = errors.New("length exceeds the bytes that follow")
	}
	if r.err != nil {
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) str() string { return string(r.take(r.u64())) }
