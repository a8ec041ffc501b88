// Package replication implements Eternal's Replication Mechanisms state:
// the envelope protocol that carries IIOP messages and control operations
// over the totally-ordered multicast, the replicated group-metadata state
// machine every node evaluates identically, and the duplicate suppression
// based on Eternal-generated operation identifiers (paper §2.1, §4.3).
package replication

import (
	"errors"
	"fmt"

	"eternal/internal/cdr"
)

// Kind discriminates envelope types on the wire.
type Kind byte

// Envelope kinds.
const (
	// KRequest carries a client's IIOP Request to a server group.
	KRequest Kind = 1
	// KReply carries a server's IIOP Reply back to a logical client
	// connection.
	KReply Kind = 2
	// KCreateGroup creates an object group (control payload:
	// group spec).
	KCreateGroup Kind = 3
	// KRemoveMember removes one replica from a group (replica kill or
	// administrative removal).
	KRemoveMember Kind = 4
	// KAddMember adds a new (recovering) replica to a group. Its position
	// in the total order is the state synchronization point: the paper's
	// get_state() marker (Figure 5 step i).
	KAddMember Kind = 5
	// Kind 6 is retired (the monolithic set_state envelope; every state
	// transfer is KStateChunk + KStateManifest) and is not reused.
	// KCheckpoint is the periodic state-retrieval marker for passive
	// replication (paper §3.3); it triggers get_state() on the primary at
	// a consistent point in the total order.
	KCheckpoint Kind = 7
	// KSyncRequest asks for the group-metadata table, once per view: Node
	// is the requester, Conn.Client/Conn.Seq the view's representative and
	// epoch. Its delivery position defines the snapshot point — or, once
	// every member has asked, the cold start (doc/PROTOCOL.md §2).
	KSyncRequest Kind = 8
	// KSyncState carries the table snapshot taken at the matching
	// KSyncRequest's position, which XferID names.
	KSyncState Kind = 9
	// KStateChunk carries one bounded slice of the encoded state bundle —
	// application-level state with ORB-level and infrastructure-level
	// state piggybacked (Figure 5 steps iii–v) — streamed ahead of its
	// KStateManifest and interleaved with foreground traffic. OpID is the
	// chunk index within the transfer XferID; Node is the donor.
	KStateChunk Kind = 10
	// KStateManifest is the state transfer's sync point, the paper's
	// set_state: it closes the transfer XferID at one position in the
	// total order and carries the manifest — chunk count, chunk size, and
	// per-chunk checksums — the receiver uses to validate and assemble the
	// streamed chunks.
	KStateManifest Kind = 11
	// KStateRetransmit asks the donor (or any node holding the transfer
	// cached) to re-multicast the listed chunk indexes of transfer
	// XferID. Node is the requester; the payload is an encoded index
	// list.
	KStateRetransmit Kind = 12
	// KAudit carries the live consistency audit. OpID discriminates the
	// two phases: an AuditMark (sent by the group's primary) fixes an
	// audit epoch at its own delivery position — every instance-bearing
	// member digests its state at exactly that point in the total order —
	// and an AuditReport (one per member, XferID = the mark's delivery
	// seq) carries the resulting AuditRecord for epoch-by-epoch matching.
	KAudit Kind = 13
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

// Encode serializes the envelope into a fresh buffer.
func (e *Envelope) Encode() []byte {
	enc := cdr.NewEncoder(cdr.BigEndian)
	e.EncodeTo(enc)
	return enc.Bytes()
}

// EncodeTo serializes the envelope into enc, so hot paths can encode into
// a pooled encoder (see cdr.AcquireEncoder) instead of allocating per
// envelope.
func (e *Envelope) EncodeTo(enc *cdr.Encoder) {
	enc.WriteOctet(byte(e.Kind))
	enc.WriteString(e.Group)
	enc.WriteString(e.Node)
	enc.WriteString(e.Conn.Client)
	enc.WriteString(e.Conn.Group)
	enc.WriteULongLong(e.Conn.Seq)
	enc.WriteULong(e.OpID)
	enc.WriteBoolean(e.Oneway)
	enc.WriteULongLong(e.XferID)
	enc.WriteULongLong(e.Trace)
	enc.WriteOctetSeq(e.Payload)
}

// Decode parses an envelope.
func Decode(buf []byte) (*Envelope, error) {
	d := cdr.NewDecoder(buf, cdr.BigEndian)
	var e Envelope
	k, err := d.ReadOctet()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	e.Kind = Kind(k)
	if _, ok := kindNames[e.Kind]; !ok {
		return nil, fmt.Errorf("%w: unknown kind %d", ErrBadEnvelope, k)
	}
	if e.Group, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if e.Node, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if e.Conn.Client, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if e.Conn.Group, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if e.Conn.Seq, err = d.ReadULongLong(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if e.OpID, err = d.ReadULong(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if e.Oneway, err = d.ReadBoolean(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if e.XferID, err = d.ReadULongLong(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if e.Trace, err = d.ReadULongLong(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	if e.Payload, err = d.ReadOctetSeq(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadEnvelope, err)
	}
	return &e, nil
}
