// Package recovery implements Eternal's Recovery Mechanisms state: the
// three-kind state bundle that travels in a set_state message
// (application-level state with ORB/POA-level and infrastructure-level
// state piggybacked, paper §4), and the checkpoint + message log used by
// passive replication (paper §3.3).
package recovery

import (
	"bytes"
	"encoding/binary"
	"errors"

	"eternal/internal/codec"
	"eternal/internal/replication"
)

// ServerConnState is the server-side ORB/POA-level state of one logical
// client connection (paper §4.2): the client's stored handshake message —
// replayed into a new replica's ORB ahead of any other request so the ORB
// initializes its negotiated state (§4.2.2) — and the last-seen request
// id.
type ServerConnState struct {
	Conn replication.ConnID
	// Handshake is the raw IIOP request that carried the client's initial
	// negotiation (the connection's first request).
	Handshake []byte
	// LastRequestID is the highest logical request id seen on the
	// connection.
	LastRequestID uint32
}

// ClientConnState is the client-side ORB-level state of one outgoing
// logical connection (paper §4.2.1): the group's logical request_id
// counter, transferred so that a recovered replica's mechanisms can map
// its fresh ORB's ids onto the group's.
type ClientConnState struct {
	Conn replication.ConnID
	// NextRequestID is the next logical request id the connection will
	// assign.
	NextRequestID uint32
}

// ORBState is the piggybacked ORB/POA-level state of one replica.
type ORBState struct {
	ServerConns []ServerConnState
	ClientConns []ClientConnState
}

// InfraState is the piggybacked infrastructure-level state (paper §4.3):
// the duplicate-suppression high-water marks for invocations delivered to
// the group and for responses delivered to the group's own outgoing
// connections.
type InfraState struct {
	RequestFilter []byte // replication.EncodeFilterState
	ReplyFilter   []byte // replication.EncodeFilterState
}

// Bundle is everything a set_state message carries: the retrieved
// application-level state plus the two piggybacked kinds. Assignment
// order at the new replica is application first, then ORB/POA, then
// infrastructure, before the replica processes anything (paper §4.3).
type Bundle struct {
	// AppState is the marshaled `any` returned by get_state().
	AppState []byte
	ORB      ORBState
	Infra    InfraState
	// CaptureNanos is the donor-measured duration of the get_state()
	// retrieval, in nanoseconds. It rides in the bundle so the recovering
	// node can split its observed wait into capture vs transfer time —
	// the live form of the paper's Figure 6 decomposition.
	CaptureNanos int64
}

// ErrBadBundle reports an undecodable state bundle.
var ErrBadBundle = errors.New("recovery: bad state bundle")

// Encode serializes the bundle: AppState length-prefixed; the server
// connections as a list of (AppendConnID, handshake length-prefixed,
// LastRequestID); the client connections as a list of (AppendConnID,
// NextRequestID); the two filter states length-prefixed; CaptureNanos as a
// uvarint (a negative one as its 64-bit two's complement).
func (b *Bundle) Encode() []byte {
	// From nil, append sizes the buffer to AppState without zeroing it first,
	// as make would: a megabyte's copy, not two.
	out := binary.AppendUvarint(codec.AppendBytes(nil, b.AppState), uint64(len(b.ORB.ServerConns)))
	for _, sc := range b.ORB.ServerConns {
		out = codec.AppendBytes(replication.AppendConnID(out, sc.Conn), sc.Handshake)
		out = binary.AppendUvarint(out, uint64(sc.LastRequestID))
	}
	out = binary.AppendUvarint(out, uint64(len(b.ORB.ClientConns)))
	for _, cc := range b.ORB.ClientConns {
		out = binary.AppendUvarint(replication.AppendConnID(out, cc.Conn), uint64(cc.NextRequestID))
	}
	out = codec.AppendBytes(codec.AppendBytes(out, b.Infra.RequestFilter), b.Infra.ReplyFilter)
	return binary.AppendUvarint(out, uint64(b.CaptureNanos))
}

// DecodeBundle parses a serialized bundle, accepting exactly what Encode
// writes. Everything it returns is copied out of buf.
func DecodeBundle(buf []byte) (*Bundle, error) {
	r := codec.NewReader(buf)
	b := &Bundle{AppState: bytes.Clone(r.Bytes())}
	// A server connection is at least five bytes (two empty names, a seq, an
	// empty handshake, an id), a client connection four.
	if n := r.Count(5); n > 0 {
		b.ORB.ServerConns = make([]ServerConnState, n)
	}
	for i := range b.ORB.ServerConns {
		b.ORB.ServerConns[i] = ServerConnState{Conn: replication.ReadConnID(&r), Handshake: bytes.Clone(r.Bytes()), LastRequestID: r.U32()}
	}
	if n := r.Count(4); n > 0 {
		b.ORB.ClientConns = make([]ClientConnState, n)
	}
	for i := range b.ORB.ClientConns {
		b.ORB.ClientConns[i] = ClientConnState{Conn: replication.ReadConnID(&r), NextRequestID: r.U32()}
	}
	b.Infra = InfraState{RequestFilter: bytes.Clone(r.Bytes()), ReplyFilter: bytes.Clone(r.Bytes())}
	b.CaptureNanos = int64(r.U64())
	if err := r.Done(ErrBadBundle); err != nil {
		return nil, err
	}
	return b, nil
}
