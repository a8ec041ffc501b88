package totem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Packet type discriminants: the first byte of every frame. What follows is
// the compact layout — integers are uvarints, strings and payloads carry a
// uvarint length, nothing is padded or terminated. 1–8 are retired and are
// not reused: 1 and 8 (the pre-packing single-chunk data frame; the frame
// that forwarded chunks to a ring leader for sequencing), and 2–7, the CDR
// layouts of the six types below. A frame of a retired type is a bad packet.
const (
	ptPacked   byte = 9
	ptToken    byte = 10
	ptJoin     byte = 11
	ptForm     byte = 12
	ptAnnounce byte = 13
	ptHurry    byte = 14
)

// ErrBadPacket reports an undecodable totem packet.
var ErrBadPacket = errors.New("totem: bad packet")

// ringIdentity names one ring incarnation. Epoch increases on every
// reformation; Rep is the representative that formed the ring. The pair is
// globally unique even across network partitions (two partitions may pick
// the same epoch but never the same representative).
type ringIdentity struct {
	Epoch uint64
	Rep   string
}

func (r ringIdentity) String() string { return fmt.Sprintf("ring(%d@%s)", r.Epoch, r.Rep) }

func (r ringIdentity) isZero() bool { return r.Epoch == 0 && r.Rep == "" }

// chunk is one application-message chunk: a whole small message
// (FragTotal == 1) or one MTU-sized fragment of a large one (paper §6:
// IIOP messages larger than one Ethernet frame travel as multiple
// multicast messages).
type chunk struct {
	Sender    string
	MsgID     uint64
	FragIdx   uint32
	FragTotal uint32
	Payload   []byte
}

// dataMsg is one totally-ordered data frame (ptPacked): a single sequence
// number carrying one or more chunks — Totem's message packing, which
// lets many sub-MTU messages share one frame and one sequence number
// while the sender holds the token. A frame with no chunks is the local
// tombstone for an unrecoverable sequence number; tombstones never go on
// the wire, and decodePacket rejects a chunkless frame.
type dataMsg struct {
	Ring   ringIdentity
	Seq    uint64
	Chunks []chunk
}

// tokenMsg is the rotating token: it carries the high sequence number, the
// all-received-up-to aggregation, the garbage-collection point, and the
// retransmission request list.
type tokenMsg struct {
	Ring      ringIdentity
	Round     uint64
	Seq       uint64
	Aru       uint64
	AruSetter string
	GCSeq     uint64
	// IdleHops counts consecutive hops on which the holder had nothing to
	// send, retransmit or request; after a full idle rotation, holders
	// pace the token to one hop per tick instead of spinning at wire
	// speed (Totem's token idling).
	IdleHops uint32
	Rtr      []uint64
}

// hurryMsg is the token hurry nudge: a member that enqueues a message
// while the ring is idle-paced broadcasts one so the current holder
// releases its parked token immediately and every hop crosses at wire
// speed until the enqueuer is served. Broadcast rather than unicast
// because the enqueuer does not track who holds the parked token; on the
// broadcast LAN the protocol models, reaching everyone costs the same
// single frame as reaching the holder.
type hurryMsg struct {
	Ring   ringIdentity
	Origin string
}

// announceMsg is a low-rate beacon broadcast by the ring representative so
// that rings which cannot hear each other's (unicast) tokens discover each
// other after a partition heals and merge.
type announceMsg struct {
	Ring ringIdentity
}

// joinMsg is broadcast while gathering membership.
type joinMsg struct {
	Sender   string
	Alive    []string
	PrevRing ringIdentity
	HighSeq  uint64
	MaxEpoch uint64
}

// formMsg installs a new ring. Members whose previous ring identity equals
// Lineage continue the sequence space; everyone else resets to StartSeq.
type formMsg struct {
	Ring     ringIdentity
	Members  []string
	Lineage  ringIdentity
	StartSeq uint64
}

// wireMsg is any totem message. appendTo appends its encoding to b, so a
// sender encodes every frame into one reused buffer (Processor.encode).
type wireMsg interface {
	appendTo(b []byte) []byte
}

// appendBytes appends a length-prefixed string or payload.
func appendBytes[T string | []byte](b []byte, s T) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendRing(b []byte, r ringIdentity) []byte {
	return appendBytes(binary.AppendUvarint(b, r.Epoch), r.Rep)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendBytes(b, s)
	}
	return b
}

// Wire-size bounds the packer (sendPending) and the fragmenter (submit) size
// frames by without a trial encode, from the codec's largest encodings: a
// uvarint takes at most 10 bytes for a 64-bit value and 5 for a 32-bit one,
// lengths and counts included; a name is a transport address, at most
// maxNameLen bytes, so its length takes 1. The frame bound holds the longest
// representative name, so a frame re-tagged with any ring identity on
// retransmission still fits the MTU it was packed for.
// TestWireCostBoundsEncodedSize pins estimate >= encoded size.
const (
	maxNameLen   = 64
	maxUvarint32 = 5
	// packedFrameOverhead bounds the frame header: type octet, ring epoch,
	// representative name, sequence number and chunk count.
	packedFrameOverhead = 1 + binary.MaxVarintLen64 + 1 + maxNameLen + binary.MaxVarintLen64 + maxUvarint32
	// packedChunkOverhead bounds one chunk's encoding beyond its sender
	// name and payload bytes.
	packedChunkOverhead = 1 + binary.MaxVarintLen64 + 2*maxUvarint32 + maxUvarint32
)

// wireCost bounds the bytes c adds to a packed frame.
func (c *chunk) wireCost() int { return packedChunkOverhead + len(c.Sender) + len(c.Payload) }

func (m *dataMsg) appendTo(b []byte) []byte {
	b = appendRing(append(b, ptPacked), m.Ring)
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendUvarint(b, uint64(len(m.Chunks)))
	for i := range m.Chunks {
		c := &m.Chunks[i]
		b = appendBytes(b, c.Sender)
		b = binary.AppendUvarint(b, c.MsgID)
		b = binary.AppendUvarint(b, uint64(c.FragIdx))
		b = binary.AppendUvarint(b, uint64(c.FragTotal))
		b = appendBytes(b, c.Payload)
	}
	return b
}

func (m *tokenMsg) appendTo(b []byte) []byte {
	b = appendRing(append(b, ptToken), m.Ring)
	b = binary.AppendUvarint(b, m.Round)
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendUvarint(b, m.Aru)
	b = appendBytes(b, m.AruSetter)
	b = binary.AppendUvarint(b, m.GCSeq)
	b = binary.AppendUvarint(b, uint64(m.IdleHops))
	b = binary.AppendUvarint(b, uint64(len(m.Rtr)))
	for _, s := range m.Rtr {
		b = binary.AppendUvarint(b, s)
	}
	return b
}

func (m *joinMsg) appendTo(b []byte) []byte {
	b = appendBytes(append(b, ptJoin), m.Sender)
	b = appendStrings(b, m.Alive)
	b = appendRing(b, m.PrevRing)
	b = binary.AppendUvarint(b, m.HighSeq)
	return binary.AppendUvarint(b, m.MaxEpoch)
}

func (m *announceMsg) appendTo(b []byte) []byte { return appendRing(append(b, ptAnnounce), m.Ring) }

func (m *hurryMsg) appendTo(b []byte) []byte {
	return appendBytes(appendRing(append(b, ptHurry), m.Ring), m.Origin)
}

func (m *formMsg) appendTo(b []byte) []byte {
	b = appendRing(append(b, ptForm), m.Ring)
	b = appendStrings(b, m.Members)
	b = appendRing(b, m.Lineage)
	return binary.AppendUvarint(b, m.StartSeq)
}

var (
	errShort   = errors.New("truncated")
	errVarint  = errors.New("malformed varint")
	errCount   = errors.New("count exceeds the bytes that follow")
	errUint32  = errors.New("value overflows 32 bits")
	errNoChunk = errors.New("data frame with no chunks")
)

// reader reads fields off a packet until the first error, which sticks:
// every later read returns zero, and decodePacket reports the error once.
type reader struct {
	b   []byte
	err error
}

// u64 reads a uvarint of at most ten bytes and none spare (0x80 0x00 is
// not a second way to write 0), so an accepted packet is the one encoding
// of its message.
func (r *reader) u64() uint64 {
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

func (r *reader) u32() uint32 {
	v := r.u64()
	if v > math.MaxUint32 {
		r.err = errUint32
		return 0
	}
	return uint32(v)
}

// bytes reads a length-prefixed run. It aliases the packet buffer (no
// copy); chunk payloads rely on that, which is safe because nothing in the
// delivery path mutates them and the packet buffer is immutable once
// received.
func (r *reader) bytes() []byte {
	n := r.u64()
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

func (r *reader) str() string { return string(r.bytes()) }

func (r *reader) ring() ringIdentity { return ringIdentity{Epoch: r.u64(), Rep: r.str()} }

// count reads an element count and rejects one the rest of the packet
// cannot hold at min bytes an element: a hostile frame sizes no allocation.
func (r *reader) count(min int) int {
	n := r.u64()
	if r.err == nil && n > uint64(len(r.b)/min) {
		r.err = errCount
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

func (r *reader) strs() []string {
	out := make([]string, r.count(1)) // an empty name is its 1-byte length
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *reader) chunk() chunk {
	return chunk{Sender: r.str(), MsgID: r.u64(), FragIdx: r.u32(), FragTotal: r.u32(), Payload: r.bytes()}
}

// decodePacket parses any totem packet, returning one of *dataMsg,
// *tokenMsg, *joinMsg, *formMsg, *announceMsg or *hurryMsg. It accepts
// exactly what appendTo writes: no trailing bytes, no value a field cannot
// hold, no count the packet cannot back. Chunk payloads in the returned
// dataMsg alias buf.
func decodePacket(buf []byte) (msg any, err error) {
	if len(buf) == 0 {
		return nil, fmt.Errorf("%w: empty", ErrBadPacket)
	}
	r := reader{b: buf[1:]}
	switch buf[0] {
	case ptPacked:
		m := &dataMsg{Ring: r.ring(), Seq: r.u64()}
		// A chunk takes at least five bytes: four one-byte uvarints and a
		// one-byte name length.
		n := r.count(5)
		if r.err == nil && n == 0 {
			// A chunkless frame is the local tombstone; accepted off the
			// wire it would make this member skip a sequence number its
			// peers deliver.
			r.err = errNoChunk
		}
		if r.err == nil {
			m.Chunks = make([]chunk, n)
		}
		for i := range m.Chunks {
			m.Chunks[i] = r.chunk()
		}
		msg = m
	case ptToken:
		m := &tokenMsg{Ring: r.ring(), Round: r.u64(), Seq: r.u64(), Aru: r.u64(),
			AruSetter: r.str(), GCSeq: r.u64(), IdleHops: r.u32()}
		if n := r.count(1); n > 0 {
			m.Rtr = make([]uint64, n)
			for i := range m.Rtr {
				m.Rtr[i] = r.u64()
			}
		}
		msg = m
	case ptJoin:
		msg = &joinMsg{Sender: r.str(), Alive: r.strs(), PrevRing: r.ring(), HighSeq: r.u64(), MaxEpoch: r.u64()}
	case ptForm:
		msg = &formMsg{Ring: r.ring(), Members: r.strs(), Lineage: r.ring(), StartSeq: r.u64()}
	case ptAnnounce:
		msg = &announceMsg{Ring: r.ring()}
	case ptHurry:
		msg = &hurryMsg{Ring: r.ring(), Origin: r.str()}
	default:
		return nil, fmt.Errorf("%w: unknown or retired type %d", ErrBadPacket, buf[0])
	}
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPacket, r.err)
	}
	return msg, nil
}
