package totem

import (
	"errors"
	"fmt"

	"eternal/internal/cdr"
)

// packet type discriminants on the wire. 1 and 8 are retired (the
// pre-packing single-chunk data frame; the frame that forwarded chunks to
// a ring leader for sequencing) and are not reused.
const (
	ptToken    byte = 2
	ptJoin     byte = 3
	ptForm     byte = 4
	ptAnnounce byte = 5
	ptPacked   byte = 6
	ptHurry    byte = 7
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

// wireMsg is any totem message that can encode itself into a CDR stream.
// Encoding appends into a caller-supplied encoder so senders can reuse
// pooled buffers (see Processor.bcastMsg/sendMsg).
type wireMsg interface {
	encodeTo(e *cdr.Encoder)
}

func encodeRing(e *cdr.Encoder, r ringIdentity) {
	e.WriteULongLong(r.Epoch)
	e.WriteString(r.Rep)
}

func encodeStrings(e *cdr.Encoder, ss []string) {
	e.WriteULong(uint32(len(ss)))
	for _, s := range ss {
		e.WriteString(s)
	}
}

func encodeChunk(e *cdr.Encoder, c *chunk) {
	e.WriteString(c.Sender)
	e.WriteULongLong(c.MsgID)
	e.WriteULong(c.FragIdx)
	e.WriteULong(c.FragTotal)
	e.WriteOctetSeq(c.Payload)
}

// Conservative wire-size bounds used by the packer (sendPending) to keep a
// packed frame within the transport MTU without a trial encode. Both
// over-estimate CDR alignment padding slightly; precision is not needed,
// only the guarantee that estimate >= encoded size.
const (
	// packedFrameOverhead bounds the frame header: type octet, ring
	// identity (minus the representative name, added by the caller),
	// sequence number and chunk count.
	packedFrameOverhead = 48
	// packedChunkOverhead bounds one chunk's encoding beyond its sender
	// name and payload bytes.
	packedChunkOverhead = 48
)

// wireCost conservatively bounds the bytes c adds to a packed frame.
func (c *chunk) wireCost() int { return packedChunkOverhead + len(c.Sender) + len(c.Payload) }

func (m *dataMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptPacked)
	encodeRing(e, m.Ring)
	e.WriteULongLong(m.Seq)
	e.WriteULong(uint32(len(m.Chunks)))
	for i := range m.Chunks {
		encodeChunk(e, &m.Chunks[i])
	}
}

func (m *tokenMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptToken)
	encodeRing(e, m.Ring)
	e.WriteULongLong(m.Round)
	e.WriteULongLong(m.Seq)
	e.WriteULongLong(m.Aru)
	e.WriteString(m.AruSetter)
	e.WriteULongLong(m.GCSeq)
	e.WriteULong(m.IdleHops)
	e.WriteULong(uint32(len(m.Rtr)))
	for _, s := range m.Rtr {
		e.WriteULongLong(s)
	}
}

func (m *joinMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptJoin)
	e.WriteString(m.Sender)
	encodeStrings(e, m.Alive)
	encodeRing(e, m.PrevRing)
	e.WriteULongLong(m.HighSeq)
	e.WriteULongLong(m.MaxEpoch)
}

func (m *announceMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptAnnounce)
	encodeRing(e, m.Ring)
}

func (m *hurryMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptHurry)
	encodeRing(e, m.Ring)
	e.WriteString(m.Origin)
}

func (m *formMsg) encodeTo(e *cdr.Encoder) {
	e.WriteOctet(ptForm)
	encodeRing(e, m.Ring)
	encodeStrings(e, m.Members)
	encodeRing(e, m.Lineage)
	e.WriteULongLong(m.StartSeq)
}

// reader reads fields off a packet until the first error, which sticks:
// every later read returns zero, and decodePacket reports the error once.
type reader struct {
	d   cdr.Decoder
	err error
}

func (r *reader) u32() (v uint32) {
	if r.err == nil {
		v, r.err = r.d.ReadULong()
	}
	return v
}

func (r *reader) u64() (v uint64) {
	if r.err == nil {
		v, r.err = r.d.ReadULongLong()
	}
	return v
}

func (r *reader) str() (v string) {
	if r.err == nil {
		v, r.err = r.d.ReadString()
	}
	return v
}

func (r *reader) ring() ringIdentity { return ringIdentity{Epoch: r.u64(), Rep: r.str()} }

// count reads an element count and rejects one the rest of the stream
// cannot hold at min bytes an element: a hostile frame sizes no allocation.
func (r *reader) count(min, slack int) uint32 {
	n := r.u32()
	if r.err == nil && uint64(n)*uint64(min) > uint64(r.d.Remaining()+slack) {
		r.err = cdr.ErrLengthOverflow
	}
	return n
}

func (r *reader) strs() []string {
	n := r.count(4, 0)
	if r.err != nil {
		return nil
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

// chunk parses one chunk. Payloads alias the packet buffer (no copy); that
// is safe because nothing in the delivery path mutates them and the packet
// buffer is immutable once received.
func (r *reader) chunk() chunk {
	c := chunk{Sender: r.str(), MsgID: r.u64(), FragIdx: r.u32(), FragTotal: r.u32()}
	if r.err == nil {
		c.Payload, r.err = r.d.ReadOctetSeqView()
	}
	return c
}

// decodePacket parses any totem packet, returning one of *dataMsg,
// *tokenMsg, *joinMsg, *formMsg, *announceMsg or *hurryMsg. Chunk payloads
// in the returned dataMsg alias buf.
func decodePacket(buf []byte) (msg any, err error) {
	r := reader{d: *cdr.NewDecoder(buf, cdr.BigEndian)}
	t, err := r.d.ReadOctet()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPacket, err)
	}
	switch t {
	case ptPacked:
		m := &dataMsg{Ring: r.ring(), Seq: r.u64()}
		// Each chunk costs at least ~25 wire bytes.
		n := r.count(16, 16)
		if r.err == nil && n == 0 {
			// A chunkless frame is the local tombstone; accepted off the
			// wire it would make this member skip a sequence number its
			// peers deliver.
			r.err = errors.New("data frame with no chunks")
		}
		if r.err == nil {
			m.Chunks = make([]chunk, n)
		}
		for i := 0; i < len(m.Chunks) && r.err == nil; i++ {
			m.Chunks[i] = r.chunk()
		}
		msg = m
	case ptToken:
		m := &tokenMsg{Ring: r.ring(), Round: r.u64(), Seq: r.u64(), Aru: r.u64(),
			AruSetter: r.str(), GCSeq: r.u64(), IdleHops: r.u32()}
		for n := r.count(8, 8); n > 0 && r.err == nil; n-- {
			m.Rtr = append(m.Rtr, r.u64())
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
		return nil, fmt.Errorf("%w: unknown type %d", ErrBadPacket, t)
	}
	if r.err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPacket, r.err)
	}
	return msg, nil
}
