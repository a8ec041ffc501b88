package totem

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"eternal/internal/cdr"
)

func encodeMsg(m wireMsg) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	m.encodeTo(e)
	return bytes.Clone(e.Bytes())
}

// TestPackedFrameRoundTrip covers the one data-frame layout at one chunk
// (count 1, not a layout of its own) and at several.
func TestPackedFrameRoundTrip(t *testing.T) {
	chunks := []chunk{
		{Sender: "node-a", MsgID: 1, FragIdx: 0, FragTotal: 1, Payload: []byte("alpha")},
		{Sender: "node-b", MsgID: 9, FragIdx: 2, FragTotal: 3, Payload: []byte{}},
		{Sender: "node-a", MsgID: 2, FragIdx: 0, FragTotal: 1, Payload: bytes.Repeat([]byte{0xAB}, 300)},
	}
	for _, n := range []int{1, len(chunks)} {
		in := &dataMsg{Ring: ringIdentity{Epoch: 7, Rep: "node-a"}, Seq: 42, Chunks: chunks[:n]}
		buf := encodeMsg(in)
		if buf[0] != ptPacked {
			t.Fatalf("%d-chunk frame encoded as type %d, want ptPacked", n, buf[0])
		}
		got, err := decodePacket(buf)
		if err != nil {
			t.Fatal(err)
		}
		out, ok := got.(*dataMsg)
		if !ok {
			t.Fatalf("decoded %T", got)
		}
		if out.Ring != in.Ring || out.Seq != in.Seq || len(out.Chunks) != len(in.Chunks) {
			t.Fatalf("frame mismatch: %+v", out)
		}
		for i := range in.Chunks {
			a, b := &in.Chunks[i], &out.Chunks[i]
			if a.Sender != b.Sender || a.MsgID != b.MsgID || a.FragIdx != b.FragIdx ||
				a.FragTotal != b.FragTotal || !bytes.Equal(a.Payload, b.Payload) {
				t.Fatalf("chunk %d mismatch: %+v vs %+v", i, a, b)
			}
		}
	}
}

// TestWireCostBoundsEncodedSize verifies the packer's conservative size
// arithmetic: for any frame, the wireCost estimate must be >= the actual
// encoded size, or packed frames could exceed the transport MTU.
func TestWireCostBoundsEncodedSize(t *testing.T) {
	payloads := [][]byte{
		{}, []byte("x"), bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 1300),
	}
	for _, rep := range []string{"a", "a-very-long-representative-name-padding-to-sixty-four-bytes!!!"} {
		frame := &dataMsg{Ring: ringIdentity{Epoch: 1, Rep: rep}, Seq: 1}
		estimate := packedFrameOverhead + len(rep)
		for i, pl := range payloads {
			c := chunk{Sender: rep, MsgID: uint64(i), FragIdx: 0, FragTotal: 1, Payload: pl}
			frame.Chunks = append(frame.Chunks, c)
			estimate += c.wireCost()
			if got := len(encodeMsg(frame)); got > estimate {
				t.Fatalf("rep=%q chunks=%d: encoded %d bytes > estimate %d",
					rep, len(frame.Chunks), got, estimate)
			}
		}
	}
}

func TestPackedDecodeRejectsBogusCount(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(ptPacked)
	encodeRing(e, ringIdentity{Epoch: 1, Rep: "a"})
	e.WriteULongLong(9)
	e.WriteULong(1 << 30) // claims a billion chunks in an empty stream
	if _, err := decodePacket(bytes.Clone(e.Bytes())); err == nil {
		t.Fatal("decodePacket accepted a hostile chunk count")
	}
}

// TestChunklessFrameOffTheWireIsRejected: a frame with no chunks is the
// local tombstone for an unrecoverable sequence number. One arriving from
// the network (corrupt or hostile) must not be stored, or this member
// skips a sequence number its peers deliver.
func TestChunklessFrameOffTheWireIsRejected(t *testing.T) {
	p := offlineProcessor("a", "b")
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(ptPacked)
	encodeRing(e, p.ring)
	e.WriteULongLong(1)
	e.WriteULong(0)
	empty := bytes.Clone(e.Bytes())
	if _, err := decodePacket(empty); err == nil {
		t.Fatal("decodePacket accepted a data frame with no chunks")
	}
	now := time.Now()
	p.handlePacket(Packet{From: "b", Payload: empty}, now)
	if p.myAru != 0 || p.Stats().Tombstones != 0 {
		t.Fatalf("aru = %d, tombstones = %d: the chunkless frame was taken as seq 1", p.myAru, p.Stats().Tombstones)
	}
	real := &dataMsg{Ring: p.ring, Seq: 1, Chunks: []chunk{{Sender: "b", MsgID: 1, FragTotal: 1, Payload: []byte("kept")}}}
	p.handlePacket(Packet{From: "b", Payload: encodeMsg(real)}, now)
	select {
	case d := <-p.Deliveries():
		if string(d.Payload) != "kept" || d.Seq != 1 {
			t.Fatalf("delivered %q at seq %d, want b's message at seq 1", d.Payload, d.Seq)
		}
	case <-time.After(time.Second):
		t.Fatal("seq 1 was skipped: peers deliver b's message, this member never does")
	}
}

// retiredForwardFrame is a well-formed type-8 frame as members that still
// forwarded chunks to a ring leader encoded it (the encoder is gone, hence
// raw bytes): ring(1@a), sender "b", forward sequence 1, one chunk with
// flags 0 carrying b's single-fragment message 1, payload "x".
var retiredForwardFrame = []byte{
	8, 0, 0, 0, 0, 0, 0, 0, // type, padding
	0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 'a', 0, 0, 0, // ring
	0, 0, 0, 2, 'b', 0, 0, 0, // sender
	0, 0, 0, 0, 0, 0, 0, 1, // start
	0, 0, 0, 1, // chunk count
	0, 0, 0, 0, // flags, padding
	0, 0, 0, 2, 'b', 0, 0, 0, // chunk sender
	0, 0, 0, 0, 0, 0, 0, 1, // message id
	0, 0, 0, 0, 0, 0, 0, 1, // fragment 0 of 1
	0, 0, 0, 1, 'x', // payload
}

// TestRetiredForwardFrameIsRejected: type 8 is retired, so a frame an old
// member (or an attacker replaying one) sends must be a bad packet, and a
// processor that receives it must neither sequence nor deliver anything.
func TestRetiredForwardFrameIsRejected(t *testing.T) {
	if _, err := decodePacket(retiredForwardFrame); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("decodePacket(type 8) = %v, want ErrBadPacket", err)
	}
	p := offlineProcessor("a", "b")
	before := p.Stats()
	p.handlePacket(Packet{From: "b", Payload: retiredForwardFrame}, time.Now())
	if after := p.Stats(); after != before {
		t.Fatalf("stats moved: %+v -> %+v", before, after)
	}
	if p.seqHigh != 0 || p.myAru != 0 || len(p.store) != 0 || p.pending.Len() != 0 || p.state != stateOperational {
		t.Fatalf("state moved: seqHigh=%d aru=%d stored=%d pending=%d state=%d",
			p.seqHigh, p.myAru, len(p.store), p.pending.Len(), p.state)
	}
	select {
	case d := <-p.Deliveries():
		t.Fatalf("delivered %+v from a retired frame", d)
	default:
	}
}

func TestAllMessageTypesRoundTrip(t *testing.T) {
	msgs := []wireMsg{
		&tokenMsg{Ring: ringIdentity{1, "a"}, Round: 2, Seq: 3, Aru: 1, AruSetter: "b", GCSeq: 1, IdleHops: 4, Rtr: []uint64{7, 9}},
		&joinMsg{Sender: "a", Alive: []string{"a", "b"}, PrevRing: ringIdentity{1, "a"}, HighSeq: 10, MaxEpoch: 2},
		&formMsg{Ring: ringIdentity{2, "a"}, Members: []string{"a", "b"}, Lineage: ringIdentity{1, "a"}, StartSeq: 10},
		&announceMsg{Ring: ringIdentity{2, "a"}},
	}
	for _, in := range msgs {
		got, err := decodePacket(encodeMsg(in))
		if err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", in) {
			t.Fatalf("%T round trip: %+v vs %+v", in, got, in)
		}
	}
}
