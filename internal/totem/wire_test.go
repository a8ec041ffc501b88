package totem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"eternal/internal/simnet"
)

func encodeMsg(m wireMsg) []byte { return m.appendTo(nil) }

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

// TestWireCostBoundsEncodedSize verifies the packer's size arithmetic: for
// any frame, the wireCost estimate must be >= the actual encoded size, or
// packed frames could exceed the transport MTU — with every integer at its
// largest encoding and the longest name, too. And a frame holding one
// fragment as submit cuts it fits the MTU under any ring identity.
func TestWireCostBoundsEncodedSize(t *testing.T) {
	payloads := [][]byte{
		{}, []byte("x"), bytes.Repeat([]byte{1}, 100), bytes.Repeat([]byte{2}, 1300),
	}
	longest := strings.Repeat("n", maxNameLen)
	for _, tc := range []struct {
		name       string
		epoch, seq uint64
		msgID      uint64
		idx, total uint32
	}{
		{"a", 1, 1, 0, 0, 1},
		{"a-very-long-representative-name-padding-to-sixty-four-bytes!!!", 1, 1, 0, 0, 1},
		{longest, math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 - 7, math.MaxUint32 - 1, math.MaxUint32},
	} {
		frame := &dataMsg{Ring: ringIdentity{Epoch: tc.epoch, Rep: tc.name}, Seq: tc.seq}
		estimate := packedFrameOverhead
		for i, pl := range payloads {
			c := chunk{Sender: tc.name, MsgID: tc.msgID + uint64(i)%2, FragIdx: tc.idx, FragTotal: tc.total, Payload: pl}
			frame.Chunks = append(frame.Chunks, c)
			estimate += c.wireCost()
			if got := len(encodeMsg(frame)); got > estimate {
				t.Fatalf("rep=%q chunks=%d: encoded %d bytes > estimate %d",
					tc.name, len(frame.Chunks), got, estimate)
			}
		}
		fragment := chunk{Sender: tc.name, MsgID: tc.msgID, FragIdx: tc.idx, FragTotal: tc.total,
			Payload: make([]byte, simnet.EthernetMTU-fragMargin-len(tc.name))}
		retagged := &dataMsg{Ring: ringIdentity{Epoch: math.MaxUint64, Rep: longest}, Seq: math.MaxUint64, Chunks: []chunk{fragment}}
		if got := len(encodeMsg(retagged)); got > simnet.EthernetMTU {
			t.Fatalf("sender %q: a full fragment's frame is %d bytes, over the %d MTU", tc.name, got, simnet.EthernetMTU)
		}
	}
}

// TestEncodedSizesArePinned: what a ping costs on the wire is these two
// frames, so their sizes are written down byte by byte. The values are a
// running ring's: epoch 12, sequence numbers in the thousands, two-letter
// names.
func TestEncodedSizesArePinned(t *testing.T) {
	ring := ringIdentity{Epoch: 12, Rep: "n1"}
	data := &dataMsg{Ring: ring, Seq: 3000, Chunks: []chunk{
		{Sender: "n1", MsgID: 1500, FragIdx: 0, FragTotal: 1, Payload: make([]byte, 100)},
	}}
	// type 1, epoch 1, rep 1+2, seq 2, count 1; sender 1+2, message id 2,
	// fragment 1, of 1, payload 1+100.
	if got, want := len(encodeMsg(data)), 1+1+3+2+1+3+2+1+1+1+100; got != want {
		t.Errorf("one-chunk data frame: %d bytes, want %d", got, want)
	}
	tok := &tokenMsg{Ring: ring, Round: 90000, Seq: 3000, Aru: 2999, AruSetter: "n2", GCSeq: 2990}
	// type 1, epoch 1, rep 1+2, round 3, seq 2, aru 2, setter 1+2, GC point
	// 2, idle hops 1, no requests 1.
	if got, want := len(encodeMsg(tok)), 1+1+3+3+2+2+3+2+1+1; got != want {
		t.Errorf("token: %d bytes, want %d", got, want)
	}
}

func TestPackedDecodeRejectsBogusCount(t *testing.T) {
	b := appendRing([]byte{ptPacked}, ringIdentity{Epoch: 1, Rep: "a"})
	b = binary.AppendUvarint(b, 9)
	b = binary.AppendUvarint(b, 1<<30) // claims a billion chunks in an empty stream
	if _, err := decodePacket(b); err == nil {
		t.Fatal("decodePacket accepted a hostile chunk count")
	}
}

// TestDecodeRejectsMalformed: decodePacket accepts exactly what appendTo
// writes. Each case is a valid frame with one thing wrong.
func TestDecodeRejectsMalformed(t *testing.T) {
	ring := ringIdentity{Epoch: 1, Rep: "a"}
	// chunkFrame is a one-chunk data frame whose chunk fields after the
	// sender are given raw.
	chunkFrame := func(fields ...[]byte) []byte {
		b := binary.AppendUvarint(appendRing([]byte{ptPacked}, ring), 1)
		b = appendBytes(binary.AppendUvarint(b, 1), "b")
		return append(b, bytes.Join(fields, nil)...)
	}
	uv := func(v uint64) []byte { return binary.AppendUvarint(nil, v) }
	// tokenFrame is a token whose idle-hop count and request list are given
	// raw.
	tokenFrame := func(idleAndRtr ...byte) []byte {
		b := appendRing([]byte{ptToken}, ring)
		b = binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(b, 3), 1), 1)
		b = binary.AppendUvarint(appendBytes(b, "a"), 0)
		return append(b, idleAndRtr...)
	}
	good := chunkFrame(uv(1), uv(0), uv(1), uv(1), []byte("x"))
	if _, err := decodePacket(good); err != nil {
		t.Fatalf("the well-formed base frame: %v", err)
	}
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"truncated", good[:len(good)-1]},
		{"trailing byte", append(bytes.Clone(good), 0)},
		{"varint of eleven bytes", chunkFrame(append(bytes.Repeat([]byte{0xff}, 10), 1), uv(0), uv(1), uv(1), []byte("x"))},
		{"varint past 64 bits", chunkFrame(append(bytes.Repeat([]byte{0xff}, 9), 2), uv(0), uv(1), uv(1), []byte("x"))},
		{"varint with a spare byte", chunkFrame([]byte{0x81, 0x00}, uv(0), uv(1), uv(1), []byte("x"))},
		{"fragment index past 32 bits", chunkFrame(uv(1), uv(1<<32), uv(1), uv(1), []byte("x"))},
		{"fragment total past 32 bits", chunkFrame(uv(1), uv(0), uv(1<<32), uv(1), []byte("x"))},
		{"payload longer than the frame", chunkFrame(uv(1), uv(0), uv(1), uv(2), []byte("x"))},
		{"idle hops past 32 bits", tokenFrame(append(uv(1<<32), 0)...)},
		{"more requests than bytes", tokenFrame(0, 3, 1, 2)},
		{"more members than bytes", append(binary.AppendUvarint(appendRing([]byte{ptForm}, ring), 5), 1, 'a', 1, 'b')},
		{"retired type", append([]byte{1}, good[1:]...)},
		{"unknown type", append([]byte{ptHurry + 1}, good[1:]...)},
	} {
		if _, err := decodePacket(tc.buf); !errors.Is(err, ErrBadPacket) {
			t.Errorf("%s: decodePacket = %v, want ErrBadPacket", tc.name, err)
		}
	}
}

// TestChunklessFrameOffTheWireIsRejected: a frame with no chunks is the
// local tombstone for an unrecoverable sequence number. One arriving from
// the network (corrupt or hostile) must not be stored, or this member
// skips a sequence number its peers deliver.
func TestChunklessFrameOffTheWireIsRejected(t *testing.T) {
	p := offlineProcessor("a", "b")
	empty := binary.AppendUvarint(binary.AppendUvarint(appendRing([]byte{ptPacked}, p.ring), 1), 0)
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

// retiredCDRFrames are well-formed frames of the six CDR layouts, types
// 2–7, as the CDR encoder wrote them (big-endian, aligned, strings with
// their NUL). Each is one that member a of ring(1@a) with b took in and
// acted on: b's token, b's join, a form of ring(2@a), an announce of a
// foreign ring(2@b), b's message 1 at seq 1, b's hurry.
var retiredCDRFrames = []struct {
	name string
	buf  []byte
}{
	{"token", []byte{
		2, 0, 0, 0, 0, 0, 0, 0, // type, padding
		0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 'a', 0, 0, 0, // ring
		0, 0, 0, 0, 0, 0, 0, 3, // round
		0, 0, 0, 0, 0, 0, 0, 1, // seq
		0, 0, 0, 0, 0, 0, 0, 0, // aru
		0, 0, 0, 2, 'b', 0, 0, 0, // aru setter
		0, 0, 0, 0, 0, 0, 0, 0, // GC point
		0, 0, 0, 0, // idle hops
		0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, // requests: seq 1
	}},
	{"join", []byte{
		3, 0, 0, 0, // type, padding
		0, 0, 0, 2, 'b', 0, 0, 0, // sender
		0, 0, 0, 2, 0, 0, 0, 2, 'a', 0, 0, 0, 0, 0, 0, 2, 'b', 0, 0, 0, // alive
		0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 'a', 0, 0, 0, // previous ring
		0, 0, 0, 0, 0, 0, 0, 1, // high seq
		0, 0, 0, 0, 0, 0, 0, 1, // max epoch
	}},
	{"form", []byte{
		4, 0, 0, 0, 0, 0, 0, 0, // type, padding
		0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 'a', 0, 0, 0, // ring
		0, 0, 0, 2, 0, 0, 0, 2, 'a', 0, 0, 0, 0, 0, 0, 2, 'b', 0, 0, 0, 0, 0, 0, 0, // members, padding
		0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 'a', 0, 0, 0, // lineage
		0, 0, 0, 0, 0, 0, 0, 1, // start seq
	}},
	{"announce", []byte{
		5, 0, 0, 0, 0, 0, 0, 0, // type, padding
		0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 'b', 0, // ring
	}},
	{"data", []byte{
		6, 0, 0, 0, 0, 0, 0, 0, // type, padding
		0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 'a', 0, 0, 0, // ring
		0, 0, 0, 0, 0, 0, 0, 1, // seq
		0, 0, 0, 1, // chunk count
		0, 0, 0, 2, 'b', 0, 0, 0, 0, 0, 0, 0, // chunk sender, padding
		0, 0, 0, 0, 0, 0, 0, 1, // message id
		0, 0, 0, 0, 0, 0, 0, 1, // fragment 0 of 1
		0, 0, 0, 1, 'x', // payload
	}},
	{"hurry", []byte{
		7, 0, 0, 0, 0, 0, 0, 0, // type, padding
		0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 'a', 0, 0, 0, // ring
		0, 0, 0, 2, 'b', 0, // origin
	}},
}

// stateOf renders what a frame can move in an offline member: counters,
// delivery, membership, the scheduler, the token's bookkeeping, and how
// many frames it has sent.
func stateOf(p *Processor) string {
	return fmt.Sprintf("%+v|seq %d aru %d gc %d stored %d pending %d|state %d %v epoch %d joins %d|%+v|round %d sent %d",
		p.Stats(), p.seqHigh, p.myAru, p.gcLow, len(p.store), p.pending.Len(),
		p.state, p.ring, p.maxEpoch, len(p.joinInfo), p.sched, p.round, len(p.tr.(*recTransport).types))
}

// requireRejected: frame is a bad packet, and a member that receives it
// neither moves nor delivers anything.
func requireRejected(t *testing.T, frame []byte) {
	t.Helper()
	if _, err := decodePacket(frame); !errors.Is(err, ErrBadPacket) {
		t.Fatalf("decodePacket(type %d) = %v, want ErrBadPacket", frame[0], err)
	}
	p := offlineProcessor("a", "b")
	before := stateOf(p)
	p.handlePacket(Packet{From: "b", Payload: frame}, time.Now())
	if after := stateOf(p); after != before {
		t.Fatalf("state moved:\n%s\n%s", before, after)
	}
	select {
	case d := <-p.Deliveries():
		t.Fatalf("delivered %+v from a retired frame", d)
	default:
	}
}

// TestRetiredForwardFrameIsRejected: type 8 is retired, so a frame an old
// member (or an attacker replaying one) sends must be a bad packet, and a
// processor that receives it must neither sequence nor deliver anything.
func TestRetiredForwardFrameIsRejected(t *testing.T) { requireRejected(t, retiredForwardFrame) }

// TestRetiredCDRLayoutsAreRejected: a member still speaking the CDR layouts
// and this one drop each other's frames — each of these moved the member it
// reached before the compact codec, and moves nothing now.
func TestRetiredCDRLayoutsAreRejected(t *testing.T) {
	for _, f := range retiredCDRFrames {
		t.Run(f.name, func(t *testing.T) { requireRejected(t, f.buf) })
	}
}

func TestAllMessageTypesRoundTrip(t *testing.T) {
	msgs := []wireMsg{
		&tokenMsg{Ring: ringIdentity{1, "a"}, Round: 2, Seq: 3, Aru: 1, AruSetter: "b", GCSeq: 1, IdleHops: 4, Rtr: []uint64{7, 9}},
		&joinMsg{Sender: "a", Alive: []string{"a", "b"}, PrevRing: ringIdentity{1, "a"}, HighSeq: 10, MaxEpoch: 2},
		&formMsg{Ring: ringIdentity{2, "a"}, Members: []string{"a", "b"}, Lineage: ringIdentity{1, "a"}, StartSeq: 10},
		&announceMsg{Ring: ringIdentity{2, "a"}},
		&hurryMsg{Ring: ringIdentity{2, "a"}, Origin: "b"},
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
