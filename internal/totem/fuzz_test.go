package totem

import (
	"bytes"
	"runtime"
	"testing"
)

// allocated reports the bytes f allocated (and whatever the test runtime
// allocated beside it: the bound below leaves room).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodePacket feeds decodePacket what eternald reads off a UDP socket:
// arbitrary bytes. It must never panic, never allocate more than a small
// multiple of what it was handed (64 KiB + 16× the input, the transfer
// decoders' bound), and whatever it accepts must re-encode to the bytes it
// came from — so a frame a member took in and one it retransmits (re-tagged
// data frames, resent tokens) say the same thing.
func FuzzDecodePacket(f *testing.F) {
	ring := ringIdentity{Epoch: 3, Rep: "node-a"}
	chunks := []chunk{
		{Sender: "node-b", MsgID: 7, FragIdx: 1, FragTotal: 3, Payload: []byte("fragment")},
		{Sender: "node-b", MsgID: 8, FragIdx: 0, FragTotal: 1, Payload: []byte{}},
	}
	for _, m := range []wireMsg{
		&dataMsg{Ring: ring, Seq: 42, Chunks: chunks},
		&tokenMsg{Ring: ring, Round: 9, Seq: 42, Aru: 40, AruSetter: "node-a", GCSeq: 39, IdleHops: 2, Rtr: []uint64{41, 42}},
		&joinMsg{Sender: "node-c", Alive: []string{"node-a", "node-c"}, PrevRing: ring, HighSeq: 42, MaxEpoch: 3},
		&formMsg{Ring: ringIdentity{Epoch: 4, Rep: "node-a"}, Members: []string{"node-a", "node-c"}, Lineage: ring, StartSeq: 42},
		&announceMsg{Ring: ring},
		&hurryMsg{Ring: ring, Origin: "node-b"},
	} {
		f.Add(encodeMsg(m))
	}
	f.Add(retiredForwardFrame)
	for _, r := range retiredCDRFrames {
		f.Add(r.buf)
	}
	f.Fuzz(func(t *testing.T, buf []byte) {
		var m any
		var err error
		if grew := allocated(func() { m, err = decodePacket(buf) }); grew > 64<<10+16*uint64(len(buf)) {
			t.Fatalf("decoding %d bytes allocated %d", len(buf), grew)
		}
		if err != nil {
			return
		}
		if again := encodeMsg(m.(wireMsg)); !bytes.Equal(again, buf) {
			t.Fatalf("accepted %T re-encodes to %d bytes, not the %d it came from:\n%+v", m, len(again), len(buf), m)
		}
	})
}
