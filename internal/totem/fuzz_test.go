package totem

import (
	"reflect"
	"testing"
)

// FuzzDecodePacket feeds decodePacket what eternald reads off a UDP socket:
// arbitrary bytes. It must never panic, and whatever it accepts must
// survive its own encoding — decode(encode(m)) == m — so a frame a member
// took in and one it retransmits (re-tagged data frames, resent tokens) say
// the same thing.
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
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := decodePacket(buf)
		if err != nil {
			return
		}
		again, err := decodePacket(encodeMsg(m.(wireMsg)))
		if err != nil {
			t.Fatalf("accepted %T does not decode from its own encoding: %v", m, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("round trip changed the message:\n first %+v\nsecond %+v", m, again)
		}
	})
}
