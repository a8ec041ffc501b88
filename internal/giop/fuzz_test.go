package giop

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"eternal/internal/cdr"
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

// allocBound is the module's "small multiple of the input" (64 KiB + 16×
// the input), plus the one body of at most exactBody a header may claim
// before its bytes arrive.
func allocBound(input int) uint64 { return 64<<10 + exactBody + 16*uint64(input) }

// FuzzReadMessage feeds ReadMessage, and the reassembling Reader beside it,
// what the ORB and the interceptor read off a CORBA peer's connection and
// what the core parses out of an ordered envelope: arbitrary bytes. Neither
// may panic or allocate more than allocBound, and a message ReadMessage
// accepts must marshal back to exactly the bytes it consumed.
func FuzzReadMessage(f *testing.F) {
	for _, v := range []Version{Version10, Version11, Version12} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			f.Add(EncodeRequest(v, order, requestHeader(), []byte{9, 8, 7}).Marshal())
		}
		f.Add(EncodeReply(v, cdr.LittleEndian, &ReplyHeader{RequestID: 350, Status: ReplyNoException}, []byte{0xDE, 0xAD}).Marshal())
		f.Add(EncodeLocateRequest(v, cdr.BigEndian, &LocateRequestHeader{RequestID: 9, ObjectKey: []byte("obj")}).Marshal())
	}
	f.Add(EncodeCancelRequest(Version11, cdr.BigEndian, 42).Marshal())
	var stream []byte
	for _, m := range FragmentMessage(EncodeRequest(Version12, cdr.BigEndian, requestHeader(), make([]byte, 300)), 100) {
		stream = append(stream, m.Marshal()...)
	}
	f.Add(stream)
	// TestTooLarge's and TestReadMessageAllocatesAsBytesArrive's headers,
	// a truncated body and a stray fragment.
	huge := (&Message{Version: Version12, Type: MsgRequest}).Marshal()
	f.Add(binary.BigEndian.AppendUint32(huge[:8:8], 0xFFFFFFFF))
	f.Add(binary.BigEndian.AppendUint32(huge[:8:8], MaxMessageSize))
	f.Add((&Message{Version: Version12, Type: MsgRequest, Body: []byte{1, 2, 3, 4}}).Marshal()[:14])
	f.Add((&Message{Version: Version11, Type: MsgFragment, Body: []byte{1}}).Marshal())
	f.Fuzz(func(t *testing.T, buf []byte) {
		r := bytes.NewReader(buf)
		var m *Message
		var err error
		if grew := allocated(func() { m, err = ReadMessage(r) }); grew > allocBound(len(buf)) {
			t.Fatalf("ReadMessage of %d bytes allocated %d", len(buf), grew)
		}
		if err == nil {
			if consumed := buf[:len(buf)-r.Len()]; !bytes.Equal(m.Marshal(), consumed) {
				t.Fatalf("accepted %+v marshals to %x, not the %x it came from", m, m.Marshal(), consumed)
			}
			// The peeks read what the parsers read.
			if req, err := ParseRequest(m); err == nil {
				if id, twoWay, err := PeekRequest(m); err != nil || id != req.Header.RequestID || twoWay != req.Header.ResponseExpected {
					t.Fatalf("PeekRequest = %d, %t, %v; ParseRequest read %+v", id, twoWay, err, req.Header)
				}
			}
			if rep, err := ParseReply(m); err == nil {
				if id, err := PeekReply(m); err != nil || id != rep.Header.RequestID {
					t.Fatalf("PeekReply = %d, %v; ParseReply read %d", id, err, rep.Header.RequestID)
				}
			}
		}
		// ParseMessage accepts exactly the bytes ReadMessage consumes whole.
		var pm *Message
		var perr error
		if grew := allocated(func() { pm, perr = ParseMessage(buf) }); grew > allocBound(len(buf)) {
			t.Fatalf("ParseMessage of %d bytes allocated %d", len(buf), grew)
		}
		if whole := err == nil && r.Len() == 0; (perr == nil) != whole {
			t.Fatalf("ParseMessage: %v; ReadMessage: %v with %d bytes left", perr, err, r.Len())
		}
		if perr == nil && !bytes.Equal(pm.Marshal(), buf) {
			t.Fatalf("ParseMessage's %+v marshals to %x, not %x", pm, pm.Marshal(), buf)
		}
		g := NewReader(bytes.NewReader(buf))
		drain := func() {
			for {
				if _, err := g.Next(); err != nil {
					return
				}
			}
		}
		if grew := allocated(drain); grew > allocBound(len(buf)) {
			t.Fatalf("Reader.Next over %d bytes allocated %d", len(buf), grew)
		}
	})
}
