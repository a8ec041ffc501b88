package orb

import (
	"bytes"
	"net"
	"runtime"
	"testing"

	"eternal/internal/cdr"
	"eternal/internal/giop"
)

// discardConn is a MessageConn whose far end takes nothing and sends
// nothing: the fuzz target calls receive itself.
type discardConn struct{ net.Conn }

func (discardConn) Bind(func(*giop.Message)) {}
func (discardConn) Send(*giop.Message) error { return nil }
func (discardConn) Close() error             { return nil }

// allocated reports the bytes f allocated (and whatever the test runtime
// allocated beside it: the bound leaves room).
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReceive feeds the client ORB's receive one GIOP message read from
// arbitrary bytes, with requests 0–3 outstanding. Eternal's mechanisms call
// receive on a node's delivery loop with a reply that came off the ring.
// Neither receive nor the caller's decoding of the reply it hands over
// (processReply) may panic, and together they may allocate at most the
// module's small multiple of the input (64 KiB + 16× the input).
func FuzzReceive(f *testing.F) {
	for _, v := range []giop.Version{giop.Version10, giop.Version11, giop.Version12} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			f.Add(giop.EncodeReply(v, order, &giop.ReplyHeader{RequestID: 1, Status: giop.ReplyNoException}, []byte{1, 2, 3, 4}).Marshal())
		}
		f.Add(giop.EncodeReply(v, cdr.BigEndian, &giop.ReplyHeader{
			RequestID: 2, Status: giop.ReplyUserException,
		}, encodeUserException(cdr.BigEndian, &UserException{Name: "IDL:Refused:1.0", Body: []byte{7}})).Marshal())
	}
	f.Add(giop.EncodeReply(giop.Version12, cdr.BigEndian, &giop.ReplyHeader{
		RequestID: 0, Status: giop.ReplySystemException,
		ServiceContexts: []giop.ServiceContext{encodeHandshakeAccept([]uint32{1, 2})},
	}, encodeSystemException(cdr.BigEndian, ObjectNotExist())).Marshal())
	f.Add(giop.EncodeReply(giop.Version12, cdr.BigEndian, &giop.ReplyHeader{RequestID: 9, Status: giop.ReplyLocationForward}, nil).Marshal())
	f.Add((&giop.Message{Version: giop.Version12, Type: giop.MsgCloseConnection}).Marshal())
	f.Add((&giop.Message{Version: giop.Version12, Type: giop.MsgReply, Body: []byte{0, 0, 0, 3}}).Marshal())
	f.Fuzz(func(t *testing.T, buf []byte) {
		msg, err := giop.ReadMessage(bytes.NewReader(buf))
		if err != nil {
			return
		}
		c := newClientConn(NewORB(Options{}), discardConn{}, "fuzz")
		waiters := make([]chan *giop.Message, 4)
		for id := range waiters {
			waiters[id] = make(chan *giop.Message, 1)
			c.pending[uint32(id)] = waiters[id]
		}
		grew := allocated(func() {
			c.receive(msg)
			for _, w := range waiters {
				select {
				case m, ok := <-w:
					if ok { // a CloseConnection closes the waiters
						c.processReply(m)
					}
				default:
				}
			}
		})
		if bound := 64<<10 + 16*uint64(len(buf)); grew > bound {
			t.Fatalf("receiving %d bytes allocated %d, bound %d", len(buf), grew, bound)
		}
	})
}
