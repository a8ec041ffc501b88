package orb

import (
	"bytes"
	"net"
	"testing"

	"eternal/internal/cdr"
	"eternal/internal/giop"
)

// TestSessionHandleMatchesServeConn: a Session answers each message exactly
// as ServeConn writes it on a connection, byte for byte and message for
// message — including answering nothing — so the ordered path, which calls
// Handle in-line, and TCP share one dispatch. Handle also says which
// messages were requests and which carried a handshake.
func TestSessionHandleMatchesServeConn(t *testing.T) {
	request := func(id uint32, key string, oneway bool, scs ...giop.ServiceContext) *giop.Message {
		return giop.EncodeRequest(giop.Version12, cdr.BigEndian, &giop.RequestHeader{
			ServiceContexts:  scs,
			RequestID:        id,
			ResponseExpected: !oneway,
			ObjectKey:        []byte(key),
			Operation:        "echo",
		}, []byte{1, 2, 3, 4})
	}
	locate := func(id uint32, key string) *giop.Message {
		return giop.EncodeLocateRequest(giop.Version12, cdr.BigEndian,
			&giop.LocateRequestHeader{RequestID: id, ObjectKey: []byte(key)})
	}
	short := string(encodeShortKey(7))
	status := func(want giop.ReplyStatus) func(*testing.T, *giop.Message) {
		return func(t *testing.T, m *giop.Message) {
			t.Helper()
			rep, err := giop.ParseReply(m)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Header.Status != want {
				t.Fatalf("reply status = %v, want %v", rep.Header.Status, want)
			}
		}
	}
	const none = giop.MsgType(0xff) // the ORB sends nothing
	steps := []struct {
		name  string
		msg   *giop.Message
		want  giop.MsgType
		check func(*testing.T, *giop.Message)
	}{
		{"request", request(1, "root/echo-1", false), giop.MsgReply, status(giop.ReplyNoException)},
		{"oneway", request(2, "root/echo-1", true), none, nil},
		{"locate request", locate(3, "root/echo-1"), giop.MsgLocateReply, nil},
		{"locate an unknown object", locate(4, "root/nope"), giop.MsgLocateReply, nil},
		{"short key before the handshake", request(5, short, false), none, nil},
		{"code sets", request(6, "root/echo-1", false,
			encodeCodeSetsContext(codeSets{Char: CodeSetUTF8, Wchar: CodeSetUTF16})), giop.MsgReply, nil},
		{"handshake negotiation", request(7, "root/echo-1", false,
			encodeHandshakeProposal([]keyAlias{{Alias: 7, FullKey: []byte("root/echo-1")}})),
			giop.MsgReply, func(t *testing.T, m *giop.Message) {
				rep, _ := giop.ParseReply(m)
				if giop.FindContext(rep.Header.ServiceContexts, giop.SCVendorHandshake) == nil {
					t.Fatal("the reply carries no handshake acceptance")
				}
			}},
		{"short key after the handshake", request(8, short, false), giop.MsgReply, status(giop.ReplyNoException)},
		{"unknown object", request(9, "root/nope", false), giop.MsgReply, status(giop.ReplySystemException)},
		{"malformed request", &giop.Message{Version: giop.Version12, Type: giop.MsgRequest, Body: []byte{1, 2}},
			giop.MsgMessageError, nil},
		{"panicking servant", request(10, "root/boom", false), giop.MsgReply, status(giop.ReplySystemException)},
		{"cancel", giop.EncodeCancelRequest(giop.Version12, cdr.BigEndian, 10), none, nil},
	}

	newServer := func() *Server {
		srv := NewServer(ServerOptions{})
		srv.RootPOA().Activate("echo-1", &echoServant{})
		srv.RootPOA().Activate("boom", ServantFunc(func(string, []byte, cdr.ByteOrder) ([]byte, error) {
			panic("servant bug")
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	conn, serverEnd := net.Pipe()
	defer conn.Close()
	go newServer().ServeConn(serverEnd)
	r := giop.NewReader(conn)
	sess := newServer().NewSession()

	for i, st := range steps {
		// A LocateRequest after each message marks where ServeConn's
		// answers to it end.
		fence := locate(0xf0000000+uint32(i), "root/echo-1")
		go func() {
			st.msg.WriteTo(conn)
			fence.WriteTo(conn)
		}()
		var written []*giop.Message
		for {
			m, err := r.Next()
			if err != nil {
				t.Fatalf("%s: reading ServeConn's answer: %v", st.name, err)
			}
			if lr, err := giop.ParseLocateReply(m); err == nil && lr.RequestID == 0xf0000000+uint32(i) {
				break
			}
			written = append(written, m)
		}

		got, seen := sess.Handle(st.msg)
		// Every well-formed request is seen, the discarded one included;
		// the two that negotiate carry a handshake.
		wantSeen := Seen{
			Request:   st.msg.Type == giop.MsgRequest && st.want != giop.MsgMessageError,
			Handshake: st.name == "code sets" || st.name == "handshake negotiation",
		}
		if seen != wantSeen {
			t.Fatalf("%s: Handle saw %+v, want %+v", st.name, seen, wantSeen)
		}
		switch {
		case st.want == none:
			if got != nil || len(written) != 0 {
				t.Fatalf("%s: Handle = %v, ServeConn wrote %d messages; want nothing from either", st.name, got, len(written))
			}
		case got == nil || got.Type != st.want:
			t.Fatalf("%s: Handle = %v, want a %v", st.name, got, st.want)
		case len(written) != 1 || !bytes.Equal(got.Marshal(), written[0].Marshal()):
			t.Fatalf("%s: Handle answers % x, ServeConn wrote %d messages", st.name, got.Marshal(), len(written))
		case st.check != nil:
			st.check(t, got)
		}
		if fenced, _ := sess.Handle(fence); fenced == nil || fenced.Type != giop.MsgLocateReply {
			t.Fatalf("%s: the session did not answer the fence: %v", st.name, fenced)
		}
	}
	if sess.codeSets.Char != CodeSetUTF8 || !sess.negotiated {
		t.Fatalf("code sets = %+v (negotiated %v), want the client's", sess.codeSets, sess.negotiated)
	}
}
