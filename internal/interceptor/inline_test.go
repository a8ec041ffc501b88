package interceptor

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/giop"
	"eternal/internal/orb"
)

// streamDialer connects an ORB to a server session through a byte pipe,
// sending every message the server reads to seen.
type streamDialer struct {
	sess *orb.Session
	seen chan<- *giop.Message
}

func (d streamDialer) Dial(string, uint16) (net.Conn, error) {
	c, s := Pipe()
	go func() {
		defer s.Close()
		r := giop.NewReader(s)
		for {
			m, err := r.Next()
			if err != nil {
				return
			}
			d.seen <- m
			if ans, _ := d.sess.Handle(m); ans != nil {
				giop.WriteMessage(s, ans, 0)
			}
		}
	}()
	return c, nil
}

func inlineServer(t *testing.T) *orb.Server {
	t.Helper()
	srv := orb.NewServer(orb.ServerOptions{})
	t.Cleanup(srv.Close)
	echo := orb.ServantFunc(func(op string, args []byte, _ cdr.ByteOrder) ([]byte, error) { return args, nil })
	srv.RootPOA().Activate("echo-1", echo)
	srv.RootPOA().Activate("echo-2", echo)
	srv.RootPOA().Activate("refuse", orb.ServantFunc(func(string, []byte, cdr.ByteOrder) ([]byte, error) {
		return nil, &orb.UserException{Name: "IDL:Refused:1.0", Body: []byte{7}}
	}))
	return srv
}

// TestClientInlineMatchesStream: the same invocations through a diverted
// Conn, whose requests reach the mechanisms by function call, and through
// a byte pipe yield byte-identical GIOP requests — the same request ids,
// handshake proposals and code-set context — and the same results. It is
// the client twin of orb's TestSessionHandleMatchesServeConn.
func TestClientInlineMatchesStream(t *testing.T) {
	type outcome struct {
		result []byte
		err    string
	}
	steps := []struct {
		oid, op string
		oneway  bool
	}{
		{"echo-1", "echo", false}, // proposes an alias, negotiates code sets
		{"echo-1", "echo", false}, // the short key
		{"echo-1", "note", true},
		{"echo-2", "echo", false}, // a second alias
		{"echo-2", "echo", false},
		{"nope", "echo", false},
		{"refuse", "echo", false},
	}
	run := func(o *orb.ORB, srv *orb.Server, host string) []outcome {
		var out []outcome
		for i, st := range steps {
			obj, err := o.Object(srv.RootPOA().IOR("IDL:X:1.0", host, 1, st.oid))
			if err != nil {
				t.Fatal(err)
			}
			args := []byte{byte(i), 2, 3, 4}
			var res []byte
			if st.oneway {
				err = obj.InvokeOneway(st.op, args)
			} else {
				res, err = obj.Invoke(st.op, args)
			}
			out = append(out, outcome{res, fmt.Sprint(err)})
		}
		return out
	}

	streamSrv := inlineServer(t)
	streamSeen := make(chan *giop.Message, len(steps))
	stream := orb.NewORB(orb.Options{RequestTimeout: 5 * time.Second, Dialer: streamDialer{streamSrv.NewSession(), streamSeen}})
	defer stream.Close()
	streamOut := run(stream, streamSrv, "pipe")

	inlineSrv := inlineServer(t)
	sess := inlineSrv.NewSession()
	var inlineSeen []*giop.Message
	ic := New(func(string) bool { return true }, func(_ string, c *Conn) func(*giop.Message) {
		return func(m *giop.Message) {
			inlineSeen = append(inlineSeen, m)
			if ans, _ := sess.Handle(m); ans != nil {
				c.Deliver(ans)
			}
		}
	}, nil)
	inline := orb.NewORB(orb.Options{RequestTimeout: 5 * time.Second, Dialer: ic})
	defer inline.Close()
	inlineOut := run(inline, inlineSrv, "group")

	if len(inlineSeen) != len(steps) {
		t.Fatalf("the in-line path sent %d messages for %d invocations", len(inlineSeen), len(steps))
	}
	for i, m := range inlineSeen {
		var s *giop.Message
		select {
		case s = <-streamSeen:
		case <-time.After(5 * time.Second):
			t.Fatalf("step %d: the stream carried no request", i)
		}
		if !bytes.Equal(m.Marshal(), s.Marshal()) {
			t.Fatalf("step %d: in-line request % x, streamed % x", i, m.Marshal(), s.Marshal())
		}
		req, err := giop.ParseRequest(m)
		if err != nil || req.Header.RequestID != uint32(i) {
			t.Fatalf("step %d: request %+v (%v), want id %d", i, req, err, i)
		}
		if i == 0 && (giop.FindContext(req.Header.ServiceContexts, giop.SCCodeSets) == nil ||
			giop.FindContext(req.Header.ServiceContexts, giop.SCVendorHandshake) == nil) {
			t.Fatal("the first request negotiates neither code sets nor an alias")
		}
	}
	for i := range steps {
		if !bytes.Equal(inlineOut[i].result, streamOut[i].result) || inlineOut[i].err != streamOut[i].err {
			t.Fatalf("step %d: in-line %+v, streamed %+v", i, inlineOut[i], streamOut[i])
		}
	}
	if inlineOut[5].err == "<nil>" || inlineOut[6].err == "<nil>" {
		t.Fatalf("an unknown object and a refusing servant both answered: %+v", inlineOut[5:])
	}
}
