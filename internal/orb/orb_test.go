package orb

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/giop"
	"eternal/internal/ior"
)

// echoServant echoes its arguments for "echo" and raises exceptions on
// demand.
type echoServant struct {
	mu    sync.Mutex
	calls int
}

func (e *echoServant) Invoke(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
	e.mu.Lock()
	e.calls++
	e.mu.Unlock()
	switch op {
	case "echo":
		return args, nil
	case "fail_user":
		return nil, &UserException{Name: "IDL:Test/Boom:1.0", Body: []byte{1, 2}}
	case "fail_system":
		return nil, ObjectNotExist()
	case "fail_plain":
		return nil, errors.New("plain failure")
	case "slow":
		time.Sleep(50 * time.Millisecond)
		return nil, nil
	default:
		return nil, BadOperation()
	}
}

// startServer returns a serving ORB and the reference to an activated echo
// object over a real TCP loopback listener.
func startServer(t *testing.T, opts ServerOptions) (*Server, *ior.IOR, *echoServant) {
	t.Helper()
	srv := NewServer(opts)
	sv := &echoServant{}
	srv.RootPOA().Activate("echo-1", sv)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	addr := l.Addr().(*net.TCPAddr)
	ref := srv.RootPOA().IOR("IDL:Test/Echo:1.0", "127.0.0.1", uint16(addr.Port), "echo-1")
	return srv, ref, sv
}

func client(t *testing.T, opts Options) *ORB {
	t.Helper()
	o := NewORB(opts)
	t.Cleanup(o.Close)
	return o
}

func TestEchoRoundTrip(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 5 * time.Second})
	obj, err := o.Object(ref)
	if err != nil {
		t.Fatal(err)
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString("hello from the client")
	out, err := obj.Invoke("echo", e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	d := cdr.NewDecoder(out, cdr.BigEndian)
	got, err := d.ReadString()
	if err != nil || got != "hello from the client" {
		t.Fatalf("got %q, %v", got, err)
	}
}

func TestRequestIDsIncrementPerConnection(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 5 * time.Second})
	obj, _ := o.Object(ref)
	for i := 0; i < 5; i++ {
		if _, err := obj.Invoke("echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	host, port := obj.Endpoint()
	st, ok := o.ConnStats(host, port)
	if !ok {
		t.Fatal("no connection stats")
	}
	if st.NextRequestID != 5 {
		t.Fatalf("NextRequestID = %d, want 5", st.NextRequestID)
	}
	if st.RequestsSent != 5 || st.RepliesReceived != 5 || st.DiscardedReplies != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestUserException(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 5 * time.Second})
	obj, _ := o.Object(ref)
	_, err := obj.Invoke("fail_user", nil)
	ue, ok := AsUserException(err)
	if !ok {
		t.Fatalf("err = %v, want user exception", err)
	}
	if ue.Name != "IDL:Test/Boom:1.0" || len(ue.Body) != 2 {
		t.Fatalf("ue = %+v", ue)
	}
}

func TestSystemException(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 5 * time.Second})
	obj, _ := o.Object(ref)
	_, err := obj.Invoke("fail_system", nil)
	se, ok := AsSystemException(err)
	if !ok {
		t.Fatalf("err = %v, want system exception", err)
	}
	if se.Name != "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0" {
		t.Fatalf("se = %+v", se)
	}
}

func TestPlainErrorBecomesInternal(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 5 * time.Second})
	obj, _ := o.Object(ref)
	_, err := obj.Invoke("fail_plain", nil)
	se, ok := AsSystemException(err)
	if !ok || se.Name != "IDL:omg.org/CORBA/INTERNAL:1.0" {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownObjectKey(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 5 * time.Second})
	obj, _ := o.Object(ref)
	// Forge a reference with a bogus oid on the same endpoint.
	host, port := obj.Endpoint()
	bogus := ior.NewObjectReference("IDL:Test/Echo:1.0", host, port, []byte("root/ghost"))
	bObj, _ := o.Object(bogus)
	_, err := bObj.Invoke("echo", nil)
	se, ok := AsSystemException(err)
	if !ok || se.Name != "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0" {
		t.Fatalf("err = %v", err)
	}
}

func TestOneway(t *testing.T) {
	_, ref, sv := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 5 * time.Second})
	obj, _ := o.Object(ref)
	if err := obj.InvokeOneway("echo", []byte{1}); err != nil {
		t.Fatal(err)
	}
	// A following two-way confirms the oneway arrived (in-order stream).
	if _, err := obj.Invoke("echo", nil); err != nil {
		t.Fatal(err)
	}
	sv.mu.Lock()
	calls := sv.calls
	sv.mu.Unlock()
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestConcurrentInvocationsMultiplexed(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 10 * time.Second})
	obj, _ := o.Object(ref)
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e := cdr.NewEncoder(cdr.BigEndian)
			e.WriteULong(uint32(i))
			out, err := obj.Invoke("echo", e.Bytes())
			if err != nil {
				errs <- err
				return
			}
			d := cdr.NewDecoder(out, cdr.BigEndian)
			v, _ := d.ReadULong()
			if v != uint32(i) {
				errs <- fmt.Errorf("reply mismatch: got %d want %d", v, i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestHandshakeShortKeyUsedAfterFirstRequest(t *testing.T) {
	srv, ref, _ := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 5 * time.Second})
	obj, _ := o.Object(ref)
	for i := 0; i < 3; i++ {
		if _, err := obj.Invoke("echo", nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := srv.Stats(); st.Requests != 3 || st.DiscardedRequests != 0 {
		t.Fatalf("server stats = %+v", st)
	}
}

// TestUnnegotiatedShortKeyDiscarded reproduces the §4.2.2 failure: a
// request that uses a negotiated short key on a fresh connection (no
// handshake) is silently discarded and the client times out.
func TestUnnegotiatedShortKeyDiscarded(t *testing.T) {
	srv, ref, _ := startServer(t, ServerOptions{})
	p, _ := ref.FirstIIOPProfile()

	// Handcraft a request using a short key the server never negotiated.
	conn, err := net.Dial("tcp", fmt.Sprintf("%s:%d", p.Host, p.Port))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hdr := &giop.RequestHeader{
		RequestID:        1,
		ResponseExpected: true,
		ObjectKey:        encodeShortKey(42),
		Operation:        "echo",
	}
	msg := giop.EncodeRequest(giop.Version12, cdr.BigEndian, hdr, nil)
	if _, err := msg.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	// No reply should arrive.
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	if _, err := giop.ReadMessage(conn); err == nil {
		t.Fatal("expected no reply for unnegotiated short key")
	}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		if srv.Stats().DiscardedRequests == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("DiscardedRequests = %d, want 1", srv.Stats().DiscardedRequests)
}

// TestMismatchedReplyDiscarded reproduces the Figure 4 failure: a reply
// whose request_id matches no outstanding request is discarded by the
// client ORB, which keeps waiting.
func TestMismatchedReplyDiscarded(t *testing.T) {
	// A fake server that answers every request with request_id 9999.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := giop.NewReader(conn)
		for {
			msg, err := r.Next()
			if err != nil {
				return
			}
			if msg.Type != giop.MsgRequest {
				continue
			}
			rep := giop.EncodeReply(msg.Version, cdr.BigEndian,
				&giop.ReplyHeader{RequestID: 9999, Status: giop.ReplyNoException}, nil)
			rep.WriteTo(conn)
		}
	}()
	addr := l.Addr().(*net.TCPAddr)
	o := client(t, Options{RequestTimeout: 300 * time.Millisecond})
	ref := ior.NewObjectReference("IDL:T:1.0", "127.0.0.1", uint16(addr.Port), []byte("root/x"))
	obj, _ := o.Object(ref)
	_, err = obj.Invoke("echo", nil)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want timeout (client waits forever without one)", err)
	}
	st, ok := o.ConnStats("127.0.0.1", uint16(addr.Port))
	if !ok || st.DiscardedReplies == 0 {
		t.Fatalf("stats = %+v, want discarded replies", st)
	}
}

// TestTimedOutCallLeavesNoStaleTimeout: two-way calls wait with recycled
// timers. A call that timed out hands its fired timer back; the calls that
// follow on the same connection, each likely to wait on that very timer,
// get their replies, not its old expiry.
func TestTimedOutCallLeavesNoStaleTimeout(t *testing.T) {
	gate := make(chan struct{})
	srv := NewServer(ServerOptions{})
	srv.RootPOA().Activate("gated", ServantFunc(func(op string, args []byte, _ cdr.ByteOrder) ([]byte, error) {
		if op == "wait" {
			<-gate
		}
		return args, nil
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(srv.Close)
	port := uint16(l.Addr().(*net.TCPAddr).Port)
	o := client(t, Options{RequestTimeout: 50 * time.Millisecond})
	obj, err := o.Object(srv.RootPOA().IOR("IDL:Test/Gated:1.0", "127.0.0.1", port, "gated"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obj.Invoke("wait", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("the gated call ended with %v, want a timeout", err)
	}
	close(gate)
	deadline := time.Now().Add(time.Second)
	for st, _ := o.ConnStats("127.0.0.1", port); st.DiscardedReplies == 0; st, _ = o.ConnStats("127.0.0.1", port) {
		if time.Now().After(deadline) {
			t.Fatal("the timed-out call's late reply never arrived")
		}
		time.Sleep(time.Millisecond)
	}
	for i := byte(0); i < 20; i++ {
		got, err := obj.Invoke("echo", []byte{i})
		if err != nil || !bytes.Equal(got, []byte{i}) {
			t.Fatalf("call %d after the timeout: %v, %v; want its echo", i, got, err)
		}
	}
}

// TestPOAActivateDeactivate: an activated object answers, and an object id
// the same POA never activated (or no longer holds) is OBJECT_NOT_EXIST.
func TestPOAActivateDeactivate(t *testing.T) {
	srv, ref, _ := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 5 * time.Second})
	obj, _ := o.Object(ref)
	if _, err := obj.Invoke("echo", nil); err != nil {
		t.Fatal(err)
	}
	p, err := ref.FirstIIOPProfile()
	if err != nil {
		t.Fatal(err)
	}
	gone, _ := o.Object(srv.RootPOA().IOR(ref.TypeID, p.Host, p.Port, "echo-2"))
	_, err = gone.Invoke("echo", nil)
	se, ok := AsSystemException(err)
	if !ok || se.Name != "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0" {
		t.Fatalf("err = %v, want OBJECT_NOT_EXIST for an id the POA does not hold", err)
	}
}

func TestMultiplePOAs(t *testing.T) {
	srv := NewServer(ServerOptions{})
	alpha := srv.CreatePOA("alpha")
	alpha.Activate("obj", ServantFunc(func(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
		return []byte("from-alpha"), nil
	}))
	beta := srv.CreatePOA("beta")
	beta.Activate("obj", ServantFunc(func(op string, args []byte, order cdr.ByteOrder) ([]byte, error) {
		return []byte("from-beta"), nil
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	addr := l.Addr().(*net.TCPAddr)

	o := client(t, Options{RequestTimeout: 5 * time.Second})
	for _, tc := range []struct{ poa, want string }{{"alpha", "from-alpha"}, {"beta", "from-beta"}} {
		ref := ior.NewObjectReference("IDL:T:1.0", "127.0.0.1", uint16(addr.Port), []byte(tc.poa+"/obj"))
		obj, _ := o.Object(ref)
		out, err := obj.Invoke("get", nil)
		if err != nil || string(out) != tc.want {
			t.Fatalf("%s: got %q, %v", tc.poa, out, err)
		}
	}
}

func TestServerConnStateIsolatedPerConnection(t *testing.T) {
	// Two client ORBs negotiate independently: each connection has its own
	// alias table (per-connection ORB-level state).
	_, ref, _ := startServer(t, ServerOptions{})
	o1 := client(t, Options{RequestTimeout: 5 * time.Second})
	o2 := client(t, Options{RequestTimeout: 5 * time.Second})
	obj1, _ := o1.Object(ref)
	obj2, _ := o2.Object(ref)
	for i := 0; i < 3; i++ {
		if _, err := obj1.Invoke("echo", nil); err != nil {
			t.Fatal(err)
		}
		if _, err := obj2.Invoke("echo", nil); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServeConnOnPipe(t *testing.T) {
	// ServeConn over an in-memory pipe, the way any net.Conn is served.
	srv := NewServer(ServerOptions{})
	srv.RootPOA().Activate("echo-1", &echoServant{})
	defer srv.Close()
	clientEnd, serverEnd := net.Pipe()
	go srv.ServeConn(serverEnd)

	hdr := &giop.RequestHeader{
		RequestID:        7,
		ResponseExpected: true,
		ObjectKey:        []byte("root/echo-1"),
		Operation:        "echo",
	}
	msg := giop.EncodeRequest(giop.Version12, cdr.BigEndian, hdr, []byte{5, 5, 5, 5})
	go msg.WriteTo(clientEnd)
	rep, err := giop.ReadMessage(clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := giop.ParseReply(rep)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Header.RequestID != 7 || parsed.Header.Status != giop.ReplyNoException {
		t.Fatalf("reply = %+v", parsed.Header)
	}
}

// TestDisableHandshake: a foreign ORB that never negotiates — full object
// key, no service contexts — is served, and nothing is discarded.
func TestDisableHandshake(t *testing.T) {
	srv, ref, _ := startServer(t, ServerOptions{})
	p, _ := ref.FirstIIOPProfile()
	conn, err := net.Dial("tcp", fmt.Sprintf("%s:%d", p.Host, p.Port))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for id := uint32(1); id <= 3; id++ {
		req := giop.EncodeRequest(giop.Version12, cdr.BigEndian, &giop.RequestHeader{
			RequestID: id, ResponseExpected: true, ObjectKey: p.ObjectKey, Operation: "echo",
		}, []byte{byte(id)})
		if _, err := req.WriteTo(conn); err != nil {
			t.Fatal(err)
		}
		msg, err := giop.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := giop.ParseReply(msg)
		if err != nil || rep.Header.RequestID != id || rep.Header.Status != giop.ReplyNoException ||
			!bytes.Equal(rep.Result, []byte{byte(id)}) {
			t.Fatalf("reply %d = %+v, %v", id, rep, err)
		}
	}
	if st := srv.Stats(); st.Requests != 3 || st.DiscardedRequests != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCloseFailsPending(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	o := NewORB(Options{})
	obj, _ := o.Object(ref)
	done := make(chan error, 1)
	go func() {
		_, err := obj.Invoke("slow", nil)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	o.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected error after ORB close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pending invocation not failed by Close")
	}
}

func TestLocateRequest(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	p, _ := ref.FirstIIOPProfile()
	conn, err := net.Dial("tcp", fmt.Sprintf("%s:%d", p.Host, p.Port))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	lr := giop.EncodeLocateRequest(giop.Version12, cdr.BigEndian,
		&giop.LocateRequestHeader{RequestID: 3, ObjectKey: p.ObjectKey})
	if _, err := lr.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	msg, err := giop.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := giop.ParseLocateReply(msg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != giop.LocateObjectHere {
		t.Fatalf("status = %v", rep.Status)
	}
}
