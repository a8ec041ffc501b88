package orb

import (
	"bytes"
	"fmt"
	"net"
	"testing"
	"time"

	"eternal/internal/cdr"
	"eternal/internal/giop"
	"eternal/internal/ior"
)

// TestGIOPVersionInterop drives the server with clients speaking each
// GIOP version and byte order — the cross-ORB wire compatibility matrix.
func TestGIOPVersionInterop(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	for _, v := range []giop.Version{giop.Version10, giop.Version11, giop.Version12} {
		for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
			t.Run(fmt.Sprintf("giop-%s-%s", v, order), func(t *testing.T) {
				o := client(t, Options{
					Version:        v,
					Order:          order,
					RequestTimeout: 5 * time.Second,
				})
				obj, err := o.Object(ref)
				if err != nil {
					t.Fatal(err)
				}
				e := cdr.NewEncoder(order)
				e.WriteString("interop")
				out, err := obj.Invoke("echo", e.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				d := cdr.NewDecoder(out, order)
				if s, _ := d.ReadString(); s != "interop" {
					t.Fatalf("echo = %q", s)
				}
			})
		}
	}
}

// TestLargeArgumentsOverTCP streams a large parameter body through a real
// TCP connection (a single GIOP message; TCP handles the transport-level
// segmentation).
func TestLargeArgumentsOverTCP(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 30 * time.Second})
	obj, _ := o.Object(ref)
	big := make([]byte, 2<<20) // 2 MiB
	for i := range big {
		big[i] = byte(i * 31)
	}
	out, err := obj.Invoke("echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, big) {
		t.Fatalf("echo corrupted: %d bytes back", len(out))
	}
}

// TestSequentialClientsReconnect verifies a fresh connection renegotiates
// from scratch: ORB-level state is strictly per connection.
func TestSequentialClientsReconnect(t *testing.T) {
	srv, ref, _ := startServer(t, ServerOptions{})
	for i := 0; i < 3; i++ {
		o := NewORB(Options{RequestTimeout: 5 * time.Second})
		obj, _ := o.Object(ref)
		if _, err := obj.Invoke("echo", nil); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		host, port := obj.Endpoint()
		st, _ := o.ConnStats(host, port)
		if st.NextRequestID != 1 {
			t.Fatalf("round %d: fresh connection must start its request_id at 0 (next=%d)", i, st.NextRequestID)
		}
		o.Close()
	}
	if st := srv.Stats(); st.DiscardedRequests != 0 {
		t.Fatalf("server stats = %+v", st)
	}
}

// TestServerSurvivesGarbageBytes throws non-GIOP bytes at the server; the
// connection must die without taking the server down.
func TestServerSurvivesGarbageBytes(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	p, _ := ref.FirstIIOPProfile()
	conn, err := net.Dial("tcp", fmt.Sprintf("%s:%d", p.Host, p.Port))
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("this is not GIOP at all, not even close......."))
	conn.Close()
	// The server still works for well-behaved clients.
	o := client(t, Options{RequestTimeout: 5 * time.Second})
	obj, _ := o.Object(ref)
	if _, err := obj.Invoke("echo", nil); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRequestIgnoredGracefully sends a CancelRequest mid-stream;
// the synchronous dispatch model has nothing to cancel and must not
// disturb the connection.
func TestCancelRequestIgnoredGracefully(t *testing.T) {
	_, ref, _ := startServer(t, ServerOptions{})
	p, _ := ref.FirstIIOPProfile()
	conn, err := net.Dial("tcp", fmt.Sprintf("%s:%d", p.Host, p.Port))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cancel := giop.EncodeCancelRequest(giop.Version12, cdr.BigEndian, 99)
	if _, err := cancel.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	req := giop.EncodeRequest(giop.Version12, cdr.BigEndian, &giop.RequestHeader{
		RequestID: 1, ResponseExpected: true,
		ObjectKey: p.ObjectKey, Operation: "echo",
	}, []byte{1, 2, 3, 4})
	if _, err := req.WriteTo(conn); err != nil {
		t.Fatal(err)
	}
	msg, err := giop.ReadMessage(conn)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := giop.ParseReply(msg)
	if err != nil || rep.Header.RequestID != 1 {
		t.Fatalf("reply = %+v, %v", rep, err)
	}
}

func BenchmarkORBEchoTCP(b *testing.B) {
	srv := NewServer(ServerOptions{})
	srv.RootPOA().Activate("echo-1", &echoServant{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	b.Cleanup(srv.Close)
	addr := l.Addr().(*net.TCPAddr)
	o := NewORB(Options{RequestTimeout: 30 * time.Second})
	b.Cleanup(o.Close)
	ref := srv.RootPOA().IOR("IDL:Test/Echo:1.0", "127.0.0.1", uint16(addr.Port), "echo-1")
	obj, _ := o.Object(ref)
	args := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if _, err := obj.Invoke("echo", args); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := obj.Invoke("echo", args); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFragmentedMessagesBothDirections writes GIOP fragments over raw
// connections in both directions and verifies transparent reassembly:
// by the server's connection reader on the request path, and by the
// client ORB's reader on the reply path.
func TestFragmentedMessagesBothDirections(t *testing.T) {
	big := make([]byte, 50_000)
	for i := range big {
		big[i] = byte(i * 13)
	}

	// Requests: a raw client fragments, the server reassembles.
	_, ref, _ := startServer(t, ServerOptions{})
	p, _ := ref.FirstIIOPProfile()
	conn, err := net.Dial("tcp", fmt.Sprintf("%s:%d", p.Host, p.Port))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := giop.EncodeRequest(giop.Version12, cdr.BigEndian, &giop.RequestHeader{
		RequestID: 1, ResponseExpected: true, ObjectKey: p.ObjectKey, Operation: "echo",
	}, big)
	if err := giop.WriteMessage(conn, req, 700); err != nil {
		t.Fatal(err)
	}
	msg, err := giop.NewReader(conn).Next()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := giop.ParseReply(msg)
	if err != nil || rep.Header.RequestID != 1 || !bytes.Equal(rep.Result, big) {
		t.Fatalf("fragmented request: reply %+v, %v", rep, err)
	}

	// Replies: a raw server fragments, the client ORB reassembles.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		r := giop.NewReader(c)
		for {
			msg, err := r.Next()
			if err != nil {
				return
			}
			req, err := giop.ParseRequest(msg)
			if err != nil {
				return
			}
			ans := giop.EncodeReply(msg.Version, cdr.BigEndian, &giop.ReplyHeader{
				RequestID: req.Header.RequestID, Status: giop.ReplyNoException,
			}, req.Args)
			if giop.WriteMessage(c, ans, 900) != nil {
				return
			}
		}
	}()
	addr := l.Addr().(*net.TCPAddr)
	o := client(t, Options{RequestTimeout: 10 * time.Second})
	obj, err := o.Object(ior.NewObjectReference("IDL:Test/Echo:1.0", "127.0.0.1", uint16(addr.Port), []byte("root/echo-1")))
	if err != nil {
		t.Fatal(err)
	}
	out, err := obj.Invoke("echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, big) {
		t.Fatalf("fragmented reply corrupted: %d bytes", len(out))
	}
	// Small messages pass unfragmented on the same connection.
	if _, err := obj.Invoke("echo", []byte{1}); err != nil {
		t.Fatal(err)
	}
}

// TestClientReconnectsAfterServerClose pins the reconnect behaviour: when
// the server closes a connection, the next invocation dials a fresh one
// (with fresh per-connection ORB state) instead of failing forever.
func TestClientReconnectsAfterServerClose(t *testing.T) {
	srv, ref, _ := startServer(t, ServerOptions{})
	o := client(t, Options{RequestTimeout: 5 * time.Second})
	obj, _ := o.Object(ref)
	if _, err := obj.Invoke("echo", nil); err != nil {
		t.Fatal(err)
	}
	// Kill all server-side connections (but not the listener).
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	// The first invocation may fail (racing the close); retries must
	// succeed over a fresh connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := obj.Invoke("echo", nil); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
	}
	host, port := obj.Endpoint()
	st, ok := o.ConnStats(host, port)
	if !ok {
		t.Fatal("no connection after reconnect")
	}
	if st.NextRequestID == 0 {
		t.Fatal("fresh connection did not carry the invocation")
	}
}
